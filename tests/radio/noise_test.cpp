#include "radio/noise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/dbm.hpp"
#include "util/rng.hpp"

namespace telea {

// Reaches the model's private hash and its bounds.
struct CpmNoiseModelPeer {
  static std::uint64_t fnv(std::span<const std::int8_t> recent) noexcept {
    return CpmNoiseModel::pattern_hash(recent);
  }
  static constexpr std::size_t kInjectiveHistory =
      CpmNoiseModel::kInjectiveHistory;
  static constexpr std::size_t kMaxBuckets = CpmNoiseModel::kMaxBuckets;
};

namespace {

TEST(SyntheticTrace, LengthAndBounds) {
  SyntheticTraceConfig cfg;
  const auto trace = generate_heavy_noise_trace(cfg, 1);
  EXPECT_EQ(trace.size(), cfg.length);
  for (auto v : trace) {
    EXPECT_GE(v, static_cast<std::int8_t>(kTraceMinDbm));
    EXPECT_LE(v, static_cast<std::int8_t>(kTraceMaxDbm));
  }
}

TEST(SyntheticTrace, HasQuietFloorAndBursts) {
  SyntheticTraceConfig cfg;
  const auto trace = generate_heavy_noise_trace(cfg, 2);
  int quiet = 0, loud = 0;
  for (auto v : trace) {
    if (v <= -94) ++quiet;
    if (v >= -85) ++loud;
  }
  // Most of the trace sits at the floor; a visible minority is bursty.
  EXPECT_GT(quiet, static_cast<int>(cfg.length / 2));
  EXPECT_GT(loud, static_cast<int>(cfg.length / 100));
  EXPECT_LT(loud, static_cast<int>(cfg.length / 3));
}

TEST(SyntheticTrace, DeterministicPerSeed) {
  SyntheticTraceConfig cfg;
  EXPECT_EQ(generate_heavy_noise_trace(cfg, 5), generate_heavy_noise_trace(cfg, 5));
  EXPECT_NE(generate_heavy_noise_trace(cfg, 5), generate_heavy_noise_trace(cfg, 6));
}

TEST(CpmNoiseModel, MarginalMeanNearFloor) {
  const auto trace = generate_heavy_noise_trace({}, 3);
  CpmNoiseModel model(trace, 3);
  EXPECT_GT(model.marginal_mean_dbm(), -101.0);
  EXPECT_LT(model.marginal_mean_dbm(), -90.0);
}

TEST(CpmNoiseModel, GeneratorsAreDeterministicPerSeedStream) {
  const auto trace = generate_heavy_noise_trace({}, 3);
  CpmNoiseModel model(trace, 3);
  auto a = model.make_generator(10, 1);
  auto b = model.make_generator(10, 1);
  auto c = model.make_generator(10, 2);
  bool all_same = true, any_diff_c = false;
  for (SimTime t = 0; t < 100 * kMillisecond; t += 2 * kMillisecond) {
    const double va = a.noise_dbm(t);
    const double vb = b.noise_dbm(t);
    if (va != vb) all_same = false;
    if (va != c.noise_dbm(t)) any_diff_c = true;
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff_c);
}

TEST(CpmNoiseModel, OutputStaysInTraceRange) {
  SyntheticTraceConfig cfg;
  const auto trace = generate_heavy_noise_trace(cfg, 4);
  CpmNoiseModel model(trace, 3);
  auto gen = model.make_generator(1, 1);
  for (SimTime t = 0; t < 2 * kSecond; t += kMillisecond) {
    const double v = gen.noise_dbm(t);
    EXPECT_GE(v, kTraceMinDbm - 1);
    EXPECT_LE(v, kTraceMaxDbm + 1);
  }
}

TEST(CpmNoiseModel, RepeatedQueriesAtSameTimeAreStable) {
  const auto trace = generate_heavy_noise_trace({}, 4);
  CpmNoiseModel model(trace, 3);
  auto gen = model.make_generator(2, 2);
  const double v1 = gen.noise_dbm(10 * kMillisecond);
  const double v2 = gen.noise_dbm(10 * kMillisecond);
  EXPECT_DOUBLE_EQ(v1, v2);
}

TEST(CpmNoiseModel, TemporalCorrelationExceedsShuffled) {
  // CPM's purpose: consecutive samples correlate. Compare lag-1
  // autocorrelation of the generated process against ~0 for white noise.
  const auto trace = generate_heavy_noise_trace({}, 5);
  CpmNoiseModel model(trace, 3);
  auto gen = model.make_generator(3, 3);
  std::vector<double> xs;
  for (SimTime t = 0; t < 20 * kSecond; t += 2 * kMillisecond) {
    xs.push_back(gen.noise_dbm(t));
  }
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double num = 0, den = 0;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    num += (xs[i] - mean) * (xs[i + 1] - mean);
  }
  for (double x : xs) den += (x - mean) * (x - mean);
  ASSERT_GT(den, 0.0);
  EXPECT_GT(num / den, 0.2);  // clearly positive lag-1 autocorrelation
}

TEST(CpmNoiseModel, FarApartQueriesDecorrelate) {
  const auto trace = generate_heavy_noise_trace({}, 6);
  CpmNoiseModel model(trace, 3);
  auto gen = model.make_generator(4, 4);
  // Jumping far ahead must not loop forever (bounded catch-up) and must
  // still return plausible values.
  const double v = gen.noise_dbm(0);
  const double w = gen.noise_dbm(3600 * kSecond);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(w));
}

// First 256 readings of make_generator(7, 1) over generate_heavy_noise_trace's
// seed-3 trace, for history 1, 2 and 3. Every 16th query jumps 50 steps, so
// the marginal restart is pinned along with the chain walk.
constexpr std::array<std::array<int, 256>, 3> kGoldenReadings = {{
  {{  // history 1
    -97, -97, -100, -97, -98, -97, -96, -100, -98, -99, -100, -97, -99,
    -100, -99, -96, -99, -100, -99, -99, -96, -101, -99, -98, -97, -98,
    -97, -96, -96, -97, -96, -99, -95, -97, -99, -100, -97, -99, -96,
    -99, -97, -98, -97, -100, -97, -98, -100, -83, -73, -76, -97, -98,
    -97, -99, -99, -99, -70, -65, -62, -87, -68, -53, -71, -98, -100,
    -97, -99, -99, -99, -100, -97, -98, -98, -99, -96, -97, -96, -99,
    -97, -99, -100, -99, -102, -99, -98, -100, -96, -99, -97, -101, -99,
    -97, -97, -98, -96, -97, -96, -64, -71, -97, -97, -97, -97, -97,
    -96, -98, -100, -101, -99, -96, -99, -99, -99, -98, -98, -98, -97,
    -99, -98, -99, -100, -98, -99, -100, -96, -99, -100, -99, -98, -96,
    -95, -98, -96, -97, -100, -99, -96, -98, -99, -98, -96, -98, -98,
    -98, -98, -99, -101, -97, -98, -96, -98, -99, -99, -97, -96, -98,
    -95, -97, -100, -98, -98, -97, -100, -96, -97, -98, -99, -100, -99,
    -99, -97, -98, -97, -97, -97, -98, -98, -98, -99, -95, -97, -98,
    -98, -99, -97, -96, -99, -97, -99, -99, -101, -98, -97, -99, -100,
    -98, -97, -97, -96, -99, -100, -98, -99, -98, -99, -96, -99, -98,
    -98, -99, -97, -100, -97, -97, -99, -99, -97, -101, -98, -98, -96,
    -98, -99, -98, -97, -96, -99, -96, -98, -97, -94, -99, -98, -96,
    -99, -98, -96, -98, -100, -96, -99, -96, -100, -98, -97, -97, -100,
    -101, -101, -102, -98, -97, -96, -98, -97, -96,
  }},
  {{  // history 2
    -99, -99, -97, -100, -99, -97, -100, -98, -99, -99, -99, -96, -96,
    -97, -102, -99, -100, -99, -101, -96, -97, -99, -97, -98, -99, -97,
    -101, -100, -96, -97, -97, -99, -97, -99, -98, -98, -100, -98, -100,
    -99, -99, -95, -100, -100, -95, -98, -97, -100, -98, -99, -100, -97,
    -98, -101, -99, -96, -96, -98, -97, -99, -100, -101, -99, -95, -96,
    -98, -98, -97, -98, -101, -98, -99, -95, -97, -98, -98, -98, -99,
    -99, -100, -99, -98, -98, -99, -99, -96, -98, -97, -98, -97, -97,
    -95, -98, -99, -97, -98, -99, -100, -98, -99, -98, -98, -97, -98,
    -98, -97, -99, -78, -84, -70, -97, -99, -98, -94, -96, -98, -102,
    -101, -98, -99, -97, -96, -99, -96, -97, -101, -100, -97, -99, -95,
    -95, -98, -98, -65, -64, -74, -99, -100, -94, -99, -97, -99, -101,
    -100, -99, -98, -99, -99, -98, -98, -99, -100, -95, -98, -99, -97,
    -101, -98, -97, -78, -81, -66, -69, -74, -86, -98, -79, -76, -80,
    -85, -83, -98, -100, -98, -96, -98, -99, -99, -97, -99, -98, -99,
    -97, -98, -97, -99, -98, -101, -98, -97, -99, -97, -98, -95, -97,
    -100, -98, -98, -101, -95, -98, -98, -97, -98, -98, -99, -98, -97,
    -100, -99, -98, -98, -97, -98, -98, -97, -97, -97, -98, -97, -98,
    -100, -100, -101, -96, -99, -99, -101, -97, -98, -98, -98, -98, -99,
    -97, -100, -100, -97, -98, -98, -96, -96, -96, -101, -99, -98, -99,
    -100, -98, -97, -100, -97, -99, -97, -99, -97,
  }},
  {{  // history 3
    -97, -98, -98, -97, -93, -96, -98, -99, -97, -101, -98, -98, -99,
    -99, -98, -98, -98, -102, -96, -97, -97, -100, -97, -97, -98, -95,
    -99, -94, -99, -99, -99, -99, -100, -97, -98, -100, -101, -101, -60,
    -71, -56, -66, -64, -70, -89, -99, -98, -97, -96, -98, -97, -97,
    -96, -99, -95, -98, -99, -99, -99, -99, -99, -99, -96, -98, -99,
    -96, -100, -99, -97, -97, -97, -100, -97, -98, -97, -99, -98, -99,
    -96, -100, -99, -97, -101, -100, -97, -96, -99, -96, -98, -99, -98,
    -98, -98, -98, -99, -100, -97, -97, -99, -98, -99, -98, -100, -100,
    -99, -96, -97, -95, -99, -97, -97, -99, -98, -99, -99, -99, -99,
    -101, -97, -99, -101, -96, -97, -98, -98, -96, -98, -99, -98, -99,
    -99, -98, -97, -98, -100, -97, -98, -98, -100, -98, -99, -101, -96,
    -98, -98, -101, -95, -95, -96, -102, -98, -101, -100, -99, -99, -101,
    -98, -97, -97, -97, -98, -101, -98, -99, -96, -97, -97, -99, -97,
    -98, -97, -99, -95, -97, -100, -99, -99, -97, -98, -97, -98, -100,
    -96, -97, -96, -99, -99, -98, -95, -99, -98, -100, -96, -101, -98,
    -96, -98, -97, -82, -96, -100, -98, -99, -98, -97, -99, -99, -98,
    -94, -97, -100, -72, -83, -61, -76, -97, -99, -99, -97, -97, -98,
    -99, -100, -99, -97, -98, -96, -97, -97, -99, -100, -99, -97, -99,
    -98, -98, -100, -95, -97, -95, -99, -98, -97, -98, -98, -99, -98,
    -98, -98, -100, -96, -97, -97, -99, -97, -98,
  }},
}};

TEST(CpmNoiseModel, GoldenReadingsPerHistory) {
  const auto trace = generate_heavy_noise_trace({}, 3);
  for (std::size_t history = 1; history <= 3; ++history) {
    CpmNoiseModel model(trace, history);
    auto gen = model.make_generator(7, 1);
    const auto& golden = kGoldenReadings[history - 1];
    SimTime t = 0;
    for (std::size_t i = 0; i < golden.size(); ++i) {
      t += (i % 16 == 15 ? 50 : 1) * gen.step_period();
      ASSERT_EQ(gen.noise_dbm(t), golden[i])
          << "history " << history << ", reading " << i;
    }
  }
}

TEST(CpmNoiseModel, GoldenDigestAcrossTraceSeeds) {
  // One FNV-1a digest over 2000 readings from each of 64 trained traces and
  // histories 1-3. Many tables means many probe chains and collisions in
  // the bucket array, which one trace alone does not reach.
  std::uint64_t digest = 1469598103934665603ULL;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto trace = generate_heavy_noise_trace({}, seed);
    for (std::size_t history = 1; history <= 3; ++history) {
      CpmNoiseModel model(trace, history);
      auto gen = model.make_generator(seed, history);
      for (SimTime t = 0; t < 4 * kSecond; t += gen.step_period()) {
        const auto reading = static_cast<int>(gen.noise_dbm(t));
        digest ^= static_cast<std::uint8_t>(reading);
        digest *= 1099511628211ULL;
      }
    }
  }
  EXPECT_EQ(digest, 0x689a5c1a1e9fda50ULL);
}

TEST(CpmNoiseModel, NoiseMwIsExactlyDbmToMw) {
  const auto trace = generate_heavy_noise_trace({}, 8);
  CpmNoiseModel model(trace, 3);
  auto mw = model.make_generator(5, 9);
  auto dbm = model.make_generator(5, 9);
  Pcg32 gaps(3, 3);
  SimTime t = 0;
  for (int i = 0; i < 10000; ++i) {
    // Repeats within a step, short walks and jumps past the catch-up cap.
    t += (gaps.uniform(50) == 0 ? 100 : gaps.uniform(5)) * kMillisecond;
    EXPECT_EQ(mw.noise_mw(t), dbm_to_mw(dbm.noise_dbm(t))) << "step " << i;
  }
}

TEST(CpmNoiseModel, RejectsTraceNoLongerThanHistory) {
  for (const std::size_t history : {1u, 3u}) {
    for (std::size_t length = 0; length <= history; ++length) {
      const std::vector<std::int8_t> trace(length, -98);
      EXPECT_THROW((CpmNoiseModel{trace, history}), std::invalid_argument)
          << "history " << history << ", length " << length;
    }
    const std::vector<std::int8_t> trace(history + 1, -98);
    CpmNoiseModel model(trace, history);
    auto gen = model.make_generator(1, 1);
    EXPECT_EQ(gen.noise_dbm(0), -98.0);
    EXPECT_EQ(gen.noise_dbm(kSecond), -98.0);
  }
}


/// The probing walk without the model's table: each step looks the recent
/// pattern's hash up in bags of successors gathered from the trace in trace
/// order, as the model did before successors cached their next bucket.
/// reading_at() repeats Generator::reading_at's stepping: 2 ms steps, and a
/// marginal restart past 32 steps of catch-up.
class ProbingWalk {
 public:
  ProbingWalk(const std::vector<std::int8_t>& trace, std::size_t history,
              std::uint64_t seed, std::uint64_t stream)
      : trace_(&trace), rng_(seed, stream), recent_(history) {
    for (std::size_t i = history; i < trace.size(); ++i) {
      bags_[CpmNoiseModelPeer::fnv({trace.data() + (i - history), history})]
          .push_back(trace[i]);
    }
  }

  std::int8_t reading_at(SimTime t) {
    const SimTime target = t / (2 * kMillisecond);
    if (!primed_) {
      for (auto& r : recent_) r = marginal();
      current_ = recent_.back();
      step_ = target;
      primed_ = true;
      return current_;
    }
    if (target <= step_) return current_;
    SimTime gap = target - step_;
    if (gap > 32) {
      for (auto& r : recent_) r = marginal();
      gap = 1;
    }
    for (SimTime i = 0; i < gap; ++i) {
      const auto bag = bags_.find(CpmNoiseModelPeer::fnv(recent_));
      const std::int8_t next =
          bag == bags_.end()
              ? marginal()
              : bag->second[rng_.uniform(
                    static_cast<std::uint32_t>(bag->second.size()))];
      std::rotate(recent_.begin(), recent_.begin() + 1, recent_.end());
      recent_.back() = next;
      current_ = next;
      ++steps_;
    }
    step_ = target;
    return current_;
  }

  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  std::int8_t marginal() {
    return (*trace_)[rng_.uniform(static_cast<std::uint32_t>(trace_->size()))];
  }

  const std::vector<std::int8_t>* trace_;
  Pcg32 rng_;
  std::unordered_map<std::uint64_t, std::vector<std::int8_t>> bags_;
  std::vector<std::int8_t> recent_;
  std::int8_t current_ = 0;
  SimTime step_ = 0;
  std::uint64_t steps_ = 0;
  bool primed_ = false;
};

/// Queries `model`'s generator and the probing walk at the same times until
/// the walk has taken `steps` chain steps, and returns the first query at
/// which they differ (-1 when none). Most queries advance one step; some
/// repeat a time, skip up to 32 steps, or jump far enough to restart.
long first_divergence(const CpmNoiseModel& model,
                      const std::vector<std::int8_t>& trace,
                      std::size_t history, std::uint64_t seed,
                      std::uint64_t steps) {
  auto gen = model.make_generator(seed, 5);
  ProbingWalk walk(trace, history, seed, 5);
  Pcg32 times(seed, 99);
  SimTime t = 0;
  for (long query = 0; walk.steps() < steps; ++query) {
    if (gen.noise_dbm(t) != walk.reading_at(t)) return query;
    const std::uint32_t dice = times.uniform(100);
    const SimTime skip = dice < 80   ? 1
                         : dice < 85 ? 0
                         : dice < 97 ? times.uniform_in(2, 32)
                                     : times.uniform_in(33, 200);
    t += skip * 2 * kMillisecond;
  }
  return -1;
}

TEST(CpmNoiseModel, CachedWalkEqualsProbingWalk) {
  // 10^6 chain steps per history, over eight trace seeds each.
  for (std::size_t history = 1; history <= 3; ++history) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto trace = generate_heavy_noise_trace({}, seed);
      const CpmNoiseModel model(trace, history);
      EXPECT_EQ(first_divergence(model, trace, history, seed, 125'000), -1)
          << "history " << history << ", trace seed " << seed;
    }
  }
}

TEST(CpmNoiseModel, RejectsHistoryLongerThanTheInjectiveHash) {
  const auto trace = generate_heavy_noise_trace({}, 3);
  const std::size_t longest = CpmNoiseModelPeer::kInjectiveHistory;
  EXPECT_NO_THROW((CpmNoiseModel{trace, longest}));
  EXPECT_THROW((CpmNoiseModel{trace, longest + 1}), std::invalid_argument);
}

TEST(CpmNoiseModel, RejectsMorePatternsThanSixteenBitIndicesName) {
  // Uniform readings make nearly every window of three a new pattern. The
  // bucket array stays at most half full, so kMaxBuckets buckets hold
  // kMaxBuckets / 2 patterns; the trace prefix with one more must throw.
  Pcg32 rng(17, 3);
  std::vector<std::int8_t> trace(40'000);
  for (auto& r : trace) r = static_cast<std::int8_t>(rng.next());
  const std::size_t most = CpmNoiseModelPeer::kMaxBuckets / 2;
  std::unordered_set<std::uint64_t> seen;
  std::size_t length = 3;
  for (; seen.size() <= most; ++length) {
    ASSERT_LT(length, trace.size());
    seen.insert(CpmNoiseModelPeer::fnv({trace.data() + (length - 3), 3}));
  }
  // trace[0, length) has most + 1 patterns; one reading less has most.
  const auto end = trace.begin() + static_cast<std::ptrdiff_t>(length);
  const std::vector<std::int8_t> fits(trace.begin(), end - 1);
  const std::vector<std::int8_t> over(trace.begin(), end);
  const CpmNoiseModel model(fits, 3);
  EXPECT_EQ(first_divergence(model, fits, 3, 1, 200'000), -1);
  EXPECT_THROW((CpmNoiseModel{over, 3}), std::invalid_argument);
}

TEST(CpmNoiseModel, PatternHashIsInjectiveUpToTheCheckedHistory) {
  // Two equal-length inputs collide only if, after some common-length
  // prefix, their FNV-1a states differ in the low 8 bits alone: the next
  // bytes can then XOR them equal. So distinct high 56 bits across all
  // prefixes of each length below kInjectiveHistory make every pattern of
  // up to kInjectiveHistory readings hash to its own value.
  ASSERT_EQ(CpmNoiseModelPeer::kInjectiveHistory, 3u);
  std::vector<std::uint64_t> states{1469598103934665603ULL};  // empty prefix
  for (std::size_t length = 1; length < 3; ++length) {
    std::vector<std::uint64_t> next;
    for (const std::uint64_t s : states) {
      for (int byte = 0; byte < 256; ++byte) {
        next.push_back((s ^ static_cast<std::uint64_t>(byte)) *
                       std::uint64_t{1099511628211ULL});
      }
    }
    states = std::move(next);
    std::vector<std::uint64_t> high;
    for (const std::uint64_t s : states) high.push_back(s >> 8);
    std::sort(high.begin(), high.end());
    EXPECT_EQ(std::adjacent_find(high.begin(), high.end()), high.end())
        << "length " << length;
  }
  // The states are the hash's: a two-byte prefix then one more byte.
  const std::array<std::int8_t, 3> pattern{-98, -97, -100};
  const std::size_t prefix =
      std::size_t{static_cast<std::uint8_t>(pattern[0])} * 256 +
      static_cast<std::uint8_t>(pattern[1]);
  EXPECT_EQ(CpmNoiseModelPeer::fnv(pattern),
            (states[prefix] ^ static_cast<std::uint8_t>(pattern[2])) *
                std::uint64_t{1099511628211ULL});
}

}  // namespace
}  // namespace telea
