#include "radio/noise.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/dbm.hpp"

namespace telea {

namespace {
constexpr double kFloorMeanDbm = -98.0;
constexpr double kFloorSigmaDb = 1.5;
constexpr double kBurstMeanDbm = -72.0;
constexpr double kBurstSigmaDb = 9.0;
constexpr double kPEnterBurst = 0.02;  // per reading
constexpr double kPLeaveBurst = 0.25;  // per reading
}  // namespace

std::vector<std::int8_t> generate_heavy_noise_trace(
    const SyntheticTraceConfig& config, std::uint64_t seed) {
  Pcg32 rng(seed, /*stream=*/0xC0FFEEULL);
  std::vector<std::int8_t> trace;
  trace.reserve(config.length);
  bool in_burst = false;
  for (std::size_t i = 0; i < config.length; ++i) {
    if (in_burst) {
      if (rng.chance(kPLeaveBurst)) in_burst = false;
    } else {
      if (rng.chance(kPEnterBurst)) in_burst = true;
    }
    const double mean = in_burst ? kBurstMeanDbm : kFloorMeanDbm;
    const double sigma = in_burst ? kBurstSigmaDb : kFloorSigmaDb;
    const double v =
        std::clamp(rng.normal(mean, sigma), kTraceMinDbm, kTraceMaxDbm);
    trace.push_back(static_cast<std::int8_t>(std::lround(v)));
  }
  return trace;
}

CpmNoiseModel::CpmNoiseModel(const std::vector<std::int8_t>& trace,
                             std::size_t history)
    : history_(std::max<std::size_t>(history, 1)) {
  if (trace.size() <= history_) {
    throw std::invalid_argument(
        "CpmNoiseModel: the trace must be longer than the history");
  }
  marginal_ = trace;
  double sum = 0;
  for (std::int8_t v : trace) sum += v;
  marginal_mean_ = sum / static_cast<double>(trace.size());
  for (int v = -128; v <= 127; ++v) {
    mw_of_reading_[static_cast<std::uint8_t>(v)] = dbm_to_mw(v);
  }

  const auto window_hash = [&](std::size_t i) {
    return pattern_hash({trace.data() + (i - history_), history_});
  };
  // Count pass: find or insert each pattern's bucket and count successors.
  buckets_.resize(16);
  std::size_t patterns = 0;
  for (std::size_t i = history_; i < trace.size(); ++i) {
    const std::uint64_t hash = window_hash(i);
    std::size_t b = probe(hash);
    if (buckets_[b].count == 0) {
      if (2 * (patterns + 1) > buckets_.size()) {
        grow();
        b = probe(hash);
      }
      buckets_[b].hash = hash;
      ++patterns;
    }
    ++buckets_[b].count;
  }
  // Lay the bags out back to back, then fill each in trace order. The fill
  // pass advances `offset` as its cursor, because a zeroed count would read
  // as an empty bucket and cut the probe chains short.
  std::uint32_t offset = 0;
  for (Bucket& b : buckets_) {
    b.offset = offset;
    offset += b.count;
  }
  successors_.resize(offset);
  for (std::size_t i = history_; i < trace.size(); ++i) {
    successors_[buckets_[probe(window_hash(i))].offset++] = trace[i];
  }
  for (Bucket& b : buckets_) b.offset -= b.count;
}

std::size_t CpmNoiseModel::probe(std::uint64_t hash) const noexcept {
  // Fibonacci hashing spreads FNV's weak low bits over the whole table.
  const std::size_t mask = buckets_.size() - 1;
  std::size_t i = static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >>
                                           std::countl_zero(mask));
  while (buckets_[i].count != 0 && buckets_[i].hash != hash) {
    i = (i + 1) & mask;
  }
  return i;
}

void CpmNoiseModel::grow() {
  std::vector<Bucket> old(buckets_.size() * 2);
  old.swap(buckets_);
  for (const Bucket& b : old) {
    if (b.count != 0) buckets_[probe(b.hash)] = b;
  }
}

std::uint64_t CpmNoiseModel::pattern_hash(
    std::span<const std::int8_t> recent) noexcept {
  // FNV-1a over the quantized readings; collisions merely merge similar
  // conditional distributions, which CPM tolerates by construction.
  std::uint64_t h = 1469598103934665603ULL;
  for (std::int8_t v : recent) {
    h ^= static_cast<std::uint8_t>(v);
    h *= 1099511628211ULL;
  }
  return h;
}

std::int8_t CpmNoiseModel::sample_next(std::span<const std::int8_t> recent,
                                       Pcg32& rng) const {
  const Bucket& b = buckets_[probe(pattern_hash(recent))];
  if (b.count == 0) return sample_marginal(rng);
  return successors_[b.offset + rng.uniform(b.count)];
}

std::int8_t CpmNoiseModel::sample_marginal(Pcg32& rng) const {
  return marginal_[rng.uniform(static_cast<std::uint32_t>(marginal_.size()))];
}

CpmNoiseModel::Generator::Generator(const CpmNoiseModel& model,
                                    std::uint64_t seed, std::uint64_t stream)
    : model_(&model), rng_(seed, stream), recent_(model.history()) {}

void CpmNoiseModel::Generator::advance_one() {
  const std::int8_t next = model_->sample_next(recent_, rng_);
  std::rotate(recent_.begin(), recent_.begin() + 1, recent_.end());
  recent_.back() = next;
  current_ = next;
}

std::int8_t CpmNoiseModel::Generator::reading_at(SimTime t) {
  const SimTime target_step = t / kStep;
  if (!primed_) {
    // Seed the history from the marginal so the first readings are plausible.
    for (auto& r : recent_) r = model_->sample_marginal(rng_);
    current_ = recent_.back();
    current_step_ = target_step;
    primed_ = true;
    return current_;
  }
  if (target_step <= current_step_) return current_;
  SimTime gap = target_step - current_step_;
  if (gap > kMaxCatchUpSteps) {
    // Far-apart queries are decorrelated anyway: restart from the marginal
    // rather than walking the chain for an unbounded number of steps.
    for (auto& r : recent_) r = model_->sample_marginal(rng_);
    gap = 1;
  }
  for (SimTime i = 0; i < gap; ++i) advance_one();
  current_step_ = target_step;
  return current_;
}

}  // namespace telea
