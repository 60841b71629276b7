// The determinism regression suite for the trial runner
// (docs/PARALLELISM.md): the same trial set must produce byte-identical
// serialized results at jobs=1, jobs=4, and oversubscribed, and under a
// shuffled work queue (the dispatch_order hook) — proving aggregation never
// depends on completion order. Plus the seed-sweep smoke (32 one-minute
// trials across 8 workers with unique derived seeds) and the artifact-path
// collision contract (two live trials must not share a sink).
#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "harness/artifacts.hpp"
#include "harness/experiment.hpp"
#include "harness/network.hpp"
#include "stats/table.hpp"
#include "topo/topology.hpp"
#include "util/text_file.hpp"

namespace telea {
namespace {

using namespace time_literals;

TEST(SeedDerivation, UniqueAcrossTrialIndices) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(seen.insert(derive_trial_seed(1, i)).second) << i;
  }
  // Different base seeds give different streams.
  EXPECT_NE(derive_trial_seed(1, 0), derive_trial_seed(2, 0));
  // The derivation is a pure function — same inputs, same seed.
  EXPECT_EQ(derive_trial_seed(42, 7), derive_trial_seed(42, 7));
}

TEST(SeedDerivation, MixerIsNotIdentity) {
  // A trial must never accidentally run on the raw base seed (that would
  // correlate trial 0 of every sweep with the single-run configuration).
  for (std::uint64_t base : {0ull, 1ull, 42ull, ~0ull}) {
    EXPECT_NE(derive_trial_seed(base, 0), base);
  }
}

TEST(ResolveJobs, ExplicitThenEnvThenHardware) {
  ::setenv("TELEA_JOBS", "3", 1);
  EXPECT_EQ(resolve_jobs(5), 5u);  // explicit wins
  EXPECT_EQ(resolve_jobs(0), 3u);  // env next
  ::setenv("TELEA_JOBS", "0", 1);
  EXPECT_GE(resolve_jobs(0), 1u);  // non-positive env falls through
  ::setenv("TELEA_JOBS", "junk", 1);
  EXPECT_GE(resolve_jobs(0), 1u);
  ::unsetenv("TELEA_JOBS");
  EXPECT_GE(resolve_jobs(0), 1u);  // hardware concurrency, at least 1
}

TEST(TrialArtifactPath, SuffixesBeforeTheFinalExtension) {
  EXPECT_EQ(trial_artifact_path("out/trace.jsonl", 3), "out/trace.trial3.jsonl");
  EXPECT_EQ(trial_artifact_path("snap.json", 0), "snap.trial0.json");
  EXPECT_EQ(trial_artifact_path("plaindir", 2), "plaindir.trial2");
  // A dot in a directory component is not an extension.
  EXPECT_EQ(trial_artifact_path("v1.0/dump", 1), "v1.0/dump.trial1");
}

TEST(TrialRunner, ResultsIndexedBySubmissionOrderForAnyJobs) {
  const auto square = [](std::size_t i) { return i * i; };
  std::vector<std::size_t> reference;
  for (std::size_t i = 0; i < 40; ++i) reference.push_back(square(i));
  for (unsigned jobs : {1u, 2u, 4u, 8u, 33u}) {  // 33 = oversubscribed
    TrialRunner runner(RunnerConfig{jobs, {}});
    EXPECT_EQ(runner.run_indexed(40, square), reference) << "jobs=" << jobs;
    EXPECT_EQ(runner.last_trials(), 40u);
  }
}

TEST(TrialRunner, ShuffledDispatchOrderDoesNotChangeResults) {
  const auto cube = [](std::size_t i) { return i * i * i + 1; };
  TrialRunner natural(RunnerConfig{4, {}});
  const auto reference = natural.run_indexed(64, cube);

  std::vector<std::size_t> order(64);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::reverse(order.begin(), order.end());
  TrialRunner reversed(RunnerConfig{4, order});
  EXPECT_EQ(reversed.run_indexed(64, cube), reference);

  // Deterministic shuffle (LCG permutation walk) — worst-case interleaving.
  std::vector<std::size_t> shuffled;
  std::size_t x = 17;
  for (std::size_t i = 0; i < 64; ++i) {
    shuffled.push_back(x);
    x = (x + 37) % 64;
  }
  TrialRunner scrambled(RunnerConfig{4, shuffled});
  EXPECT_EQ(scrambled.run_indexed(64, cube), reference);

  // A non-permutation must be ignored, not misdispatch trials.
  TrialRunner bogus(RunnerConfig{4, {0, 0, 1}});
  EXPECT_EQ(bogus.run_indexed(64, cube), reference);
}

TEST(TrialRunner, FirstTrialExceptionPropagates) {
  TrialRunner runner(RunnerConfig{4, {}});
  EXPECT_THROW(runner.run_indexed(16,
                                  [](std::size_t i) -> int {
                                    if (i == 7) {
                                      throw std::runtime_error("trial 7");
                                    }
                                    return static_cast<int>(i);
                                  }),
               std::runtime_error);
}

// --- the fig7-shaped determinism regression --------------------------------

ControlExperimentConfig small_trial(std::uint64_t seed) {
  ControlExperimentConfig cfg;
  cfg.network.topology = make_connected_random(12, 50.0, seed);
  cfg.network.seed = seed;
  cfg.network.protocol = ControlProtocol::kReTele;
  cfg.warmup = 6_min;
  cfg.duration = 8_min;
  cfg.control_interval = 30_s;
  cfg.data_ipi = 2_min;
  cfg.drain = 1_min;
  return cfg;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// Runs a 4-trial PDR-by-hop sweep (the fig7 shape: derived seeds, merged
// result, hop-grouped table) under the given runner config and returns the
// serialized table JSON — the byte-compared artifact.
std::string fig7_shaped_table_bytes(const RunnerConfig& rc,
                                    const std::string& tag) {
  constexpr std::size_t kTrials = 4;
  std::vector<ControlExperimentConfig> trials;
  for (std::size_t t = 0; t < kTrials; ++t) {
    trials.push_back(small_trial(derive_trial_seed(9, t)));
  }
  TrialRunner runner(rc);
  const auto results =
      runner.run_indexed(kTrials, [&trials](std::size_t i) {
        return run_control_experiment(trials[i]);
      });
  const ControlExperimentResult merged = merge_results(results);
  TextTable table({"hop count", "pdr", "samples"});
  for (const auto& [hop, stats] : merged.pdr_by_hop.groups()) {
    table.row({std::to_string(hop), TextTable::fmt_pct(stats.mean(), 3),
               std::to_string(stats.count())});
  }
  const std::string path = "runner_fig7_" + tag + ".json";
  EXPECT_TRUE(table.write_json("runner_fig7", path));
  return read_file(path);
}

TEST(TrialRunnerDeterminism, Fig7ShapedTableByteIdenticalAcrossJobs) {
  const std::string at1 = fig7_shaped_table_bytes(RunnerConfig{1, {}}, "j1");
  const std::string at4 = fig7_shaped_table_bytes(RunnerConfig{4, {}}, "j4");
  ASSERT_FALSE(at1.empty());
  EXPECT_EQ(at1, at4) << "results depend on worker count";

  // Shuffled work queue: trials complete in a scrambled order, the
  // serialized table must not move a byte.
  const std::string scrambled =
      fig7_shaped_table_bytes(RunnerConfig{4, {2, 0, 3, 1}}, "shuffled");
  EXPECT_EQ(at1, scrambled) << "results depend on dispatch order";
}

// --- the seed-sweep smoke ---------------------------------------------------

TEST(TrialRunnerSeedSweep, ThirtyTwoTrialsAcrossEightWorkers) {
  constexpr std::size_t kTrials = 32;
  struct TrialOut {
    std::uint64_t seed = 0;
    std::uint64_t events = 0;
  };
  std::atomic<std::uint64_t> live_total{0};
  TrialRunner runner(RunnerConfig{8, {}});
  const auto results = runner.run_indexed(kTrials, [&](std::size_t i) {
    const std::uint64_t seed = derive_trial_seed(1234, i);
    NetworkConfig cfg;
    cfg.topology = make_connected_random(8, 60.0, seed);
    cfg.seed = seed;
    cfg.protocol = ControlProtocol::kReTele;
    Network net(cfg);
    net.start();
    const std::uint64_t events =
        net.sim().run_until(net.sim().now() + 1 * kMinute);
    live_total.fetch_add(events, std::memory_order_relaxed);
    return TrialOut{seed, events};
  });

  ASSERT_EQ(results.size(), kTrials);
  EXPECT_EQ(runner.jobs(), 8u);
  EXPECT_EQ(runner.last_trials(), kTrials);

  // Every derived seed is unique and every trial completed (a one-minute
  // run of a booted network always dispatches events).
  std::set<std::uint64_t> seeds;
  std::uint64_t sum = 0;
  for (const TrialOut& r : results) {
    EXPECT_TRUE(seeds.insert(r.seed).second) << "duplicate seed " << r.seed;
    EXPECT_GT(r.events, 0u);
    sum += r.events;
  }
  EXPECT_EQ(seeds.size(), kTrials);
  // Aggregate counter == sum of per-trial counters: nothing was dropped or
  // double-counted on the way through the pool.
  EXPECT_EQ(sum, live_total.load());
}

// --- artifact-path collisions ----------------------------------------------

/// A stream path in the system's temporary directory, so the tests that
/// open a stream leave nothing in the working directory.
std::string temp_artifact(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(ArtifactRegistry, ClaimReleaseCycle) {
  auto& reg = ArtifactRegistry::instance();
  const std::string path = temp_artifact("telea_runner_test_claim.jsonl");
  reg.claim(path);
  EXPECT_TRUE(reg.claimed(path));
  EXPECT_THROW(reg.claim(path), ArtifactConflictError);
  reg.release(path);
  EXPECT_FALSE(reg.claimed(path));
  reg.claim(path);  // reusable after release
  reg.release(path);
  reg.claim("");  // empty paths are ignored, never conflict
  reg.claim("");
}

NetworkConfig tiny_net(std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.topology = make_line(4, 22.0);
  cfg.seed = seed;
  cfg.protocol = ControlProtocol::kReTele;
  return cfg;
}

TEST(ArtifactRegistry, NetworkRejectsTimelineSinkOfALiveTrial) {
  const std::string path = temp_artifact("telea_runner_test_timeline.jsonl");
  NetworkTimelineConfig tcfg;
  tcfg.jsonl = path;

  auto first = std::make_unique<Network>(tiny_net(1));
  first->enable_timeline(tcfg);

  // A second live trial pointed at the same stream must be rejected, not
  // silently interleaved.
  Network second(tiny_net(2));
  EXPECT_THROW(second.enable_timeline(tcfg), ArtifactConflictError);

  // Suffixing is the sanctioned way to run them concurrently...
  NetworkTimelineConfig suffixed;
  suffixed.jsonl = trial_artifact_path(path, 1);
  second.enable_timeline(suffixed);

  // ...and once the first trial is gone, its path is claimable again.
  first.reset();
  Network third(tiny_net(3));
  third.enable_timeline(tcfg);
}

TEST(ArtifactRegistry, NetworkRejectsHealthSinkOfALiveTrial) {
  const std::string path = temp_artifact("telea_runner_test_health.jsonl");
  NetworkHealthConfig hcfg;
  hcfg.snapshot_jsonl = path;

  Network first(tiny_net(1));
  first.enable_health(hcfg);
  Network second(tiny_net(2));
  EXPECT_THROW(second.enable_health(hcfg), ArtifactConflictError);
}

TEST(ArtifactRegistry, NetworkRejectsFlightSinkOfALiveTrial) {
  const std::string path = temp_artifact("telea_runner_test_flight.jsonl");
  Network first(tiny_net(1));
  first.enable_flight_recorders(path);
  Network second(tiny_net(2));
  EXPECT_THROW(second.enable_flight_recorders(path), ArtifactConflictError);
  // The claim comes first: a rejected network stays recorder-off.
  EXPECT_FALSE(second.flight_recorders_enabled());
}

// --- one stream policy -----------------------------------------------------

struct StreamRun {
  std::string health;
  std::string flight;
  std::size_t timeline_lines = 0;
};

/// One short run streaming health snapshots, flight dumps (one state-loss
/// reboot) and timeline samples into `dir`.
StreamRun run_streams(const std::filesystem::path& dir) {
  const std::string health = (dir / "health.jsonl").string();
  const std::string flight = (dir / "flight.jsonl").string();
  const std::string timeline = (dir / "timeline.jsonl").string();
  {
    Network net(tiny_net(7));
    NetworkHealthConfig hcfg;
    hcfg.period = 30_s;
    hcfg.snapshot_jsonl = health;
    net.enable_health(hcfg);
    net.enable_flight_recorders(flight);
    NetworkTimelineConfig tcfg;
    tcfg.timeline.interval = 30_s;
    tcfg.jsonl = timeline;
    net.enable_timeline(tcfg);
    net.start();
    net.run_for(3_min);
    net.node(2).reboot_with_state_loss();
    net.run_for(1_min);
  }
  StreamRun run;
  run.health = read_text_file(health).value_or("");
  run.flight = read_text_file(flight).value_or("");
  const std::string samples = read_text_file(timeline).value_or("");
  run.timeline_lines = static_cast<std::size_t>(
      std::count(samples.begin(), samples.end(), '\n'));
  return run;
}

// Every stream is truncated when its network opens it, so a second run into
// the same paths leaves exactly that run's lines — not the first run's
// followed by the second's.
TEST(ArtifactStreams, SecondRunIntoSamePathsLeavesOnlyItsLines) {
  const auto dir =
      std::filesystem::temp_directory_path() / "telea_runner_test_streams";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const StreamRun first = run_streams(dir);
  EXPECT_EQ(std::count(first.health.begin(), first.health.end(), '\n'), 8);
  EXPECT_EQ(std::count(first.flight.begin(), first.flight.end(), '\n'), 1);
  EXPECT_GT(first.timeline_lines, 8u);

  const StreamRun second = run_streams(dir);
  EXPECT_EQ(second.health, first.health);
  EXPECT_EQ(second.flight, first.flight);
  // Timeline lines carry host wall time, so only their count is stable.
  EXPECT_EQ(second.timeline_lines, first.timeline_lines);
}

// A snapshot asked for at the instant the snapshot timer already wrote one
// (a run that ends on a tick) adds no second, identical line.
TEST(ArtifactStreams, HealthSnapshotOnATimerTickIsWrittenOnce) {
  const std::string path = temp_artifact("telea_runner_test_tick.jsonl");
  const auto lines = [&path] {
    const std::string text = read_text_file(path).value_or("");
    return std::count(text.begin(), text.end(), '\n');
  };
  Network net(tiny_net(5));
  NetworkHealthConfig hcfg;
  hcfg.period = 30_s;
  hcfg.snapshot_jsonl = path;
  net.enable_health(hcfg);
  net.start();
  net.run_for(2_min);  // the timer writes at 30, 60, 90 and 120 s
  ASSERT_EQ(lines(), 4);
  EXPECT_TRUE(net.append_health_snapshot());
  EXPECT_EQ(lines(), 4);

  net.run_for(1_s);  // off the tick: the end-of-run line is new
  EXPECT_TRUE(net.append_health_snapshot());
  EXPECT_EQ(lines(), 5);
}

}  // namespace
}  // namespace telea
