#pragma once

// Shared scaffolding for the experiment-reproduction benchmarks: command-line
// options, the testbed experiment suite (paper Sec. IV-B) and the 225-node
// code-study networks (paper Sec. IV-A).
//
// Every bench binary accepts:
//   --full        paper-scale durations (3 h measurement, 5 runs)
//   --runs N      override the number of runs
//   --minutes M   override the measurement duration
//   --warmup M    override the warm-up duration
//   --seed S      base seed
//   --jobs N      worker threads for independent trials (0 = TELEA_JOBS
//                 env, then hardware concurrency; docs/PARALLELISM.md)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/network.hpp"
#include "harness/runner.hpp"
#include "stats/table.hpp"
#include "topo/topology.hpp"
#include "util/logging.hpp"
#include "util/text_file.hpp"

namespace telea::bench {

struct Options {
  unsigned runs = 2;
  SimTime duration = 40 * kMinute;
  SimTime warmup = 20 * kMinute;
  std::uint64_t seed = 1;
  bool full = false;
  unsigned jobs = 0;  // 0 = resolve_jobs() (TELEA_JOBS, then hardware)
};

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      opt.full = true;
      opt.runs = 5;
      opt.duration = 3 * kHour;
      opt.warmup = 30 * kMinute;
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      opt.runs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--minutes") == 0 && i + 1 < argc) {
      opt.duration =
          static_cast<SimTime>(std::strtoul(argv[++i], nullptr, 10)) * kMinute;
    } else if (std::strcmp(argv[i], "--warmup") == 0 && i + 1 < argc) {
      opt.warmup =
          static_cast<SimTime>(std::strtoul(argv[++i], nullptr, 10)) * kMinute;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opt.jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "options: --full | --runs N | --minutes M | --warmup M | --seed S "
          "| --jobs N\n");
      std::exit(0);
    }
  }
  return opt;
}

/// A batch of independent testbed trials executed on the trial runner: queue
/// one cell per (protocol, channel[, tweak]) combination, then run() every
/// trial of every cell concurrently and get back one merged result per cell
/// in queue order. Per-trial seeds are splitmix64-derived from the base seed
/// and the batch-global trial index, so the merged results are bit-identical
/// whatever --jobs is (docs/PARALLELISM.md — the determinism contract the
/// bench artifacts are tested against).
class TrialBatch {
 public:
  using Tweak = std::function<void(ControlExperimentConfig&)>;

  explicit TrialBatch(const Options& opt) : opt_(opt) {}

  /// Queues `opt.runs` replicate trials of one experiment cell; returns the
  /// cell's index into run()'s result vector.
  std::size_t cell(ControlProtocol protocol, bool wifi,
                   const Tweak& tweak = nullptr) {
    const std::size_t cell_index = cells_;
    for (unsigned r = 0; r < opt_.runs; ++r) {
      const std::uint64_t seed =
          derive_trial_seed(opt_.seed, trial_configs_.size());
      ControlExperimentConfig cfg;
      cfg.network.topology = make_indoor_testbed(seed);
      cfg.network.seed = seed;
      cfg.network.protocol = protocol;
      cfg.network.wifi_interference = wifi;
      cfg.warmup = opt_.warmup;
      cfg.duration = opt_.duration;
      if (tweak) tweak(cfg);
      trial_configs_.push_back(std::move(cfg));
      cell_of_trial_.push_back(cell_index);
    }
    ++cells_;
    return cell_index;
  }

  /// Executes every queued trial across the worker pool and merges each
  /// cell's runs (in submission order — aggregation never depends on
  /// completion order). Accumulates wall-clock for emit_runner_stats.
  std::vector<ControlExperimentResult> run() {
    TrialRunner runner(RunnerConfig{opt_.jobs, {}});
    const auto per_trial = runner.run_indexed(
        trial_configs_.size(), [this](std::size_t i) {
          return run_control_experiment(trial_configs_[i]);
        });
    jobs_used_ = runner.jobs();
    wall_seconds_ += runner.last_wall_seconds();
    trials_run_ += per_trial.size();
    std::vector<std::vector<ControlExperimentResult>> by_cell(cells_);
    for (std::size_t i = 0; i < per_trial.size(); ++i) {
      by_cell[cell_of_trial_[i]].push_back(per_trial[i]);
    }
    std::vector<ControlExperimentResult> merged;
    merged.reserve(cells_);
    for (const auto& runs : by_cell) merged.push_back(merge_results(runs));
    trial_configs_.clear();
    cell_of_trial_.clear();
    cells_ = 0;
    return merged;
  }

  [[nodiscard]] unsigned jobs_used() const noexcept { return jobs_used_; }
  [[nodiscard]] std::uint64_t trials_run() const noexcept {
    return trials_run_;
  }
  [[nodiscard]] double wall_seconds() const noexcept { return wall_seconds_; }

 private:
  Options opt_;
  std::vector<ControlExperimentConfig> trial_configs_;
  std::vector<std::size_t> cell_of_trial_;
  std::size_t cells_ = 0;
  unsigned jobs_used_ = 0;
  std::uint64_t trials_run_ = 0;
  double wall_seconds_ = 0.0;
};

/// One (protocol, channel) cell of the paper's testbed evaluation, averaged
/// over `opt.runs` runs on the 40-node indoor topology. Runs its replicates
/// concurrently; multi-cell benches should queue every cell into one
/// TrialBatch instead, so the whole sweep shares the pool.
inline ControlExperimentResult run_testbed(ControlProtocol protocol, bool wifi,
                                           const Options& opt) {
  TrialBatch batch(opt);
  batch.cell(protocol, wifi);
  return batch.run().front();
}

inline const char* channel_name(bool wifi) {
  // Paper: ZigBee channel 26 is clean, channel 19 overlaps WiFi.
  return wifi ? "ch19 (WiFi)" : "ch26 (clean)";
}

/// Prints the table and writes a machine-readable JSON summary to
/// $TELEA_RESULTS_DIR/<name>.json (default bench_results/). When
/// TELEA_CSV_DIR is set, also writes $TELEA_CSV_DIR/<name>.csv — plot-ready
/// artifacts next to the console rendering.
inline void emit_table(const TextTable& table, const std::string& name) {
  table.print();
  if (const char* dir = std::getenv("TELEA_CSV_DIR")) {
    const std::string path = std::string(dir) + "/" + name + ".csv";
    if (!table.write_csv(path)) {
      TELEA_WARN("bench") << "could not write " << path;
    }
  }
  const char* results_env = std::getenv("TELEA_RESULTS_DIR");
  const std::string results_dir =
      results_env != nullptr ? results_env : "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(results_dir, ec);
  const std::string json_path = results_dir + "/" + name + ".json";
  if (ec || !table.write_json(name, json_path)) {
    TELEA_WARN("bench") << "could not write " << json_path;
  }
}

/// Writes $TELEA_RESULTS_DIR/<name>.runner.json describing how the bench's
/// trials were executed (worker count, trial count, wall-clock). Kept as a
/// separate sidecar on purpose: the result tables emitted by emit_table are
/// byte-identical across --jobs settings, and this is the one artifact that
/// legitimately varies run to run, so determinism checks compare everything
/// *except* `*.runner.json`.
inline void emit_runner_stats(const TrialBatch& batch,
                              const std::string& name) {
  const char* results_env = std::getenv("TELEA_RESULTS_DIR");
  const std::string results_dir =
      results_env != nullptr ? results_env : "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(results_dir, ec);
  const std::string path = results_dir + "/" + name + ".runner.json";
  std::ostringstream body;
  body << "{\"bench\": \"" << name << "\", \"jobs\": " << batch.jobs_used()
       << ", \"trials\": " << batch.trials_run()
       << ", \"wall_seconds\": " << batch.wall_seconds() << "}\n";
  if (ec || !write_text_file(path, body.str())) {
    TELEA_WARN("bench") << "could not write " << path;
    return;
  }
  std::printf("[runner] jobs=%u trials=%llu wall=%.2fs\n", batch.jobs_used(),
              static_cast<unsigned long long>(batch.trials_run()),
              batch.wall_seconds());
}

/// Builds and converges one of the paper's code-study fields (Sec. IV-A) far
/// enough that path codes are in place: 15 simulated minutes, 30 at --full.
inline std::unique_ptr<Network> converge_code_study(const Topology& topo,
                                                    std::uint64_t seed,
                                                    const Options& opt) {
  NetworkConfig cfg;
  cfg.topology = topo;
  cfg.seed = seed;
  cfg.protocol = ControlProtocol::kReTele;
  auto net = std::make_unique<Network>(cfg);
  net->start();
  net->run_for(opt.full ? 30 * kMinute : 15 * kMinute);
  return net;
}

}  // namespace telea::bench
