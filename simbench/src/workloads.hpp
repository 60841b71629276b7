#pragma once

// The benchmark's workloads. Each one is a fixed piece of simulated work
// derived from the run's seed; main.cpp repeats it for the
// measured time and checks that every repetition produced the same
// simulated outputs.

#include <cstdint>
#include <string>

#include "probe.hpp"

namespace simbench {

/// Outcome of one repetition of a workload.
struct Iteration {
  bool correct = true;
  std::string error;  // first reason `correct` is false
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;  // host seconds
  double sim_s = 0.0;   // simulated seconds it advanced, over all networks
  Digest digest;        // over the simulated outputs only
  MetricMap modelled;   // simulated outcomes (exact at a fixed seed)
  LayerMap layers;      // traced repetitions only

  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

struct RunOptions {
  /// Test hook (churn_soak only): corrupt one node's path code after
  /// warm-up, which the invariant engine must catch.
  bool corrupt_path_code = false;
};

struct Workload {
  const char* name;
  /// One timed set-up of the workload's networks (topology, gain table,
  /// noise model, Network construction, start), in host seconds.
  double (*setup)(std::uint64_t seed);
  /// One repetition through the simulator's own entry points.
  Iteration (*run)(std::uint64_t seed, const RunOptions& options);
  /// The same simulated work with the dispatch loop profiled and spans
  /// recorded around every call into the simulator.
  Iteration (*run_traced)(std::uint64_t seed, SpanRecorder& spans,
                          const RunOptions& options);
};

extern const Workload kFig7Sweep;
extern const Workload kConverge225;
extern const Workload kChurnSoak;

}  // namespace simbench
