// simbench: host-time benchmark of the TeleAdjusting simulator.
//
//   simbench --workload <fig7_sweep|converge_225|churn_soak> --seed N
//            --seconds S --trace 0|1 [--corrupt-path-code]
//
// Runs the workload's fixed, seed-derived piece of simulated work again and
// again for S host seconds and checks that every repetition produced the
// same simulated outputs. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones from a
// profiled replay (see simbench/README.md). The line before it reports
// sim_digest and the modelled outcomes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace simbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every layer metric; a layer the workload does not
// exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.max_queue_depth", "count"},
    {"sim.self_s", "s"},
    {"mac.lpl_s", "s"},
    {"mac.timer_events", "count"},
    {"mac.send_ops", "count"},
    {"mac.tx_copies", "count"},
    {"mac.copies_per_send", "ratio"},
    {"radio.tx_copies", "count"},
    {"radio.airtime_s", "sim_s"},
    {"untagged.s", "s"},
    {"untagged.events", "count"},
    {"net.beacons", "count"},
    {"net.parent_changes", "count"},
    {"net.requeue_events", "count"},
    {"net.data_drop_ratio", "ratio"},
    {"core.claims", "count"},
    {"core.duplicates_per_claim", "ratio"},
    {"core.backtracks", "count"},
    {"core.origin_retries", "count"},
    {"core.fwd_s", "s"},
    {"proto.drip.wall_s", "s"},
    {"proto.rpl.wall_s", "s"},
    {"proto.tele.wall_s", "s"},
    {"proto.retele.wall_s", "s"},
    {"phase.warmup_s", "s"},
    {"phase.measure_s", "s"},
    {"phase.minute_1_s", "s"},
    {"harness.outside_s", "s"},
    {"setup.topo_s", "s"},
    {"setup.gains_s", "s"},
    {"setup.noise_s", "s"},
    {"setup.network_s", "s"},
    {"setup.start_s", "s"},
    {"obs.collect_metrics_s", "s"},
    {"obs.command_spans_s", "s"},
    {"obs.invariant_views_s", "s"},
    {"obs.invariants.overhead_s", "s"},
    {"obs.spans.overhead_s", "s"},
    {"obs.timeline.overhead_s", "s"},
    {"obs.health.overhead_s", "s"},
    {"check.checkpoints", "count"},
    {"check.claims_audited", "count"},
    {"stats.timeline_wall_fraction", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.accounted_share", "ratio"},
};

// Set-up is a few milliseconds; its median over this many builds is steady.
constexpr int kSetupRepetitions = 9;

const Workload* find_workload(const std::string& name) {
  for (const Workload* w : {&kFig7Sweep, &kConverge225, &kChurnSoak}) {
    if (name == w->name) return w;
  }
  return nullptr;
}

/// JSON number: finite values with full precision, anything else as 0.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string metrics_json(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           num(metric.value) + ", \"unit\": " + json_string(metric.unit) + "}";
    first = false;
  }
  return out + "}";
}

/// Peak resident set of this process image (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload "
               "<fig7_sweep|converge_225|churn_soak> --seed N --seconds S "
               "--trace 0|1 [--corrupt-path-code]\n",
               why);
  return 2;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  RunOptions options;
};

int run(const Args& args, const Workload& workload) {
  SpanRecorder spans(args.trace);
  std::vector<double> setups;
  std::vector<Iteration> plain, traced;
  std::string error;
  try {
    for (int i = 0; i < kSetupRepetitions; ++i) {
      setups.push_back(workload.setup(args.seed));
    }
    // Repeat the same work for the measured time; a traced run alternates
    // plain and traced repetitions so their difference is the overhead.
    const double start = now_s();
    do {
      plain.push_back(workload.run(args.seed, args.options));
      if (args.trace) {
        traced.push_back(workload.run_traced(args.seed, spans, args.options));
      }
    } while (now_s() - start < args.seconds);
  } catch (const std::exception& e) {
    error = std::string("exception: ") + e.what();
  }

  bool correct = error.empty() && !plain.empty();
  const auto check = [&](const Iteration& it, const char* kind) {
    if (!it.correct && error.empty()) error = it.error;
    if (it.digest.value() != plain.front().digest.value() && error.empty()) {
      error = std::string(kind) +
              " repetition produced different simulated outputs";
    }
    correct = correct && it.correct && error.empty();
  };
  for (const Iteration& it : plain) check(it, "plain");
  for (const Iteration& it : traced) check(it, "traced");

  std::vector<double> walls, speeds, traced_walls;
  for (const Iteration& it : plain) {
    walls.push_back(it.wall_s);
    speeds.push_back(it.wall_s > 0.0 ? it.sim_s / it.wall_s : 0.0);
  }
  for (const Iteration& it : traced) traced_walls.push_back(it.wall_s);

  MetricMap metrics;
  if (!args.trace) {
    metrics["wall_s"] = {median(walls), "s"};
    metrics["sim_x_realtime"] = {median(speeds), "sim_s/s"};
    metrics["setup_s"] = {median(setups), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    for (const MetricSpec& s : kPerLayer) {
      std::vector<double> values;
      for (const Iteration& it : traced) {
        const auto found = it.layers.find(s.name);
        values.push_back(found == it.layers.end() ? 0.0 : found->second);
      }
      metrics[s.name] = {median(values), s.unit};
    }
    metrics["trace.overhead_s"].value = median(traced_walls) - median(walls);
    double accounted = metrics["harness.outside_s"].value +
                       metrics["phase.warmup_s"].value +
                       metrics["phase.measure_s"].value;
    for (const char* part : {"setup.topo_s", "setup.gains_s", "setup.noise_s",
                             "setup.network_s", "setup.start_s"}) {
      accounted += metrics[part].value;
    }
    const double traced_wall = median(traced_walls);
    metrics["trace.accounted_share"].value =
        traced_wall > 0.0 ? accounted / traced_wall : 0.0;
    const std::string dir = ".bench_build/simbench-traces";
    const std::string path = dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!spans.write_chrome_json(path)) {
      std::fprintf(stderr, "simbench: could not write %s\n", path.c_str());
    }
  }

  const Iteration* first = plain.empty() ? nullptr : &plain.front();
  const std::uint64_t attempted =
      std::max<std::uint64_t>(1, first != nullptr ? first->attempted : 0);
  const std::uint64_t failed = correct ? first->failed : attempted;

  // Report line: the modelled outcomes, exact at a fixed seed.
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"repetitions\": %zu, "
      "\"traced_repetitions\": %zu, \"sim_digest\": \"%s\", \"error\": %s, "
      "\"modelled\": %s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), plain.size(), traced.size(),
      first != nullptr ? hex(first->digest.value()).c_str() : "",
      json_string(error).c_str(),
      metrics_json(first != nullptr ? first->modelled : MetricMap{}).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  using namespace simbench;
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-path-code") {
      args.options.corrupt_path_code = true;
    } else if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      args.trace = v == "1";
      have_trace = true;
    } else {
      return usage(("unknown or incomplete option " + arg).c_str());
    }
  }
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) return usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  return run(args, *workload);
}
