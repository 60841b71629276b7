// telea_sim — the general-purpose scenario runner: build any supported
// topology, pick the control protocol and channel, run the paper's workload
// and print (or CSV-export) the full metric set. Everything is a key=value
// option, so downstream users can run experiments without writing C++:
//
//   $ ./telea_sim topology=indoor protocol=retele wifi=true minutes=60
//   $ ./telea_sim config=myrun.cfg seed=7
//   $ ./telea_sim topology=random nodes=80 side=150 protocol=rpl
//
// Options (defaults in parentheses):
//   config=FILE         load options from FILE first (CLI overrides)
//   topology=indoor     indoor | tight | sparse | random | line  (indoor)
//   nodes=N             random/line node count (40)
//   side=M              random field side in meters (120)
//   spacing=M           line spacing in meters (22)
//   protocol=retele     tele | retele | drip | rpl | orpl  (retele)
//   wifi=false          bursty interferer on the channel (false)
//   seed=1              RNG seed (1)
//   runs=1              replicate trials; each gets a splitmix64-derived
//                       seed, trials run concurrently on the trial runner,
//                       printed metrics merge all runs, and every file sink
//                       below gets a ".trialN" suffix so no two trials share
//                       a stream (docs/PARALLELISM.md)
//   jobs=0              worker threads for the trial runner (0 = TELEA_JOBS
//                       env, then hardware concurrency)
//   warmup=20           warm-up minutes (20)
//   minutes=40          measurement minutes (40)
//   interval=60         control-packet interval seconds (60)
//   ipi=600             data-collection inter-packet interval seconds (600)
//   csv=DIR             write metric CSVs into DIR
//   dot=FILE            write a GraphViz snapshot of the converged network
//   trace=FILE          export the decision trace as JSONL to FILE
//                       (feed it to telea_explain to reconstruct packets)
//   metrics=DIR         write metrics.prom + metrics.json into DIR
//   report=DIR          span report: write report_sim.json (per-command
//                       latency/energy decomposition) + trace.perfetto.json
//                       into DIR (implies tracing; see docs/OBSERVABILITY.md)
//   profile=false       collect + print simulator self-profiling stats
//   invariants=false    runtime protocol invariant checkpoints; prints a
//                       summary and exits 3 on any violation (rule catalog:
//                       docs/STATIC_ANALYSIS.md)
//   failfast=false      with invariants=true: abort at the first violation
//   health=off          in-band health telemetry: on = piggyback reports and
//                       build the sink model; FILE = additionally write one
//                       snapshot JSON line per period to FILE (telea_top
//                       renders it; see docs/OBSERVABILITY.md)
//   flightrec=off       per-node flight recorders: on = arm the rings and
//                       dump on invariant violation / command give-up /
//                       reboot / alert; FILE = additionally stream each dump
//                       as a JSONL line to FILE
//   timeline=off        metric time-series sampling: on = sample the full
//                       metric set every `sample` seconds into bounded
//                       series; FILE = additionally stream
//                       every sample and alert transition as JSONL to FILE
//                       (telea_timeline renders/diffs it; telea_top takes it
//                       as a sparkline feed; see docs/OBSERVABILITY.md)
//   rules=FILE          alert rules evaluated each timeline sample (grammar
//                       in docs/OBSERVABILITY.md; implies timeline=on);
//                       a malformed rules file exits 2
//   sample=10           timeline sampling cadence in seconds (10)
//   log=warn            trace | debug | info | warn | error | off
//
// Fault injection (all applied after warm-up, see docs/ROBUSTNESS.md):
//   churn=N             N randomized node outages during measurement (0)
//   downtime=S          per-outage downtime seconds (120)
//   noise=DBM           one mid-run noise burst at DBM on a random node (off)
//   reboot=NODE         state-loss reboot of NODE at mid-run (off)

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "harness/artifacts.hpp"
#include "harness/experiment.hpp"
#include "harness/faults.hpp"
#include "harness/runner.hpp"
#include "harness/topology_export.hpp"
#include "util/rng.hpp"
#include "stats/table.hpp"
#include "topo/topology.hpp"
#include "util/config.hpp"
#include "util/logging.hpp"
#include "util/text_file.hpp"

using namespace telea;
using namespace telea::time_literals;

namespace {

std::optional<LogLevel> parse_log_level(const std::string& name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return std::nullopt;
}

std::optional<ControlProtocol> parse_protocol(const std::string& name) {
  if (name == "tele") return ControlProtocol::kTele;
  if (name == "retele") return ControlProtocol::kReTele;
  if (name == "drip") return ControlProtocol::kDrip;
  if (name == "rpl") return ControlProtocol::kRpl;
  if (name == "orpl") return ControlProtocol::kOrpl;
  return std::nullopt;
}

std::optional<Topology> parse_topology(const Config& cfg, std::uint64_t seed) {
  const std::string name = cfg.get_string("topology", "indoor");
  if (name == "indoor") return make_indoor_testbed(seed);
  if (name == "tight") return make_tight_grid(seed);
  if (name == "sparse") return make_sparse_linear(seed);
  if (name == "random") {
    return make_connected_random(
        static_cast<std::size_t>(cfg.get_int("nodes", 40)),
        cfg.get_double("side", 120.0), seed);
  }
  if (name == "line") {
    return make_line(static_cast<std::size_t>(cfg.get_int("nodes", 40)),
                     cfg.get_double("spacing", 22.0));
  }
  return std::nullopt;
}

// health= / flightrec= take "on" (feature only) or a path (feature + file
// export). "off"/"false"/"0"/"" keep the feature disabled.
bool opt_enabled(const std::string& v) {
  return !v.empty() && v != "off" && v != "false" && v != "0";
}
bool opt_is_bare_on(const std::string& v) {
  return v == "on" || v == "true" || v == "1";
}

void print_grouped(const char* title, const GroupedStats& g, bool pct,
                   const std::string& csv_dir, const std::string& csv_name) {
  TextTable table({"hop count", "samples", "value"});
  for (const auto& [hop, stats] : g.groups()) {
    table.row({std::to_string(hop), std::to_string(stats.count()),
               pct ? TextTable::fmt_pct(stats.mean(), 1)
                   : TextTable::fmt(stats.mean(), 2)});
  }
  std::printf("\n%s\n", title);
  table.print();
  if (!csv_dir.empty()) {
    // Created here as metrics= creates its directory: a missing DIR must
    // not lose the tables silently.
    const std::string path = csv_dir + "/" + csv_name + ".csv";
    std::error_code ec;
    std::filesystem::create_directories(csv_dir, ec);
    if (ec || !table.write_csv(path)) {
      TELEA_WARN("telea_sim") << "could not write " << path;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc - 1, argv + 1);
  if (cfg.has("config")) {
    const auto file = Config::from_file(cfg.get_string("config"));
    if (!file.has_value()) {
      std::fprintf(stderr, "error: cannot read config file\n");
      return 2;
    }
    Config merged = *file;
    merged.merge(cfg);  // CLI wins
    cfg = merged;
    (void)cfg.get_string("config");  // consumed above, not an unknown option
  }

  const auto log_level = parse_log_level(cfg.get_string("log", "warn"));
  if (!log_level.has_value()) {
    std::fprintf(stderr,
                 "error: unknown log level (trace|debug|info|warn|error|off)\n");
    return 2;
  }
  Logger::set_level(*log_level);

  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  const auto runs = static_cast<unsigned>(cfg.get_int("runs", 1));
  const auto jobs = static_cast<unsigned>(cfg.get_int("jobs", 0));
  if (runs == 0) {
    std::fprintf(stderr, "error: runs must be >= 1\n");
    return 2;
  }
  const auto protocol = parse_protocol(cfg.get_string("protocol", "retele"));
  if (!protocol.has_value()) {
    std::fprintf(stderr, "error: unknown protocol (tele|retele|drip|rpl|orpl)\n");
    return 2;
  }
  const auto topology = parse_topology(cfg, seed);
  if (!topology.has_value()) {
    std::fprintf(stderr,
                 "error: unknown topology (indoor|tight|sparse|random|line)\n");
    return 2;
  }
  // nodes/side/spacing are read only by some topologies; touch them so a
  // valid-but-inapplicable key doesn't trip the unknown-option check below.
  (void)cfg.get_int("nodes", 40);
  (void)cfg.get_double("side", 120.0);
  (void)cfg.get_double("spacing", 22.0);

  ControlExperimentConfig experiment;
  experiment.network.topology = *topology;
  experiment.network.seed = seed;
  experiment.network.protocol = *protocol;
  experiment.network.wifi_interference = cfg.get_bool("wifi", false);
  experiment.warmup =
      static_cast<SimTime>(cfg.get_int("warmup", 20)) * kMinute;
  experiment.duration =
      static_cast<SimTime>(cfg.get_int("minutes", 40)) * kMinute;
  experiment.control_interval =
      static_cast<SimTime>(cfg.get_int("interval", 60)) * kSecond;
  experiment.data_ipi = static_cast<SimTime>(cfg.get_int("ipi", 600)) * kSecond;
  const std::string csv_dir = cfg.get_string("csv");
  const std::string dot_path = cfg.get_string("dot");
  const std::string trace_path = cfg.get_string("trace");
  const std::string metrics_dir = cfg.get_string("metrics");
  const std::string report_dir = cfg.get_string("report");
  const bool profile = cfg.get_bool("profile", false);
  const bool invariants = cfg.get_bool("invariants", false);
  const bool failfast = cfg.get_bool("failfast", false);
  const std::string health_opt = cfg.get_string("health");
  const std::string flightrec_opt = cfg.get_string("flightrec");
  const std::string timeline_opt = cfg.get_string("timeline");
  const std::string rules_path = cfg.get_string("rules");
  const auto sample_s = static_cast<SimTime>(cfg.get_int("sample", 10));
  std::vector<AlertRule> alert_rules;
  if (!rules_path.empty()) {
    std::vector<AlertParseError> errors;
    const auto rules = load_alert_rules(rules_path, &errors);
    if (!rules.has_value()) {
      for (const auto& e : errors) {
        std::fprintf(stderr, "error: %s:%zu: %s\n", rules_path.c_str(), e.line,
                     e.message.c_str());
      }
      return 2;
    }
    alert_rules = *rules;
  }
  const bool timeline_on = opt_enabled(timeline_opt) || !rules_path.empty();
  const auto churn = static_cast<std::size_t>(cfg.get_int("churn", 0));
  const auto downtime =
      static_cast<SimTime>(cfg.get_int("downtime", 120)) * kSecond;
  const double noise_dbm = cfg.get_double("noise", 1.0);  // >0 dBm = off
  const int reboot_node = static_cast<int>(cfg.get_int("reboot", -1));
  const SimTime duration = experiment.duration;

  // Per-trial callback installation. When runs > 1, every file sink below is
  // ".trialN"-suffixed so concurrent trials never share a stream — the
  // ArtifactRegistry turns a violation of that rule into exit 2.
  const auto invariant_violations =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  const auto configure_trial = [&](ControlExperimentConfig& trial, unsigned t,
                                   std::uint64_t trial_seed) {
    const auto sfx = [&](const std::string& path) {
      return runs > 1 && !path.empty() ? trial_artifact_path(path, t) : path;
    };
    const std::string dot_t = sfx(dot_path);
    const std::string trace_t = sfx(trace_path);
    const std::string metrics_t = sfx(metrics_dir);
    const std::string report_t = sfx(report_dir);
    const bool health_on = opt_enabled(health_opt);
    const std::string health_file = health_on && !opt_is_bare_on(health_opt)
                                        ? sfx(health_opt)
                                        : std::string();
    const bool flight_on = opt_enabled(flightrec_opt);
    const std::string flight_file = flight_on && !opt_is_bare_on(flightrec_opt)
                                        ? sfx(flightrec_opt)
                                        : std::string();
    const std::string timeline_file =
        opt_enabled(timeline_opt) && !opt_is_bare_on(timeline_opt)
            ? sfx(timeline_opt)
            : std::string();

    trial.on_warmed_up = [dot_t, trace_t, report_t, profile, invariants,
                          failfast, health_on, health_file, flight_on,
                          flight_file, timeline_on, timeline_file, alert_rules,
                          sample_s, churn, downtime, noise_dbm, reboot_node,
                          duration, trial_seed](Network& net) {
      if (!dot_t.empty() && !write_topology_dot(net, dot_t)) {
        TELEA_WARN("telea_sim") << "could not write " << dot_t;
      }
      if (!trace_t.empty() || !report_t.empty()) net.enable_tracing();
      if (profile) net.sim().set_profiling(true);
      if (invariants) {
        InvariantConfig icfg;
        icfg.fail_fast = failfast;
        net.enable_invariants(icfg);
      }
      if (health_on) {
        NetworkHealthConfig hcfg;
        hcfg.snapshot_jsonl = health_file;
        net.enable_health(hcfg);
      }
      if (flight_on) net.enable_flight_recorders(flight_file);
      if (timeline_on) {
        NetworkTimelineConfig tcfg;
        tcfg.timeline.interval =
            sample_s > 0 ? sample_s * kSecond : 10 * kSecond;
        tcfg.rules = alert_rules;
        tcfg.jsonl = timeline_file;
        net.enable_timeline(tcfg);
      }

      // Fault plan over the measurement window (docs/ROBUSTNESS.md).
      const SimTime t0 = net.sim().now();
      FaultPlan plan;
      if (churn > 0 && duration > 2 * downtime) {
        // random_churn takes an absolute end time; leave one downtime of
        // slack so the last outage's revive still lands inside the
        // measurement.
        plan = FaultPlan::random_churn(net.size(), churn, t0 + kMinute,
                                       t0 + duration - downtime, downtime,
                                       trial_seed ^ 0x51Cull);
      }
      if (noise_dbm <= 0.0) {
        Pcg32 rng(trial_seed, 0x4011ull);
        const NodeId victim =
            static_cast<NodeId>(1 + rng.uniform(
                static_cast<std::uint32_t>(net.size() - 1)));
        plan.noise_burst(t0 + duration / 2, 2 * kMinute, {victim}, noise_dbm);
        std::printf("fault: noise burst at %.1f dBm on node %u mid-run\n",
                    noise_dbm, victim);
      }
      if (reboot_node >= 0 &&
          static_cast<std::size_t>(reboot_node) < net.size()) {
        plan.reboot_with_state_loss_at(t0 + duration / 3,
                                       static_cast<NodeId>(reboot_node));
        std::printf("fault: state-loss reboot of node %d at t+%.0f s\n",
                    reboot_node, to_seconds(duration / 3));
      }
      if (!plan.events().empty()) {
        std::printf("fault plan: %zu scheduled events\n",
                    plan.events().size());
        plan.apply(net);
      }
    };
    trial.on_finished = [trace_t, metrics_t, report_t, profile, flight_file,
                         timeline_file, invariant_violations](Network& net) {
      if (TimelineEngine* tl = net.timeline()) {
        tl->sample_now();  // close the run with a final boundary sample
        std::printf("timeline: %llu samples, %zu series, alerts fired %llu / "
                    "resolved %llu%s%s\n",
                    static_cast<unsigned long long>(tl->samples_taken()),
                    tl->series_count(),
                    static_cast<unsigned long long>(tl->alerts_fired_total()),
                    static_cast<unsigned long long>(
                        tl->alerts_resolved_total()),
                    timeline_file.empty() ? "" : " -> ",
                    timeline_file.c_str());
        for (const AlertState& a : tl->alerts()) {
          if (a.fired == 0) continue;
          std::printf("  alert %s: fired %llu, resolved %llu, last at "
                      "t+%.0f s (%s)\n",
                      a.rule.name.c_str(),
                      static_cast<unsigned long long>(a.fired),
                      static_cast<unsigned long long>(a.resolved),
                      to_seconds(a.last_fired),
                      a.active ? "still active" : "clear");
        }
      }
      if (NetworkHealthModel* health = net.health()) {
        const SimTime now = net.sim().now();
        std::printf("health: coverage %s (%zu/%zu fresh), %llu reports, "
                    "%llu bytes in-band, %llu stale-dropped\n",
                    TextTable::fmt_pct(health->coverage(now), 1).c_str(),
                    health->tracked() - health->stale_nodes(now).size(),
                    health->expected_nodes(),
                    static_cast<unsigned long long>(health->stats().reports),
                    static_cast<unsigned long long>(health->stats().bytes),
                    static_cast<unsigned long long>(
                        health->stats().stale_dropped));
        if (!net.health_config().snapshot_jsonl.empty()) {
          if (net.append_health_snapshot()) {
            std::printf("health: snapshots -> %s\n",
                        net.health_config().snapshot_jsonl.c_str());
          } else {
            TELEA_WARN("telea_sim")
                << "could not write " << net.health_config().snapshot_jsonl;
          }
        }
      }
      if (net.flight_recorders_enabled()) {
        std::printf("flightrec: %zu dump(s) captured%s%s\n",
                    net.flight_dumps().size(),
                    flight_file.empty() ? "" : " -> ", flight_file.c_str());
      }
      if (InvariantEngine* inv = net.invariants()) {
        inv->final_audit();
        invariant_violations->fetch_add(inv->violations().size(),
                                        std::memory_order_relaxed);
        std::printf("invariants: %llu checkpoints, %llu claims audited, "
                    "%zu violations\n",
                    static_cast<unsigned long long>(inv->checkpoints_run()),
                    static_cast<unsigned long long>(inv->claims_audited()),
                    inv->violations().size());
        if (!inv->violations().empty()) {
          std::printf("%s", inv->render_report().c_str());
        }
      }
      if (!trace_t.empty()) {
        if (net.tracer()->write_jsonl(trace_t)) {
          std::printf("trace: %zu records -> %s (%llu dropped)\n",
                      net.tracer()->size(), trace_t.c_str(),
                      static_cast<unsigned long long>(net.tracer()->dropped()));
        } else {
          TELEA_WARN("telea_sim") << "could not write " << trace_t;
        }
      }
      if (!metrics_t.empty()) {
        MetricsRegistry registry;
        net.collect_metrics(registry);
        std::error_code ec;
        std::filesystem::create_directories(metrics_t, ec);
        const std::string prom = metrics_t + "/metrics.prom";
        const std::string json = metrics_t + "/metrics.json";
        if (ec || !registry.write_prometheus(prom) ||
            !registry.write_json(json)) {
          TELEA_WARN("telea_sim") << "could not write metrics into "
                                  << metrics_t;
        } else {
          std::printf("metrics: %zu instruments -> %s, %s\n", registry.size(),
                      prom.c_str(), json.c_str());
        }
      }
      if (!report_t.empty()) {
        const std::vector<CommandSpan> spans = net.command_spans();
        const SpanEnergyConfig energy = net.span_energy_config();
        std::error_code ec;
        std::filesystem::create_directories(report_t, ec);
        const std::string report_path = report_t + "/report_sim.json";
        const std::string perfetto_path = report_t + "/trace.perfetto.json";
        if (ec ||
            !write_text_file(report_path,
                             render_report_json(spans, energy, "sim")) ||
            !write_text_file(perfetto_path, render_perfetto_json(spans))) {
          TELEA_WARN("telea_sim") << "could not write report into "
                                  << report_t;
        } else {
          std::printf("report: %zu command spans -> %s, %s\n", spans.size(),
                      report_path.c_str(), perfetto_path.c_str());
          const std::size_t failures = count_reconcile_failures(spans);
          if (failures > 0) {
            std::fprintf(stderr,
                         "telea_sim: %zu span(s) failed segment-sum "
                         "reconciliation\n",
                         failures);
          }
        }
      }
      if (profile) {
        std::printf("\nsimulator profile:\n%s",
                    net.sim().profile().render().c_str());
      }
    };
  };

  // A typo'd option silently falling back to its default would run (and
  // report on) the wrong experiment — reject instead.
  const auto unknown = cfg.unused_keys();
  if (!unknown.empty()) {
    for (const auto& key : unknown) {
      std::fprintf(stderr, "error: unknown option '%s'\n", key.c_str());
    }
    std::fprintf(
        stderr,
        "usage: telea_sim [config=FILE] [topology=NAME] [nodes=N] [side=M]\n"
        "                 [spacing=M] [protocol=NAME] [wifi=BOOL] [seed=N]\n"
        "                 [runs=N] [jobs=N]\n"
        "                 [warmup=MIN] [minutes=MIN] [interval=S] [ipi=S]\n"
        "                 [csv=DIR] [dot=FILE] [trace=FILE] [metrics=DIR]\n"
        "                 [report=DIR] [profile=BOOL] [invariants=BOOL]\n"
        "                 [failfast=BOOL] [health=on|FILE] [flightrec=on|FILE]\n"
        "                 [timeline=on|FILE] [rules=FILE] [sample=S]\n"
        "                 [log=LEVEL] [churn=N] [downtime=S]\n"
        "                 [noise=DBM] [reboot=NODE]\n"
        "(see the header of examples/telea_sim.cpp for defaults)\n");
    return 2;
  }

  std::printf("telea_sim: %s, %zu nodes, protocol %s, %s, seed %llu\n",
              topology->name.c_str(), topology->size(),
              protocol_name(*protocol),
              experiment.network.wifi_interference ? "WiFi interference"
                                                   : "clean channel",
              static_cast<unsigned long long>(seed));
  std::printf("warm-up %.0f min, measure %.0f min, control every %.0f s\n",
              to_seconds(experiment.warmup) / 60,
              to_seconds(experiment.duration) / 60,
              to_seconds(experiment.control_interval));

  // Build one config per trial. runs=1 keeps the seed (and output) exactly
  // as before; runs>1 derives per-trial seeds so replicates are independent.
  std::vector<ControlExperimentConfig> trials;
  trials.reserve(runs);
  for (unsigned t = 0; t < runs; ++t) {
    ControlExperimentConfig trial = experiment;
    std::uint64_t trial_seed = seed;
    if (runs > 1) {
      trial_seed = derive_trial_seed(seed, t);
      trial.network.topology = *parse_topology(cfg, trial_seed);
      trial.network.seed = trial_seed;
    }
    configure_trial(trial, t, trial_seed);
    trials.push_back(std::move(trial));
  }

  ControlExperimentResult r;
  try {
    TrialRunner runner(RunnerConfig{jobs, {}});
    const auto results =
        runner.run_indexed(trials.size(), [&trials](std::size_t i) {
          return run_control_experiment(trials[i]);
        });
    r = merge_results(results);
    if (runs > 1) {
      std::printf("\nrunner: %u trial(s) on %u worker(s), %.2f s wall\n", runs,
                  runner.jobs(), runner.last_wall_seconds());
    }
  } catch (const ArtifactConflictError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf("\ncontrol packets: sent %u, delivered %u (PDR %s), "
              "e2e-acked %u\n",
              r.sent, r.delivered, TextTable::fmt_pct(r.pdr(), 1).c_str(),
              r.e2e_acked);
  std::printf("transmissions per control packet: %.2f\n", r.tx_per_control);
  std::printf("radio duty cycle: %s   battery current: %.3f mA\n",
              TextTable::fmt_pct(r.duty_cycle, 2).c_str(), r.current_ma);

  print_grouped("PDR by destination hop count:", r.pdr_by_hop, true, csv_dir,
                "sim_pdr");
  print_grouped("end-to-end delay (s) by hop count:", r.latency_by_hop, false,
                csv_dir, "sim_latency");
  print_grouped("accumulated tx hops by receiver hop count:", r.athx_by_hop,
                false, csv_dir, "sim_athx");
  if (invariant_violations->load(std::memory_order_relaxed) > 0) {
    std::fprintf(stderr, "telea_sim: %llu invariant violations\n",
                 static_cast<unsigned long long>(
                     invariant_violations->load(std::memory_order_relaxed)));
    return 3;
  }
  return 0;
}
