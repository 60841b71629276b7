// churn_soak: the reliable-controller arm of the 24-node churn soak
// (harness/soak.hpp) under its full fault mix, with invariants, spans,
// timeline and health telemetry all on.
//
// The plain repetition calls run_churn_soak. The traced repetition replays
// the soak step by step through the public API (the steps of
// harness/soak.cpp) so the dispatch loop is profiled from boot and the
// observability calls can be timed; its result must hash to the same digest.
// It then measures each observability subsystem's cost by re-running the
// soak with that subsystem switched off through ChurnSoakConfig.

#include <map>
#include <set>
#include <vector>

#include "harness/controller.hpp"
#include "harness/faults.hpp"
#include "harness/soak.hpp"
#include "stats/spans.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace simbench {

using namespace telea;

namespace {

/// On/off rounds behind each obs.<subsystem>.overhead_s. A round (five
/// soaks) starts only before this many seconds of the process, so a traced
/// run on a slow host still ends well within three minutes.
constexpr int kOverheadRounds = 3;
constexpr double kOverheadDeadlineS = 110.0;

ChurnSoakConfig soak_config(std::uint64_t seed) {
  ChurnSoakConfig cfg;
  cfg.seed = seed;
  cfg.reliable = true;
  cfg.invariants = true;
  cfg.spans = true;
  cfg.health = true;
  cfg.timeline = true;
  return cfg;
}

/// Digest, failures and modelled metrics of one soak result. Left out of
/// the digest: timeline_wall_fraction (host time) and timeline_series
/// (profiling adds the telea_sim_* series the timeline samples).
void account(Iteration& it, const ChurnSoakConfig& cfg,
             const ChurnSoakResult& r) {
  Digest& d = it.digest;
  for (const std::uint64_t v :
       {std::uint64_t{r.commands}, std::uint64_t{r.acked},
        std::uint64_t{r.gave_up}, std::uint64_t{r.no_code},
        std::uint64_t{r.unresolved}, r.retries, r.escalations,
        std::uint64_t{r.faults_injected}, r.invariant_violations,
        r.invariant_checkpoints, r.claims_audited,
        std::uint64_t{r.command_spans}, std::uint64_t{r.span_reconcile_failures},
        std::uint64_t{r.health_tracked}, r.health_reports, r.health_bytes,
        r.timeline_samples, r.alerts_fired,
        r.alerts_resolved, r.counter_resets}) {
    d.add(v);
  }
  d.add(r.tx_per_command);
  d.add(r.health_coverage);

  if (r.invariant_violations > 0) {
    it.fail(std::to_string(r.invariant_violations) + " invariant violations");
  }
  if (r.span_reconcile_failures > 0) {
    it.fail(std::to_string(r.span_reconcile_failures) +
            " span reconcile failures");
  }
  it.attempted = std::max(1U, r.commands);
  it.failed = r.commands - std::min(r.commands, r.acked);
  it.sim_s = to_seconds(cfg.warmup + cfg.duration + cfg.drain);

  const double commands = std::max(1U, r.commands);
  it.modelled["tx_per_command"] = {r.tx_per_command, "ratio"};
  it.modelled["retries_per_command"] = {
      static_cast<double>(r.retries) / commands, "ratio"};
  it.modelled["delivery_pct"] = {100.0 * r.delivery_ratio(), "%"};
  it.modelled["invariant_violations"] = {
      static_cast<double>(r.invariant_violations), "count"};
  it.modelled["command_spans"] = {static_cast<double>(r.command_spans),
                                  "count"};
}

double setup(std::uint64_t seed) {
  const ChurnSoakConfig cfg = soak_config(seed);
  const double t0 = now_s();
  NetworkConfig net_cfg;
  net_cfg.topology = make_connected_random(cfg.nodes, cfg.side_m, cfg.seed);
  net_cfg.seed = cfg.seed;
  net_cfg.protocol = ControlProtocol::kReTele;
  Network net(net_cfg);
  net.start();
  return now_s() - t0;
}

bool is_tele_control(const Frame& frame) noexcept {
  return std::holds_alternative<msg::ControlPacket>(frame.payload) ||
         std::holds_alternative<msg::FeedbackPacket>(frame.payload);
}

/// The soak's fault schedule, built from the converged network exactly as
/// harness/soak.cpp builds it.
FaultPlan build_fault_plan(const ChurnSoakConfig& cfg, Network& net,
                           unsigned* faults_out) {
  const SimTime t0 = net.sim().now();
  Pcg32 rng(cfg.seed, /*stream=*/0x50A7ULL);
  unsigned faults = 0;
  FaultPlan plan = FaultPlan::random_churn(
      net.size(), cfg.outages, t0 + 1 * kMinute,
      t0 + cfg.duration - cfg.outage_downtime - 2 * kMinute,
      cfg.outage_downtime, cfg.seed);
  faults += cfg.outages;
  std::vector<std::pair<NodeId, NodeId>> parent_links;
  for (NodeId n = 1; n < static_cast<NodeId>(net.size()); ++n) {
    const NodeId parent = net.node(n).ctp().parent();
    if (parent != kInvalidNode) parent_links.emplace_back(n, parent);
  }
  for (unsigned i = 0; i < cfg.link_blackouts && !parent_links.empty(); ++i) {
    const auto& [child, parent] = parent_links[rng.uniform(
        static_cast<std::uint32_t>(parent_links.size()))];
    const SimTime at = t0 + 2 * kMinute + i * (cfg.duration / 8);
    plan.blackout_link(at, cfg.blackout_duration, child, parent);
    ++faults;
  }
  const auto random_non_sink = [&rng, &net] {
    return static_cast<NodeId>(
        1 + rng.uniform(static_cast<std::uint32_t>(net.size() - 1)));
  };
  if (cfg.noise_burst) {
    plan.noise_burst(t0 + cfg.duration / 2, cfg.noise_duration,
                     {random_non_sink()}, cfg.noise_dbm);
    ++faults;
  }
  if (cfg.state_loss_reboot) {
    plan.outage_with_state_loss(t0 + cfg.duration / 3, 1 * kMinute,
                                random_non_sink());
    ++faults;
  }
  *faults_out = faults;
  return plan;
}

/// Host seconds of one replayed soak, split by phase.
struct SoakWalls {
  double warmup = 0, measure = 0, outside = 0;
  double collect_metrics = 0, command_spans = 0, invariant_views = 0;
};

/// run_churn_soak step for step, with spans around every call; profiled
/// when `layers` is given. `corrupt` adds a seeded path-code corruption.
ChurnSoakResult replay_soak(const ChurnSoakConfig& cfg, bool corrupt,
                            SpanRecorder& spans, SetupParts& setup,
                            LayerTotals* layers, SoakWalls& walls,
                            Digest& digest) {
  const double wall_start = now_s();
  const double run_for_before = walls.warmup + walls.measure;
  NetworkConfig net_cfg;
  timed(spans, "make_connected_random", "setup", setup.topo, [&] {
    net_cfg.topology = make_connected_random(cfg.nodes, cfg.side_m, cfg.seed);
  });
  net_cfg.seed = cfg.seed;
  net_cfg.protocol = ControlProtocol::kReTele;
  auto net_owner = build_network_timed(net_cfg, spans, setup);
  Network& net = *net_owner;
  if (layers != nullptr) layers->watch(net);

  ControllerRetryConfig retry = cfg.retry;
  retry.enabled = cfg.reliable;
  Controller controller(net, retry);
  controller.set_use_reported_codes(true);

  ChurnSoakResult result;
  double& outside = walls.outside;
  timed(spans, "enable_observability", "obs", outside, [&] {
    controller.on_command_resolved = [&result](const CommandResolution& res) {
      switch (res.outcome) {
        case CommandOutcome::kAcked: ++result.acked; break;
        case CommandOutcome::kGaveUp: ++result.gave_up; break;
        case CommandOutcome::kNoCode: ++result.no_code; break;
      }
    };
    if (cfg.invariants) net.enable_invariants();
    if (cfg.spans) net.enable_tracing(1 << 20);
    if (cfg.health) {
      NetworkHealthConfig health_cfg;
      health_cfg.period = cfg.health_period;
      net.enable_health(health_cfg);
    }
    if (cfg.timeline) net.enable_flight_recorders();
  });

  timed(spans, "start", "setup", setup.start, [&] {
    net.start();
    net.start_data_collection(cfg.data_ipi);
  });
  timed(spans, "warmup", "harness", walls.warmup,
        [&] { net.run_for(cfg.warmup); });

  std::set<std::uint64_t> control_ops;
  timed(spans, "arm_faults", "harness", outside, [&] {
    if (cfg.timeline) {
      NetworkTimelineConfig timeline_cfg;
      timeline_cfg.timeline.interval = cfg.timeline_interval;
      timeline_cfg.rules = cfg.timeline_rules;
      TimelineEngine& tl = net.enable_timeline(timeline_cfg);
      tl.set_collector([&net, &controller](MetricsRegistry& registry) {
        net.collect_metrics(registry);
        controller.collect_metrics(registry);
      });
    }
    unsigned faults = 0;
    FaultPlan plan = build_fault_plan(cfg, net, &faults);
    if (corrupt) {
      // Bit 0 of every valid code is the sink's "0": the next checkpoint
      // must flag it.
      const auto node = static_cast<NodeId>(1 + cfg.seed % (cfg.nodes - 1));
      plan.corrupt_path_code(net.sim().now() + 1 * kSecond, node, 0);
    }
    plan.apply(net);
    result.faults_injected = faults;
    net.medium().add_transmit_hook(
        [&control_ops](NodeId src, const Frame& frame, SimTime) {
          if (!is_tele_control(frame)) return;
          control_ops.insert((static_cast<std::uint64_t>(src) << 32) |
                             frame.link_seq);
        });
  });

  Pcg32 dest_rng(cfg.seed ^ 0x50CCULL, 3);
  const SimTime end = net.sim().now() + cfg.duration;
  std::uint16_t command = 1;
  while (net.sim().now() < end) {
    timed(spans, "measure", "harness", walls.measure,
          [&] { net.run_for(cfg.command_interval); });
    if (net.sim().now() >= end) break;
    timed(spans, "send_command", "harness", outside, [&] {
      std::vector<NodeId> addressable;
      for (NodeId n = 1; n < static_cast<NodeId>(net.size()); ++n) {
        if (controller.reported_code(n).has_value()) addressable.push_back(n);
      }
      if (addressable.empty()) return;
      const NodeId dest = addressable[dest_rng.uniform(
          static_cast<std::uint32_t>(addressable.size()))];
      if (controller.send_command(dest, command++).has_value()) {
        ++result.commands;
      }
    });
  }
  timed(spans, "drain", "harness", walls.measure,
        [&] { net.run_for(cfg.drain); });

  timed(spans, "collect", "harness", outside, [&] {
    result.unresolved = static_cast<unsigned>(controller.pending_commands());
    result.retries = controller.retries();
    result.escalations = controller.escalations();
    result.tx_per_command =
        result.commands == 0
            ? 0.0
            : static_cast<double>(control_ops.size()) /
                  static_cast<double>(result.commands);
  });
  if (cfg.spans) {
    const auto command_spans =
        timed(spans, "Network::command_spans", "obs", walls.command_spans,
              [&] { return net.command_spans(); });
    result.command_spans = command_spans.size();
    result.span_reconcile_failures = count_reconcile_failures(command_spans);
  }
  if (InvariantEngine* inv = net.invariants()) {
    inv->final_audit();
    result.invariant_violations = inv->violations().size();
    result.invariant_checkpoints = inv->checkpoints_run();
    result.claims_audited = inv->claims_audited();
  }
  if (NetworkHealthModel* health = net.health()) {
    const SimTime now = net.sim().now();
    result.health_coverage = health->coverage(now);
    result.health_tracked = health->tracked();
    result.health_reports = health->stats().reports;
    result.health_bytes = health->stats().bytes;
  }
  if (TimelineEngine* tl = net.timeline()) {
    tl->sample_now();
    result.timeline_samples = tl->samples_taken();
    result.timeline_series = tl->series_count();
    result.alerts_fired = tl->alerts_fired_total();
    result.alerts_resolved = tl->alerts_resolved_total();
    result.counter_resets = tl->counter_resets();
    const double total_wall = now_s() - wall_start;
    result.timeline_wall_fraction =
        total_wall > 0.0 ? tl->sampling_wall_seconds() / total_wall : 0.0;
  }

  // One call of each observability read the tools make, timed on the
  // finished network.
  timed(spans, "Network::collect_metrics", "obs", walls.collect_metrics, [&] {
    MetricsRegistry registry;
    net.collect_metrics(registry);
  });
  timed(spans, "Network::invariant_views", "obs", walls.invariant_views,
        [&] { return net.invariant_views().size(); });
  digest_network(digest, net);
  if (layers != nullptr) {
    layers->add(net, walls.warmup + walls.measure - run_for_before);
  }
  return result;
}

Iteration run(std::uint64_t seed, const RunOptions& options) {
  const ChurnSoakConfig cfg = soak_config(seed);
  Iteration it;
  const double t0 = now_s();
  ChurnSoakResult r;
  if (options.corrupt_path_code) {
    SpanRecorder off(false);
    SetupParts setup;
    SoakWalls walls;
    Digest network_digest;  // not comparable with run_churn_soak's
    r = replay_soak(cfg, true, off, setup, nullptr, walls, network_digest);
  } else {
    r = run_churn_soak(cfg);
  }
  it.wall_s = now_s() - t0;
  account(it, cfg, r);
  return it;
}

Iteration run_traced(std::uint64_t seed, SpanRecorder& spans,
                     const RunOptions& options) {
  const ChurnSoakConfig cfg = soak_config(seed);
  Iteration it;
  SetupParts setup;
  LayerTotals layers;
  SoakWalls walls;
  Digest network_digest;  // run_churn_soak exposes no network to compare
  const double t0 = now_s();
  const ChurnSoakResult r =
      replay_soak(cfg, options.corrupt_path_code, spans, setup, &layers,
                  walls, network_digest);
  it.wall_s = now_s() - t0;
  account(it, cfg, r);

  LayerMap& m = it.layers;
  layers.write(m);
  setup.add_to(m);
  m["phase.warmup_s"] = walls.warmup;
  m["phase.measure_s"] = walls.measure;
  m["harness.outside_s"] = walls.outside + walls.collect_metrics +
                          walls.command_spans + walls.invariant_views;
  m["obs.collect_metrics_s"] = walls.collect_metrics;
  m["obs.command_spans_s"] = walls.command_spans;
  m["obs.invariant_views_s"] = walls.invariant_views;
  m["check.checkpoints"] = static_cast<double>(r.invariant_checkpoints);
  m["check.claims_audited"] = static_cast<double>(r.claims_audited);
  m["stats.timeline_wall_fraction"] = r.timeline_wall_fraction;

  // On/off cost of each observability subsystem, through run_churn_soak.
  // Each round times the full soak and the soak with each subsystem off in
  // turn; a subsystem's overhead is the median of its per-round
  // differences, so one slow stretch of host time does not decide it.
  const auto soak_wall = [&spans](const ChurnSoakConfig& c, const char* name) {
    double wall = 0.0;
    timed(spans, name, "obs", wall, [&] { return run_churn_soak(c).commands; });
    return wall;
  };
  struct Toggle {
    const char* name;
    bool ChurnSoakConfig::*flag;
  };
  constexpr Toggle kToggles[] = {
      {"obs.invariants.overhead_s", &ChurnSoakConfig::invariants},
      {"obs.spans.overhead_s", &ChurnSoakConfig::spans},
      {"obs.timeline.overhead_s", &ChurnSoakConfig::timeline},
      {"obs.health.overhead_s", &ChurnSoakConfig::health}};
  std::map<std::string, std::vector<double>> differences;
  for (int round = 0; round < kOverheadRounds; ++round) {
    if (round > 0 && now_s() > kOverheadDeadlineS) break;
    // Odd rounds time the full soak last, so a soak's position in the
    // round (first after the replay, or after four others) cancels.
    const bool on_first = round % 2 == 0;
    double all_on = on_first ? soak_wall(cfg, "run_churn_soak all on") : 0.0;
    std::vector<double> off_walls;
    for (const Toggle& t : kToggles) {
      ChurnSoakConfig off = cfg;
      off.*t.flag = false;
      off_walls.push_back(soak_wall(off, t.name));
    }
    if (!on_first) all_on = soak_wall(cfg, "run_churn_soak all on");
    for (std::size_t i = 0; i < off_walls.size(); ++i) {
      differences[kToggles[i].name].push_back(all_on - off_walls[i]);
    }
  }
  for (const auto& [name, values] : differences) m[name] = median(values);
  return it;
}

}  // namespace

const Workload kChurnSoak{"churn_soak", setup, run, run_traced};

}  // namespace simbench
