#include "harness/soak.hpp"

#include <chrono>
#include <set>
#include <sstream>
#include <vector>

#include "harness/faults.hpp"
#include "harness/runner.hpp"
#include "stats/spans.hpp"
#include "topo/topology.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/text_file.hpp"

namespace telea {

namespace {

/// Builds the mixed fault schedule from the *converged* network: churn on
/// random nodes, blackouts on links the CTP tree is actually using, a noise
/// burst near a relay, and one state-losing reboot (the stale-code case).
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

bool is_tele_control(const Frame& frame) noexcept {
  return std::holds_alternative<msg::ControlPacket>(frame.payload) ||
         std::holds_alternative<msg::FeedbackPacket>(frame.payload);
}

void emit_arm(std::ostringstream& out, const char* key,
              const ChurnSoakResult& r) {
  out << "    \"" << key << "\": {\n"
      << "      \"commands\": " << r.commands << ",\n"
      << "      \"acked\": " << r.acked << ",\n"
      << "      \"gave_up\": " << r.gave_up << ",\n"
      << "      \"no_code\": " << r.no_code << ",\n"
      << "      \"unresolved\": " << r.unresolved << ",\n"
      << "      \"retries\": " << r.retries << ",\n"
      << "      \"escalations\": " << r.escalations << ",\n"
      << "      \"faults_injected\": " << r.faults_injected << ",\n"
      << "      \"tx_per_command\": " << r.tx_per_command << ",\n"
      << "      \"delivery_ratio\": " << r.delivery_ratio() << ",\n"
      << "      \"invariant_violations\": " << r.invariant_violations << ",\n"
      << "      \"invariant_checkpoints\": " << r.invariant_checkpoints
      << ",\n"
      << "      \"claims_audited\": " << r.claims_audited << ",\n"
      << "      \"command_spans\": " << r.command_spans << ",\n"
      << "      \"span_reconcile_failures\": " << r.span_reconcile_failures
      << "\n"
      << "    }";
}

}  // namespace

ChurnSoakResult run_churn_soak(const ChurnSoakConfig& cfg) {
  // Host wall-clock over the whole soak: the denominator of
  // timeline_wall_fraction.
  const auto wall_start = std::chrono::steady_clock::now();
  NetworkConfig net_cfg;
  net_cfg.topology = make_connected_random(cfg.nodes, cfg.side_m, cfg.seed);
  net_cfg.seed = cfg.seed;
  net_cfg.protocol = ControlProtocol::kReTele;
  Network net(net_cfg);

  ControllerRetryConfig retry = cfg.retry;
  retry.enabled = cfg.reliable;
  Controller controller(net, retry);
  // The controller addresses by in-band reported codes: stale after a
  // state-loss reboot until the node reports again — the case under test.
  controller.set_use_reported_codes(true);

  ChurnSoakResult result;
  std::set<std::uint32_t> issued;
  std::set<std::uint32_t> delivered_seqnos;
  controller.on_command_resolved = [&result](const CommandResolution& res) {
    switch (res.outcome) {
      case CommandOutcome::kAcked:
        ++result.acked;
        break;
      case CommandOutcome::kGaveUp:
        ++result.gave_up;
        break;
      case CommandOutcome::kNoCode:
        ++result.no_code;
        break;
    }
  };

  if (cfg.invariants) net.enable_invariants();
  // Span reconciliation needs the command trajectories to survive the whole
  // window, so size the ring well above the default.
  if (cfg.spans) net.enable_tracing(1 << 20);
  if (cfg.health) {
    NetworkHealthConfig health_cfg;
    health_cfg.period = cfg.health_period;
    net.enable_health(health_cfg);
  }
  if (cfg.timeline) {
    // Flight recorders armed from boot, so alert firings (and reboots,
    // give-ups...) always have node context to dump.
    net.enable_flight_recorders(cfg.flight_jsonl);
  }

  net.start();
  net.start_data_collection(cfg.data_ipi);
  net.run_for(cfg.warmup);
  TELEA_INFO("harness.soak") << "warmed up: code coverage "
                             << net.code_coverage();

  if (cfg.timeline) {
    // Armed only after warmup: the soak's alert question is about steady
    // state. Health coverage climbs from zero while nodes boot and report
    // in, and paging on that transient would make every clean run noisy.
    NetworkTimelineConfig timeline_cfg;
    timeline_cfg.timeline.interval = cfg.timeline_interval;
    timeline_cfg.rules = cfg.timeline_rules;
    timeline_cfg.jsonl = cfg.timeline_jsonl;
    TimelineEngine& tl = net.enable_timeline(timeline_cfg);
    // The network collector covers node/protocol series; the soak also
    // watches the controller, whose e2e retry counters are what storm
    // rules key on. The engine only samples while run_for pumps the
    // simulator below, with both referents alive.
    tl.set_collector([&net, &controller](MetricsRegistry& registry) {
      net.collect_metrics(registry);
      controller.collect_metrics(registry);
    });
  }

  unsigned faults = 0;
  build_fault_plan(cfg, net, &faults).apply(net);
  result.faults_injected = faults;

  // Count control-plane LPL send operations (distinct (src, link_seq)).
  std::set<std::uint64_t> control_ops;
  net.medium().add_transmit_hook(
      [&control_ops](NodeId src, const Frame& frame, SimTime) {
        if (!is_tele_control(frame)) return;
        control_ops.insert((static_cast<std::uint64_t>(src) << 32) |
                           frame.link_seq);
      });

  // Command loop: a random reported-code destination every interval. The
  // controller does not know who is down — that is the robustness question.
  Pcg32 dest_rng(cfg.seed ^ 0x50CCULL, 3);
  const SimTime end = net.sim().now() + cfg.duration;
  std::uint16_t command = 1;
  while (net.sim().now() < end) {
    net.run_for(cfg.command_interval);
    if (net.sim().now() >= end) break;
    std::vector<NodeId> addressable;
    for (NodeId n = 1; n < static_cast<NodeId>(net.size()); ++n) {
      if (controller.reported_code(n).has_value()) addressable.push_back(n);
    }
    if (addressable.empty()) continue;
    const NodeId dest = addressable[dest_rng.uniform(
        static_cast<std::uint32_t>(addressable.size()))];
    if (const auto seq = controller.send_command(dest, command++);
        seq.has_value()) {
      issued.insert(*seq);
      ++result.commands;
    }
  }

  net.run_for(cfg.drain);

  if (!cfg.reliable) {
    // Fire-and-forget: an ack for any issued seqno is a delivery.
    for (const std::uint32_t seq : controller.acked()) {
      if (issued.contains(seq)) delivered_seqnos.insert(seq);
    }
    result.acked = static_cast<unsigned>(delivered_seqnos.size());
  }
  result.unresolved = static_cast<unsigned>(controller.pending_commands());
  result.retries = controller.retries();
  result.escalations = controller.escalations();
  result.tx_per_command =
      result.commands == 0
          ? 0.0
          : static_cast<double>(control_ops.size()) /
                static_cast<double>(result.commands);
  if (cfg.spans) {
    const auto spans = net.command_spans();
    result.command_spans = spans.size();
    result.span_reconcile_failures = count_reconcile_failures(spans);
    if (result.span_reconcile_failures > 0) {
      TELEA_WARN("harness.soak")
          << result.span_reconcile_failures << "/" << result.command_spans
          << " spans failed segment-sum reconciliation";
    }
  }
  if (InvariantEngine* inv = net.invariants()) {
    inv->final_audit();
    result.invariant_violations = inv->violations().size();
    result.invariant_checkpoints = inv->checkpoints_run();
    result.claims_audited = inv->claims_audited();
    if (result.invariant_violations > 0) {
      TELEA_WARN("harness.soak") << "invariant violations:\n"
                                 << inv->render_report();
    }
  }
  if (NetworkHealthModel* health = net.health()) {
    const SimTime now = net.sim().now();
    result.health_coverage = health->coverage(now);
    result.health_tracked = health->tracked();
    result.health_reports = health->stats().reports;
    result.health_bytes = health->stats().bytes;
    TELEA_INFO("harness.soak") << "health coverage " << result.health_coverage
                               << " over " << result.health_tracked
                               << " tracked nodes";
  }
  if (TimelineEngine* tl = net.timeline()) {
    tl->sample_now();  // close the stream with a final boundary sample
    result.timeline_samples = tl->samples_taken();
    result.timeline_series = tl->series_count();
    result.alerts_fired = tl->alerts_fired_total();
    result.alerts_resolved = tl->alerts_resolved_total();
    result.counter_resets = tl->counter_resets();
    const double total_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    result.timeline_wall_fraction =
        total_wall > 0.0 ? tl->sampling_wall_seconds() / total_wall : 0.0;
    const double series_samples =
        static_cast<double>(result.timeline_samples) *
        static_cast<double>(result.timeline_series);
    result.timeline_ns_per_series_sample =
        series_samples > 0.0
            ? tl->sampling_wall_seconds() * 1e9 / series_samples
            : 0.0;
    TELEA_INFO("harness.soak")
        << "timeline: " << result.timeline_samples << " samples over "
        << result.timeline_series << " series, " << result.alerts_fired
        << " alert(s) fired, sampling " << result.timeline_ns_per_series_sample
        << " ns per series sample (" << result.timeline_wall_fraction * 100.0
        << "% of wall-clock)";
  }
  TELEA_INFO("harness.soak") << "done: " << result.acked << "/"
                             << result.commands << " acked, "
                             << result.retries << " retries, "
                             << result.escalations << " escalations, "
                             << result.gave_up << " gave up, "
                             << result.unresolved << " unresolved";
  return result;
}

ChurnSoakPair run_churn_soak_pair(const ChurnSoakConfig& cfg, unsigned jobs) {
  // Arm 0 keeps cfg.reliable (the configured controller); arm 1 is the
  // fire-and-forget twin. Same seed on purpose: the comparison is about the
  // controller, so both arms must face the identical fault schedule.
  std::vector<ChurnSoakConfig> arms(2, cfg);
  arms[1].reliable = false;
  for (std::size_t arm = 0; arm < arms.size(); ++arm) {
    if (!arms[arm].timeline_jsonl.empty()) {
      arms[arm].timeline_jsonl =
          trial_artifact_path(arms[arm].timeline_jsonl, arm);
    }
    if (!arms[arm].flight_jsonl.empty()) {
      arms[arm].flight_jsonl = trial_artifact_path(arms[arm].flight_jsonl, arm);
    }
  }
  TrialRunner runner(RunnerConfig{jobs, {}});
  const auto results = runner.run_indexed(
      arms.size(), [&arms](std::size_t i) { return run_churn_soak(arms[i]); });
  return {results[0], results[1]};
}

std::string churn_soak_json(const ChurnSoakConfig& cfg,
                            const ChurnSoakResult& with_retries,
                            const ChurnSoakResult& without) {
  std::ostringstream out;
  out << "{\n"
      << "  \"name\": \"robustness_churn\",\n"
      << "  \"config\": {\n"
      << "    \"nodes\": " << cfg.nodes << ",\n"
      << "    \"seed\": " << cfg.seed << ",\n"
      << "    \"warmup_s\": " << to_seconds(cfg.warmup) << ",\n"
      << "    \"duration_s\": " << to_seconds(cfg.duration) << ",\n"
      << "    \"outages\": " << cfg.outages << ",\n"
      << "    \"link_blackouts\": " << cfg.link_blackouts << ",\n"
      << "    \"noise_burst\": " << (cfg.noise_burst ? "true" : "false")
      << ",\n"
      << "    \"state_loss_reboot\": "
      << (cfg.state_loss_reboot ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"results\": {\n";
  emit_arm(out, "with_retries", with_retries);
  out << ",\n";
  emit_arm(out, "without_retries", without);
  out << "\n  }\n}\n";
  return out.str();
}

bool write_churn_soak_json(const std::string& path, const ChurnSoakConfig& cfg,
                           const ChurnSoakResult& with_retries,
                           const ChurnSoakResult& without) {
  if (!write_text_file(path, churn_soak_json(cfg, with_retries, without))) {
    TELEA_WARN("harness.soak") << "cannot write " << path;
    return false;
  }
  return true;
}

}  // namespace telea
