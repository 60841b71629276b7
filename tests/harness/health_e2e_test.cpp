// End-to-end acceptance for the in-band health telemetry + flight recorder
// subsystems (PR 6 tentpole):
//   - a 225-node tight grid with health on reaches >= 95% coverage with
//     staleness under two telemetry periods at steady state,
//   - telemetry adds bytes but zero extra packets (same-seed A/B run),
//   - flight dumps fire on state-loss reboot, on command give-up, and on a
//     fault-injected invariant violation,
//   - a dump is a slice of the trace (ring-only kinds aside) and the ring
//     outlives a state-loss reboot.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "harness/controller.hpp"
#include "harness/faults.hpp"
#include "harness/network.hpp"
#include "stats/metrics.hpp"
#include "topo/topology.hpp"
#include "util/enum_name.hpp"

namespace telea {
namespace {

using namespace time_literals;

NetworkConfig line_cfg(std::size_t nodes, std::uint64_t seed) {
  NetworkConfig c;
  c.topology = make_line(nodes, 22.0);
  c.seed = seed;
  c.protocol = ControlProtocol::kReTele;
  return c;
}

std::uint64_t total_data_originated(Network& net) {
  std::uint64_t total = 0;
  for (NodeId n = 1; n < static_cast<NodeId>(net.size()); ++n) {
    total += net.node(n).ctp().stats().data_originated;
  }
  return total;
}

// The ISSUE acceptance run: health=on in the paper's 225-node tight grid.
// Coverage counts only *fresh* entries (age < 2 telemetry periods), so the
// >= 95% bar is simultaneously the staleness bar.
TEST(HealthE2E, TightGridCoverageAtSteadyState) {
  NetworkConfig cfg;
  cfg.topology = make_tight_grid(1);
  cfg.seed = 1;
  Network net(cfg);
  // Telemetry rides the data traffic, so the period matches the IPI. The
  // IPI itself must stay within what 224 duty-cycled senders can funnel
  // into one sink — 120 s (~1.9 pkt/s aggregate) is sustainable where the
  // dense grid congests and drops at 30 s.
  NetworkHealthConfig hcfg;
  hcfg.period = 120_s;
  NetworkHealthModel& model = net.enable_health(hcfg);
  net.start();
  net.run_for(6_min);  // let CTP converge before offering traffic
  net.start_data_collection(120_s);
  net.run_for(12_min);  // several telemetry periods of steady state

  const SimTime now = net.sim().now();
  const double coverage = model.coverage(now);
  EXPECT_GE(coverage, 0.95) << "stale: " << model.stale_nodes(now).size()
                            << ", unseen: " << model.unseen_nodes().size()
                            << ", reports: " << model.stats().reports;
  EXPECT_EQ(model.expected_nodes(), net.size() - 1);
  // Every piggybacked byte the sink saw is 8 bytes per report, accepted or
  // dropped-as-stale — the exact in-band overhead the metrics export.
  EXPECT_EQ(model.stats().bytes,
            (model.stats().reports + model.stats().stale_dropped) *
                msg::kHealthReportBytes);
  EXPECT_GT(model.stats().reports, net.size());
}

// "Zero new packets": the same seeded run with health on originates exactly
// as many CTP data packets as with health off — telemetry rides existing
// traffic. Originations are timer-driven, so the counts must match exactly.
TEST(HealthE2E, ZeroExtraPacketsSameSeed) {
  std::uint64_t originated_off = 0;
  {
    Network net(line_cfg(8, 77));
    net.start();
    net.run_for(4_min);
    net.start_data_collection(30_s);
    net.run_for(6_min);
    originated_off = total_data_originated(net);
  }

  Network net(line_cfg(8, 77));
  NetworkHealthConfig hcfg;
  hcfg.period = 60_s;
  NetworkHealthModel& model = net.enable_health(hcfg);
  net.start();
  net.run_for(4_min);
  net.start_data_collection(30_s);
  net.run_for(6_min);

  EXPECT_EQ(total_data_originated(net), originated_off);
  EXPECT_GT(model.stats().reports, 0u);
  EXPECT_GT(model.stats().bytes, 0u);
}

TEST(HealthE2E, FlightDumpOnStateLossReboot) {
  Network net(line_cfg(5, 9));
  net.enable_flight_recorders();
  net.start();
  net.run_for(5_min);
  net.start_data_collection(30_s);
  net.run_for(3_min);

  net.node(2).reboot_with_state_loss();
  ASSERT_FALSE(net.flight_dumps().empty());
  const FlightDump& dump = net.flight_dumps().back();
  EXPECT_EQ(dump.node, 2);
  EXPECT_EQ(dump.trigger, "reboot");
  EXPECT_FALSE(dump.events.empty())
      << "a live node must have recorded forwarding/parent events";
  MetricsRegistry registry;
  net.collect_metrics(registry);
  EXPECT_EQ(registry.counter("telea_flight_dumps_total", {{"sub", "flight"}})
                .value(),
            net.flight_dumps().size());
}

TEST(HealthE2E, FlightDumpOnCommandGiveUp) {
  Network net(line_cfg(4, 8));
  net.enable_flight_recorders();
  Controller controller(net);
  net.start();
  net.run_for(4_min);
  net.node(3).kill();
  ASSERT_TRUE(controller.send_command(3, 0x44).has_value());
  net.run_for(15_min);  // past the fourth retry's timeout

  const auto& dumps = net.flight_dumps();
  const bool give_up_dump =
      std::any_of(dumps.begin(), dumps.end(), [](const FlightDump& d) {
        return d.node == 3 && d.trigger == "command_give_up";
      });
  EXPECT_TRUE(give_up_dump) << dumps.size() << " dumps, none for the give-up";
}

// A fault-injected addressing corruption trips the invariant engine; the
// wired-up trigger must snapshot the offending node's ring.
TEST(HealthE2E, FlightDumpOnInvariantViolation) {
  Network net(line_cfg(5, 32));
  InvariantConfig icfg;
  icfg.checkpoint_interval = 15_s;
  net.enable_invariants(icfg);
  net.enable_flight_recorders();
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());

  FaultPlan plan;
  plan.corrupt_path_code(net.sim().now() + 1_s, 4, /*bit=*/0);
  plan.apply(net);
  net.run_for(2 * icfg.checkpoint_interval);

  const auto& dumps = net.flight_dumps();
  const bool invariant_dump =
      std::any_of(dumps.begin(), dumps.end(), [](const FlightDump& d) {
        return d.node == 4 && d.trigger.rfind("invariant:", 0) == 0;
      });
  EXPECT_TRUE(invariant_dump) << dumps.size() << " dumps, none invariant";
}

// A flight dump is a slice of the trace: with tracing and rings both on,
// every dumped record — bar the kinds the router keeps in the ring only — is
// a record the network tracer holds too, field for field, across a reboot, a
// command give-up and an invariant violation. The ring outlives the reboot.
TEST(HealthE2E, FlightDumpsAreSlicesOfTheTrace) {
  Network net(line_cfg(5, 32));
  const Tracer& trace = net.enable_tracing(1 << 18);
  InvariantConfig icfg;
  icfg.checkpoint_interval = 15_s;
  net.enable_invariants(icfg);
  net.enable_flight_recorders();
  Controller controller(net);
  net.start();
  net.run_for(6_min);
  net.start_data_collection(30_s);
  net.run_for(2_min);

  const SimTime reboot_at = net.sim().now();
  net.node(2).reboot_with_state_loss();
  net.run_for(2_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());
  FaultPlan plan;
  plan.corrupt_path_code(net.sim().now() + 1_s, 4, /*bit=*/0);
  plan.apply(net);
  net.run_for(2 * icfg.checkpoint_interval);
  net.node(3).kill();
  ASSERT_TRUE(controller.send_command(3, 0x44).has_value());
  net.run_for(15_min);  // past the fourth retry's timeout
  net.dump_flight(2, "after_reboot");
  net.dump_flight(kSinkNode, "origin");

  ASSERT_EQ(trace.dropped(), 0u) << "the trace must hold the whole run";
  for_each_enum(trace_event_name, [&](TraceEvent e) {
    if (trace_event_sink(e) == TraceSink::kRing) {
      EXPECT_EQ(trace.count(e), 0u) << trace_event_name(e);
    }
  });
  const std::vector<TraceRecord> all = trace.snapshot();
  std::set<std::string> triggers;
  std::size_t ring_only = 0;
  for (const FlightDump& dump : net.flight_dumps()) {
    triggers.insert(dump.trigger.substr(0, dump.trigger.find(':')));
    for (const TraceRecord& r : dump.events) {
      EXPECT_EQ(r.node, dump.node);
      if (trace_event_sink(r.event) == TraceSink::kRing) {
        ++ring_only;
        continue;
      }
      EXPECT_NE(std::find(all.begin(), all.end(), r), all.end())
          << dump.trigger << ": " << trace_event_name(r.event) << " at node "
          << r.node << " t=" << r.time << " is not in the trace";
    }
  }
  for (const char* t : {"reboot", "invariant", "command_give_up"}) {
    EXPECT_TRUE(triggers.contains(t)) << "no " << t << " dump";
  }
  EXPECT_GT(ring_only, 0u) << "the origin's ring must hold its ack timeouts";

  // Both node 2 dumps keep pre-reboot history: the reboot dump ends with the
  // reboot record, and the later one shows the ring survived the reset.
  std::size_t node2_dumps = 0;
  for (const FlightDump& dump : net.flight_dumps()) {
    if (dump.node != 2 || (dump.trigger != "reboot" &&
                           dump.trigger != "after_reboot")) {
      continue;
    }
    ++node2_dumps;
    EXPECT_TRUE(std::any_of(
        dump.events.begin(), dump.events.end(),
        [&](const TraceRecord& r) { return r.time < reboot_at; }))
        << dump.trigger << " lost the pre-reboot records";
  }
  EXPECT_EQ(node2_dumps, 2u);
}

// The enable_* calls may run in any order: every layer records through one
// router, so turning tracing, invariants, the timeline and the flight
// recorders on forwards or backwards gives the same trace and the same
// dumps — reboot, invariant and alert triggers included.
TEST(HealthE2E, EnableOrderLeavesTraceAndDumpsUnchanged) {
  struct Output {
    std::string trace;
    std::vector<std::string> dumps;
  };
  auto run = [](bool reverse) {
    Network net(line_cfg(5, 32));
    InvariantConfig icfg;
    icfg.checkpoint_interval = 15_s;
    NetworkTimelineConfig tcfg;
    tcfg.timeline.interval = 10_s;  // off the checkpoint grid until 30 s
    // Fires once, at t = 250 s, and dumps node 3.
    tcfg.rules = parse_alert_rules(
                     "up: value(telea_duty_cycle{node=\"3\",sub=\"lpl\"}) "
                     ">= 0 for 25\n")
                     .value();
    std::vector<std::function<void()>> enable = {
        [&] { net.enable_tracing(1 << 18); },
        [&] { net.enable_invariants(icfg); },
        [&] { net.enable_timeline(tcfg); },
        [&] { net.enable_flight_recorders(); },
    };
    if (reverse) std::reverse(enable.begin(), enable.end());
    for (const auto& step : enable) step();
    net.start();
    net.run_for(6_min);
    FaultPlan plan;
    plan.corrupt_path_code(net.sim().now() + 1_s, 4, /*bit=*/0);
    plan.apply(net);
    net.run_for(2 * icfg.checkpoint_interval);
    net.node(2).reboot_with_state_loss();
    net.run_for(1_min);

    Output out{net.tracer()->render_jsonl(), {}};
    for (const FlightDump& dump : net.flight_dumps()) {
      out.dumps.push_back(render_flight_dump_json(dump));
    }
    return out;
  };
  const Output forward = run(false);
  const Output reverse = run(true);
  EXPECT_EQ(forward.trace, reverse.trace);
  EXPECT_EQ(forward.dumps, reverse.dumps);
  for (const char* trigger :
       {"\"trigger\":\"reboot\"", "\"trigger\":\"invariant:",
        "\"trigger\":\"alert:up\""}) {
    EXPECT_TRUE(std::any_of(
        forward.dumps.begin(), forward.dumps.end(),
        [&](const std::string& d) { return d.find(trigger) != d.npos; }))
        << "no dump with " << trigger;
  }
}

// Re-Tele detour selection consults the health model when one is live: a
// suggestion must still come back on a healthy converged network (the bias
// must never make detours impossible).
TEST(HealthE2E, DetourSuggestionStillWorksWithHealthBias) {
  Network net(line_cfg(5, 21));
  net.enable_health();
  net.start();
  net.run_for(5_min);
  net.start_data_collection(30_s);
  net.run_for(5_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());
  EXPECT_TRUE(net.suggest_detour(4).has_value());
}

}  // namespace
}  // namespace telea
