// End-to-end invariant engine acceptance: a seeded network runs clean under
// checkpoints + claim audits, and a fault-injected memory corruption of
// addressing state trips the engine with a trace-linked invariant_violation
// carrying the right rule id and node.
#include <gtest/gtest.h>

#include <string>

#include "check/invariants.hpp"
#include "harness/faults.hpp"
#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

NetworkConfig line5_cfg(std::uint64_t seed) {
  NetworkConfig c;
  c.topology = make_line(5, 22.0);
  c.seed = seed;
  return c;
}

TEST(InvariantFaults, HealthyRunWithCommandsFiresNoViolation) {
  Network net(line5_cfg(31));
  net.enable_tracing();
  InvariantConfig icfg;
  icfg.checkpoint_interval = 15_s;
  InvariantEngine& inv = net.enable_invariants(icfg);
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());

  // Push a few commands through so the claim/delivery audits actually run.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(net.sink()
                    .tele()
                    ->send_control(4, net.node(4).tele()->addressing().code(),
                                   0x42)
                    .has_value());
    net.run_for(1_min);
  }

  EXPECT_GT(inv.checkpoints_run(), 10u);
  EXPECT_GT(inv.claims_audited(), 0u);
  EXPECT_TRUE(inv.violations().empty()) << inv.render_report();
  EXPECT_EQ(net.tracer()->count(TraceEvent::kInvariantViolation), 0u);
}

TEST(InvariantFaults, CorruptedPathCodeTripsTheEngineWithTraceLink) {
  Network net(line5_cfg(32));
  net.enable_tracing();
  InvariantConfig icfg;
  icfg.checkpoint_interval = 15_s;
  InvariantEngine& inv = net.enable_invariants(icfg);
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());
  ASSERT_TRUE(inv.violations().empty()) << inv.render_report();

  // Memory-corruption fault: silently flip the leading bit of node 4's code.
  // Every valid code extends the sink's "0", so the very next checkpoint must
  // flag addr.code_bounds at node 4.
  FaultPlan plan;
  plan.corrupt_path_code(net.sim().now() + 1_s, 4, /*bit=*/0);
  plan.apply(net);
  net.run_for(2 * icfg.checkpoint_interval);

  EXPECT_GE(inv.violation_count(InvariantRule::kAddrCodeBounds), 1u)
      << inv.render_report();
  const auto hits = [&inv] {
    std::vector<InvariantViolation> v;
    for (const auto& viol : inv.violations()) {
      if (viol.rule == InvariantRule::kAddrCodeBounds) v.push_back(viol);
    }
    return v;
  }();
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front().node, 4);

  // The violation is trace-linked: same node, rule id in operand `a`.
  const auto records = net.tracer()->by_event(TraceEvent::kInvariantViolation);
  ASSERT_FALSE(records.empty());
  bool linked = false;
  for (const auto& r : records) {
    if (r.node == 4 &&
        r.a == static_cast<std::uint64_t>(InvariantRule::kAddrCodeBounds)) {
      linked = true;
    }
  }
  EXPECT_TRUE(linked);
}

TEST(InvariantFaults, CorruptedChildPositionTripsTheAllocatorChecks) {
  Network net(line5_cfg(33));
  net.enable_tracing();
  InvariantConfig icfg;
  icfg.checkpoint_interval = 15_s;
  InvariantEngine& inv = net.enable_invariants(icfg);
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());
  ASSERT_FALSE(net.node(3).tele()->addressing().children().entries().empty());
  ASSERT_TRUE(inv.violations().empty()) << inv.render_report();

  // Rewrite node 3's first child slot to the reserved position 0, leaving the
  // stored derived code stale: out of the [1, 2^bits) space (addr.code_bounds)
  // and no longer deriving the stored code (addr.parent_prefix).
  FaultPlan plan;
  plan.corrupt_child_position(net.sim().now() + 1_s, 3, /*slot=*/0,
                              /*position=*/0);
  plan.apply(net);
  net.run_for(2 * icfg.checkpoint_interval);

  EXPECT_GE(inv.violation_count(InvariantRule::kAddrCodeBounds), 1u)
      << inv.render_report();
  EXPECT_GE(inv.violation_count(InvariantRule::kAddrParentPrefix), 1u)
      << inv.render_report();
  bool at_corrupted_node = false;
  for (const auto& v : inv.violations()) {
    if (v.node == 3) at_corrupted_node = true;
  }
  EXPECT_TRUE(at_corrupted_node);
}

TEST(InvariantFaults, FailFastAbortsTheRunAtTheFirstViolation) {
  Network net(line5_cfg(34));
  InvariantConfig icfg;
  icfg.checkpoint_interval = 15_s;
  icfg.fail_fast = true;
  net.enable_invariants(icfg);
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());

  FaultPlan plan;
  plan.corrupt_path_code(net.sim().now() + 1_s, 4, /*bit=*/0);
  plan.apply(net);
  EXPECT_THROW(net.run_for(2 * icfg.checkpoint_interval),
               InvariantViolationError);
}

TEST(InvariantFaults, MetricsCarryASeriesForEveryRule) {
  // Every rule invariant_rule_name knows must surface as a
  // telea_invariant_violations_total{rule=...} series, so an appended rule
  // cannot drop out of the metrics. Probe until the name falls back to "?".
  Network net(line5_cfg(35));
  net.enable_invariants();
  MetricsRegistry registry;
  net.collect_metrics(registry);
  const std::string text = registry.render_prometheus();
  std::size_t rules = 0;
  for (std::uint8_t i = 0;; ++i, ++rules) {
    const std::string name = invariant_rule_name(static_cast<InvariantRule>(i));
    if (name == "?") break;
    EXPECT_NE(text.find("telea_invariant_violations_total{rule=\"" + name +
                        "\""),
              std::string::npos)
        << name;
  }
  EXPECT_GT(rules, 0u);
}

}  // namespace
}  // namespace telea
