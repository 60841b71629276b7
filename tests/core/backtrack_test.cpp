// Backtracking mechanics (Sec. III-C3): feedback delivery, resumption at
// the upstream relay, unreachable marks, and the bounded backtrack budget
// (the anti-livelock rule DESIGN.md §7 documents).

#include <gtest/gtest.h>

#include <optional>

#include "core/teleadjusting.hpp"
#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

/// Diamond with a stub: 0 - {1,2} - 3, destination 4 hanging off node 3.
NetworkConfig diamond_config(std::uint64_t seed) {
  NetworkConfig cfg;
  Topology topo = make_line(2, 22.0);
  topo.name = "DiamondStub";
  topo.positions = {{0, 0}, {20, 8}, {20, -8}, {40, 0}, {60, 0}};
  cfg.topology = topo;
  cfg.seed = seed;
  cfg.protocol = ControlProtocol::kTele;  // no Re-Tele: backtracking only
  return cfg;
}

TEST(Backtrack, FeedbackResumesAtUpstreamRelay) {
  // Kill node 3 (the only way to 4): whoever holds the packet backtracks to
  // the sink, which retries and ultimately reports failure — each step
  // observable through the stats counters.
  Network net(diamond_config(51));
  net.start();
  net.run_for(5_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());
  const PathCode code = net.node(4).tele()->addressing().code();
  net.node(3).kill();
  net.node(4).kill();

  bool failed = false;
  net.sink().tele()->on_delivery_failed = [&](std::uint32_t) { failed = true; };
  net.sink().tele()->send_control(4, code, 1);
  net.run_for(3_min);
  EXPECT_TRUE(failed);

  std::uint64_t backtracks = 0;
  for (NodeId i = 0; i < net.size(); ++i) {
    backtracks += net.node(i).tele()->forwarding().stats().backtracks;
  }
  EXPECT_GE(backtracks, 1u);
}

TEST(Backtrack, BudgetBoundsFeedbackRounds) {
  NetworkConfig cfg = diamond_config(52);
  Network net(cfg);
  net.start();
  net.run_for(5_min);
  const PathCode code = net.node(4).tele()->addressing().code();
  ASSERT_FALSE(code.empty());
  net.node(3).kill();
  net.node(4).kill();
  auto& relay = net.node(2).tele()->forwarding();
  std::optional<msg::ControlPacket> held;
  relay.on_claimed = [&held](const msg::ControlPacket& p) { held = p; };
  net.sink().tele()->send_control(4, code, 1);
  net.run_for(5_min);

  // No node may exceed its per-packet budget.
  for (NodeId i = 0; i < net.size(); ++i) {
    EXPECT_LE(net.node(i).tele()->forwarding().stats().backtracks,
              std::uint64_t{kMaxBacktracks})
        << "node " << i;
  }

  // Hand relay 2 the packet back again and again, as a downstream relay
  // that keeps failing would: each return costs it a round until the budget
  // is spent, and a return past the budget costs none.
  ASSERT_TRUE(held.has_value());
  msg::FeedbackPacket back;
  back.packet = *held;
  back.unreachable_via = 3;
  for (unsigned i = 0;
       i < kMaxBacktracks && relay.stats().backtracks < kMaxBacktracks; ++i) {
    relay.handle_feedback(3, back, /*for_me=*/true);
    net.run_for(10_s);
  }
  ASSERT_EQ(relay.stats().backtracks, std::uint64_t{kMaxBacktracks});
  relay.handle_feedback(3, back, /*for_me=*/true);
  net.run_for(10_s);
  EXPECT_EQ(relay.stats().backtracks, std::uint64_t{kMaxBacktracks});
}

TEST(Backtrack, DisabledMeansNoFeedback) {
  NetworkConfig cfg = diamond_config(53);
  cfg.tele.forwarding.backtracking = false;
  Network net(cfg);
  net.start();
  net.run_for(5_min);
  const PathCode code = net.node(4).tele()->addressing().code();
  ASSERT_FALSE(code.empty());
  net.node(3).kill();
  net.node(4).kill();
  net.sink().tele()->send_control(4, code, 1);
  net.run_for(3_min);
  for (NodeId i = 1; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i).tele()->forwarding().stats().backtracks, 0u)
        << "node " << i;
  }
}

TEST(Backtrack, UnreachableMarksClearOnBeacon) {
  Network net(diamond_config(54));
  net.start();
  net.run_for(5_min);
  auto& neighbors = net.sink().tele()->addressing().neighbors();
  neighbors.mark_unreachable(1, net.sim().now());
  ASSERT_TRUE(neighbors.is_unreachable(1));
  // Node 1 keeps beaconing; the dispatcher's on_beacon_heard must clear it.
  net.run_for(3_min);
  EXPECT_FALSE(neighbors.is_unreachable(1));
}

}  // namespace
}  // namespace telea
