// Forwarding-plane exhaustion behavior under a killed-relay fault plan:
// the kMaxBacktracks budget must bound feedback ping-pong, and stale
// unreachable marks must expire via their 120 s lease even when the dead
// neighbor's own beacons never return (satellite of the robustness PR).
#include <gtest/gtest.h>

#include <optional>

#include "harness/controller.hpp"
#include "harness/faults.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

NetworkConfig line5_cfg(std::uint64_t seed) {
  NetworkConfig c;
  c.topology = make_line(5, 22.0);
  c.seed = seed;
  c.protocol = ControlProtocol::kTele;  // no Re-Tele: pure backtracking
  return c;
}

TEST(RelayFaults, MaxBacktracksBoundsFeedbackRoundsAndFailsCleanly) {
  Network net(line5_cfg(21));
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());

  FaultPlan plan;
  plan.kill_at(net.sim().now() + 1_s, 3);  // the relay in front of node 4
  plan.apply(net);
  net.run_for(5_s);

  bool failed = false;
  net.sink().tele()->on_delivery_failed = [&failed](std::uint32_t) {
    failed = true;
  };
  auto& relay = net.node(1).tele()->forwarding();
  std::optional<msg::ControlPacket> held;
  relay.on_claimed = [&held](const msg::ControlPacket& p) { held = p; };
  const auto seq = net.sink().tele()->send_control(
      4, net.node(4).tele()->addressing().code(), 0x99);
  ASSERT_TRUE(seq.has_value());
  net.run_for(3_min);

  // The origin must learn of the failure (no silent loss)...
  EXPECT_TRUE(failed);
  EXPECT_GE(net.sink().tele()->forwarding().stats().origin_failures, 1u);
  // ...and no relay may exceed its per-packet feedback budget. One control
  // packet was injected, so per-node cumulative backtracks are per-packet
  // rounds here (origin retries re-run the forward path, not the budget).
  for (NodeId n = 0; n < static_cast<NodeId>(net.size()); ++n) {
    const auto& stats = net.node(n).tele()->forwarding().stats();
    EXPECT_LE(stats.backtracks, std::uint64_t{kMaxBacktracks})
        << "node " << n << " exceeded its backtrack budget";
  }

  // The run stops short of the budget, so drive node 1 to it: node 2 keeps
  // handing the packet back, the ping-pong the budget exists for, and each
  // return costs node 1 a round.
  ASSERT_TRUE(held.has_value());
  ASSERT_LT(relay.stats().backtracks, std::uint64_t{kMaxBacktracks});
  msg::FeedbackPacket back;
  back.packet = *held;
  back.unreachable_via = 2;
  for (unsigned i = 0;
       i < kMaxBacktracks && relay.stats().backtracks < kMaxBacktracks; ++i) {
    EXPECT_EQ(relay.handle_feedback(2, back, /*for_me=*/true),
              AckDecision::kAcceptAndAck);
    net.run_for(10_s);
  }
  ASSERT_EQ(relay.stats().backtracks, std::uint64_t{kMaxBacktracks});
  // Out of budget, node 1 still takes a fresh copy from the sink, and when
  // it fails again it hands the verdict up without spending another round:
  // the origin hears of the failure once more.
  const auto origin_failures =
      net.sink().tele()->forwarding().stats().origin_failures;
  EXPECT_EQ(relay.handle_control(0, *held, /*for_me=*/true),
            AckDecision::kAcceptAndAck);
  net.run_for(10_s);
  EXPECT_EQ(relay.stats().backtracks, std::uint64_t{kMaxBacktracks});
  EXPECT_GT(net.sink().tele()->forwarding().stats().origin_failures,
            origin_failures);
}

TEST(RelayFaults, UnreachableMarksExpireWithoutTheDeadNeighborsBeacon) {
  Network net(line5_cfg(22));
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());

  FaultPlan plan;
  plan.kill_at(net.sim().now() + 1_s, 3);
  plan.apply(net);
  net.run_for(5_s);

  const auto seq = net.sink().tele()->send_control(
      4, net.node(4).tele()->addressing().code(), 0x9A);
  ASSERT_TRUE(seq.has_value());
  net.run_for(1_min);

  // Node 2 tried to hand the packet to its dead downstream relay and marked
  // it unreachable.
  auto& neighbors = net.node(2).tele()->addressing().neighbors();
  ASSERT_TRUE(neighbors.is_unreachable(3));

  // Node 3 stays dead, so its own beacons can never clear the mark. Any
  // *other* neighbor's beacon triggers the expiry sweep once the timeout
  // has passed (the safety valve of Sec. III-C3).
  net.run_for(2_min);  // past the 120 s lease since the mark was set
  net.node(1).ctp().send_beacon(false);
  net.run_for(5_s);
  EXPECT_FALSE(neighbors.is_unreachable(3));
}

}  // namespace
}  // namespace telea
