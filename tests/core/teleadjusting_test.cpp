#include "core/teleadjusting.hpp"

#include <gtest/gtest.h>

#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

NetworkConfig line_config(std::size_t nodes, std::uint64_t seed,
                          ControlProtocol proto = ControlProtocol::kReTele) {
  NetworkConfig cfg;
  cfg.topology = make_line(nodes, 22.0);
  cfg.seed = seed;
  cfg.protocol = proto;
  return cfg;
}

/// Diamond: 0 (sink) - {1,2} - 3. Two disjoint relays to the far node.
NetworkConfig diamond_config(std::uint64_t seed,
                             ControlProtocol proto = ControlProtocol::kReTele) {
  NetworkConfig cfg;
  Topology topo = make_line(2, 22.0);  // reuse radio params, replace layout
  topo.name = "Diamond";
  topo.positions = {{0, 0}, {20, 8}, {20, -8}, {40, 0}};
  cfg.topology = topo;
  cfg.seed = seed;
  cfg.protocol = proto;
  return cfg;
}

struct Delivery {
  bool delivered = false;
  bool direct = false;
  std::uint8_t hops = 0;
  SimTime at = 0;
};

Delivery send_and_wait(Network& net, NodeId dest, SimTime wait = 30_s) {
  Delivery result;
  net.node(dest).tele()->on_control_delivered =
      [&result, &net](const msg::ControlPacket& p, bool direct) {
        result.delivered = true;
        result.direct = direct;
        result.hops = p.hops_so_far;
        result.at = net.sim().now();
      };
  const auto& code = net.node(dest).tele()->addressing().code();
  EXPECT_TRUE(
      net.sink().tele()->send_control(dest, code, 0xBEEF).has_value());
  net.run_for(wait);
  return result;
}

TEST(TeleAdjusting, DeliversAlongEncodedPath) {
  Network net(line_config(5, 21));
  net.start();
  net.run_for(4_min);
  ASSERT_TRUE(net.node(4).tele()->addressing().has_code());
  const Delivery d = send_and_wait(net, 4);
  EXPECT_TRUE(d.delivered);
  EXPECT_FALSE(d.direct);
  // Four hops on a strict line; small slack for retries.
  EXPECT_GE(d.hops, 4u);
  EXPECT_LE(d.hops, 8u);
}

TEST(TeleAdjusting, DeliversToEveryNode) {
  Network net(line_config(5, 22));
  net.start();
  net.run_for(4_min);
  for (NodeId dest = 1; dest < 5; ++dest) {
    ASSERT_TRUE(net.node(dest).tele()->addressing().has_code())
        << "node " << dest;
    const Delivery d = send_and_wait(net, dest);
    EXPECT_TRUE(d.delivered) << "node " << dest;
  }
}

TEST(TeleAdjusting, EndToEndAckReachesSink) {
  Network net(line_config(4, 23));
  net.start();
  net.run_for(4_min);
  std::uint32_t acked_seqno = 0;
  NodeId acked_dest = kInvalidNode;
  net.sink().tele()->on_e2e_ack = [&](std::uint32_t seqno, NodeId dest) {
    acked_seqno = seqno;
    acked_dest = dest;
  };
  const auto& code = net.node(3).tele()->addressing().code();
  const auto seq = net.sink().tele()->send_control(3, code, 1);
  ASSERT_TRUE(seq.has_value());
  net.run_for(60_s);
  EXPECT_EQ(acked_seqno, *seq);
  EXPECT_EQ(acked_dest, 3);
}

TEST(TeleAdjusting, DuplicateDeliverySuppressed) {
  Network net(line_config(4, 24));
  net.start();
  net.run_for(4_min);
  int deliveries = 0;
  net.node(3).tele()->on_control_delivered =
      [&deliveries](const msg::ControlPacket&, bool) { ++deliveries; };
  const auto& code = net.node(3).tele()->addressing().code();
  net.sink().tele()->send_control(3, code, 1);
  net.run_for(60_s);
  EXPECT_EQ(deliveries, 1);
}

TEST(TeleAdjusting, SurvivesRelayFailureViaAlternatePath) {
  // Diamond: the encoded path goes through one of {1,2}; kill that relay
  // after code formation and the packet must still arrive (conditions 2/3,
  // backtracking, or Re-Tele).
  Network net(diamond_config(25));
  net.start();
  net.run_for(4_min);
  ASSERT_TRUE(net.node(3).tele()->addressing().has_code());
  const NodeId on_path = net.node(3).tele()->addressing().code_parent();
  ASSERT_TRUE(on_path == 1 || on_path == 2);
  net.node(on_path).kill();
  net.run_for(5_s);
  const Delivery d = send_and_wait(net, 3, 2_min);
  EXPECT_TRUE(d.delivered);
}

TEST(TeleAdjusting, StructuredOnlyModeStillDelivers) {
  // Ablation: opportunism off -> pure expected-relay forwarding.
  NetworkConfig cfg = line_config(4, 26, ControlProtocol::kTele);
  cfg.tele.forwarding.opportunistic = false;
  cfg.tele.forwarding.neighbor_assist = false;
  Network net(cfg);
  net.start();
  net.run_for(4_min);
  const Delivery d = send_and_wait(net, 3, 60_s);
  EXPECT_TRUE(d.delivered);
}

TEST(TeleAdjusting, ReportsFailureWhenDestinationIsolated) {
  NetworkConfig cfg = line_config(4, 27, ControlProtocol::kTele);
  Network net(cfg);
  net.start();
  net.run_for(4_min);
  ASSERT_TRUE(net.node(3).tele()->addressing().has_code());
  const PathCode code = net.node(3).tele()->addressing().code();
  // Cut the line: node 2 is the only way to 3.
  net.node(2).kill();
  net.node(3).kill();
  bool failed = false;
  net.sink().tele()->on_delivery_failed = [&](std::uint32_t) { failed = true; };
  net.sink().tele()->send_control(3, code, 1);
  net.run_for(3_min);
  EXPECT_TRUE(failed);
}

TEST(TeleAdjusting, DetourDeliversWhenEncodedPathDies) {
  // Line 0-1-2-3 plus node 4 parked next to 3 but parented elsewhere is hard
  // to force deterministically; instead verify the detour machinery
  // directly: a manual detour send must arrive as a direct delivery.
  Network net(diamond_config(28));
  net.start();
  net.run_for(4_min);
  auto& dest_addr = net.node(3).tele()->addressing();
  ASSERT_TRUE(dest_addr.has_code());
  const NodeId via = dest_addr.code_parent() == 1 ? 2 : 1;
  ASSERT_TRUE(net.node(via).tele()->addressing().has_code());

  Delivery d;
  net.node(3).tele()->on_control_delivered =
      [&d](const msg::ControlPacket& p, bool direct) {
        d.delivered = true;
        d.direct = direct;
        d.hops = p.hops_so_far;
      };
  net.sink().tele()->forwarding().send_control_detour(
      3, dest_addr.code(), via, net.node(via).tele()->addressing().code(),
      0xABCD, /*seqno=*/991);
  net.run_for(60_s);
  EXPECT_TRUE(d.delivered);
  EXPECT_TRUE(d.direct);
}

TEST(TeleAdjusting, SuggestDetourPrefersDivergentCode) {
  Network net(diamond_config(29));
  net.start();
  net.run_for(4_min);
  const auto detour = net.suggest_detour(3);
  ASSERT_TRUE(detour.has_value());
  // The detour must be a neighbor of 3 other than its own code parent's
  // subtree when possible; in the diamond that's the opposite mid relay.
  EXPECT_TRUE(detour->via == 1 || detour->via == 2);
  EXPECT_FALSE(detour->via_code.empty());
}

TEST(TeleAdjusting, HopCountsRoughlyMatchDepth) {
  Network net(line_config(5, 30));
  net.start();
  net.run_for(4_min);
  // Downward (code-tree) depth equals CTP hops on a stable line.
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_EQ(net.code_tree_depth(i), net.node(i).ctp().hops()) << "node " << i;
  }
}

}  // namespace
}  // namespace telea
