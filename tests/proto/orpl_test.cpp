// ORPL-lite behaviour: filter propagation up the DODAG, anycast downward
// delivery, and the Bloom false-positive failure mode the paper critiques.

#include "proto/orpl.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

NetworkConfig orpl_cfg(std::size_t nodes, std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.topology = make_line(nodes, 22.0);
  cfg.seed = seed;
  cfg.protocol = ControlProtocol::kOrpl;
  return cfg;
}

TEST(Orpl, FiltersPropagateUpTheLine) {
  Network net(orpl_cfg(4, 71));
  net.start();
  net.run_for(4_min);
  // Every node's member set contains its whole subtree.
  EXPECT_TRUE(net.node(1).orpl()->members().contains(2));
  EXPECT_TRUE(net.node(1).orpl()->members().contains(3));
  EXPECT_TRUE(net.node(2).orpl()->members().contains(3));
  // And the sink believes everyone is reachable downward.
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_TRUE(net.sink().orpl()->believes_reachable(i)) << "node " << i;
  }
}

TEST(Orpl, DownwardDeliveryAcrossHops) {
  Network net(orpl_cfg(4, 72));
  net.start();
  net.run_for(4_min);
  bool delivered = false;
  net.node(3).orpl()->on_delivered = [&](const msg::OrplData& d) {
    delivered = true;
    EXPECT_EQ(d.command, 9);
  };
  ASSERT_TRUE(net.sink().orpl()->send_downward(3, 9, 1));
  net.run_for(1_min);
  EXPECT_TRUE(delivered);
}

TEST(Orpl, SendFailsBeforeAnnouncements) {
  Network net(orpl_cfg(3, 73));
  net.start();
  EXPECT_FALSE(net.sink().orpl()->send_downward(2, 1, 1));
}

TEST(Orpl, SequentialCommandsAllDelivered) {
  Network net(orpl_cfg(4, 74));
  net.start();
  net.run_for(4_min);
  int got = 0;
  net.node(2).orpl()->on_delivered = [&](const msg::OrplData&) { ++got; };
  for (std::uint32_t s = 1; s <= 3; ++s) {
    net.sink().orpl()->send_downward(2, 0, s);
    net.run_for(30_s);
  }
  EXPECT_EQ(got, 3);
}

TEST(Orpl, DeadSubtreeBurnsRetriesAndDrops) {
  // Kill the destination's whole branch: the sender's (stale) filter still
  // claims reachability, transmissions burn out, the packet drops — the
  // "ineffectual transmissions" the paper attributes to ORPL.
  Network net(orpl_cfg(4, 75));
  net.start();
  net.run_for(4_min);
  net.node(2).kill();
  net.node(3).kill();
  bool delivered = false;
  int drops = 0;
  net.node(3).orpl()->on_delivered = [&](const msg::OrplData&) {
    delivered = true;
  };
  for (NodeId i = 0; i < net.size(); ++i) {
    net.node(i).orpl()->on_drop = [&drops](std::uint32_t) { ++drops; };
  }
  ASSERT_TRUE(net.sink().orpl()->send_downward(3, 1, 5));
  net.run_for(2_min);
  EXPECT_FALSE(delivered);
  EXPECT_GE(drops, 1);
}

TEST(Orpl, StatsCountActivity) {
  Network net(orpl_cfg(3, 76));
  net.start();
  net.run_for(4_min);
  EXPECT_GT(net.node(1).orpl()->stats().announces_sent, 2u);
  net.sink().orpl()->send_downward(2, 1, 1);
  net.run_for(1_min);
  EXPECT_EQ(net.node(2).orpl()->stats().deliveries, 1u);
  EXPECT_GE(net.node(1).orpl()->stats().claims, 1u);
}

TEST(Orpl, PacketRefusedForAFullQueueIsTakenLater) {
  Network net(orpl_cfg(4, 77));
  net.start();
  net.run_for(4_min);
  OrplNode& relay = *net.node(1).orpl();
  ASSERT_TRUE(relay.members().contains(3));
  std::vector<std::uint32_t> delivered;
  net.node(3).orpl()->on_delivered = [&](const msg::OrplData& d) {
    delivered.push_back(d.seqno);
  };
  const auto offer = [&](std::uint32_t seqno) {
    msg::OrplData d;
    d.dest = 3;
    d.seqno = seqno;
    d.sender_etx10 = net.sink().ctp().path_etx10();
    return relay.handle_data(0, d);
  };
  // The queue holds 12 packets, the one on the air included.
  for (std::uint32_t s = 1; s <= 12; ++s) {
    ASSERT_EQ(offer(s), AckDecision::kAcceptAndAck) << "packet " << s;
  }
  EXPECT_EQ(offer(13), AckDecision::kIgnore);
  net.run_for(1_min);  // the queue drains
  EXPECT_EQ(offer(13), AckDecision::kAcceptAndAck);
  net.run_for(30_s);
  EXPECT_EQ(relay.stats().claims, 13u);
  EXPECT_NE(std::find(delivered.begin(), delivered.end(), 13u),
            delivered.end());
}

}  // namespace
}  // namespace telea
