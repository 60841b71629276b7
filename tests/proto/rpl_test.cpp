#include "proto/rpl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

NetworkConfig rpl_config(std::size_t nodes, std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.topology = make_line(nodes, 22.0);
  cfg.seed = seed;
  cfg.protocol = ControlProtocol::kRpl;
  return cfg;
}

TEST(Rpl, DaosPopulateRootRoutingTable) {
  Network net(rpl_config(4, 1));
  net.start();
  net.run_for(4_min);
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_TRUE(net.sink().rpl()->has_route_to(i)) << "node " << i;
  }
}

TEST(Rpl, IntermediateNodesStoreDescendantsOnly) {
  Network net(rpl_config(4, 2));
  net.start();
  net.run_for(4_min);
  // Node 1's stored routes cover 2 and 3 (its subtree), not the sink.
  EXPECT_TRUE(net.node(1).rpl()->has_route_to(2));
  EXPECT_TRUE(net.node(1).rpl()->has_route_to(3));
  EXPECT_FALSE(net.node(1).rpl()->has_route_to(0));
  // Leaf stores nothing.
  EXPECT_EQ(net.node(3).rpl()->route_count(), 0u);
}

TEST(Rpl, DownwardDeliveryAcrossHops) {
  Network net(rpl_config(4, 3));
  net.start();
  net.run_for(4_min);
  bool delivered = false;
  net.node(3).rpl()->on_delivered = [&](const msg::RplData& d) {
    delivered = true;
    EXPECT_EQ(d.command, 55);
    EXPECT_EQ(d.hops_so_far, 3u);
  };
  ASSERT_TRUE(net.sink().rpl()->send_downward(3, 55, 1));
  net.run_for(30_s);
  EXPECT_TRUE(delivered);
}

TEST(Rpl, SendFailsWithoutStoredRoute) {
  Network net(rpl_config(3, 4));
  net.start();
  // Before any DAO arrives there is no downward state.
  EXPECT_FALSE(net.sink().rpl()->send_downward(2, 1, 1));
}

TEST(Rpl, DeterministicForwardingDropsWhenRelayDies) {
  Network net(rpl_config(4, 5));
  net.start();
  net.run_for(4_min);
  ASSERT_TRUE(net.sink().rpl()->has_route_to(3));
  // Kill the only relay: storing-mode RPL has no alternative.
  net.node(1).kill();
  bool delivered = false;
  net.node(3).rpl()->on_delivered = [&](const msg::RplData&) {
    delivered = true;
  };
  net.sink().rpl()->send_downward(3, 1, 9);
  net.run_for(2_min);
  EXPECT_FALSE(delivered);
}

TEST(Rpl, RoutesExpireWithoutRefresh) {
  Network net(rpl_config(3, 6));
  net.start();
  net.run_for(4_min);
  ASSERT_TRUE(net.sink().rpl()->has_route_to(2));
  net.node(2).kill();
  // Node 1 keeps advertising its own stored route to 2 until that route
  // reaches the 15-min lifetime, and the root's copy lives 15 min past its
  // last refresh: still routed after 14 min, expired after two lifetimes.
  net.run_for(14_min);
  EXPECT_TRUE(net.sink().rpl()->has_route_to(2));
  net.run_for(18_min);
  EXPECT_FALSE(net.sink().rpl()->has_route_to(2));
  EXPECT_FALSE(net.sink().rpl()->send_downward(2, 1, 1));
  EXPECT_TRUE(net.sink().rpl()->has_route_to(1));  // refreshed every minute
}

TEST(Rpl, LargeTargetSetIsChunkedAcrossDaos) {
  Network net(rpl_config(3, 10));
  net.start();
  net.run_for(4_min);
  // 60 targets below node 1: one DAO of its 62 targets would be 125 payload
  // bytes, past the 114 the MPDU leaves.
  msg::RplDao below;
  for (NodeId t = 100; t < 160; ++t) below.targets.push_back(t);
  EXPECT_EQ(net.node(1).rpl()->handle_dao(2, below, true),
            AckDecision::kAcceptAndAck);

  std::set<std::uint32_t> daos;  // link sequence numbers of node 1's DAOs
  std::set<NodeId> advertised;
  net.medium().add_transmit_hook([&](NodeId src, const Frame& f, SimTime) {
    const auto* dao = std::get_if<msg::RplDao>(&f.payload);
    if (src != 1 || dao == nullptr) return;
    EXPECT_LE(wire_size_bytes(f), kMaxMpduBytes);
    daos.insert(f.link_seq);
    advertised.insert(dao->targets.begin(), dao->targets.end());
  });
  net.run_for(30_s);  // the triggered DAO follows within 5 s
  EXPECT_GE(daos.size(), 2u);
  for (NodeId t = 100; t < 160; ++t) {
    EXPECT_TRUE(advertised.contains(t)) << "target " << t;
    EXPECT_TRUE(net.sink().rpl()->has_route_to(t)) << "target " << t;
  }
}

TEST(Rpl, PacketRefusedForAFullQueueIsTakenLater) {
  Network net(rpl_config(4, 11));
  net.start();
  net.run_for(4_min);
  RplNode& relay = *net.node(1).rpl();
  ASSERT_TRUE(relay.has_route_to(3));
  std::vector<std::uint32_t> relayed;
  std::vector<std::uint32_t> delivered;
  relay.on_relayed = [&](const msg::RplData& d) { relayed.push_back(d.seqno); };
  net.node(3).rpl()->on_delivered = [&](const msg::RplData& d) {
    delivered.push_back(d.seqno);
  };
  const auto offer = [&relay](std::uint32_t seqno) {
    msg::RplData d;
    d.dest = 3;
    d.seqno = seqno;
    return relay.handle_data(0, d, true);
  };
  // The queue holds 12 packets, the one on the air included.
  for (std::uint32_t s = 1; s <= 12; ++s) {
    ASSERT_EQ(offer(s), AckDecision::kAcceptAndAck) << "packet " << s;
  }
  EXPECT_EQ(offer(13), AckDecision::kIgnore);
  net.run_for(1_min);  // the queue drains
  EXPECT_EQ(offer(13), AckDecision::kAcceptAndAck);
  net.run_for(30_s);
  EXPECT_EQ(relayed.size(), 13u);
  EXPECT_EQ(relayed.back(), 13u);
  EXPECT_NE(std::find(delivered.begin(), delivered.end(), 13u),
            delivered.end());
}

TEST(Rpl, RelayHookFires) {
  Network net(rpl_config(4, 7));
  net.start();
  net.run_for(4_min);
  int relays = 0;
  for (NodeId i = 1; i < 4; ++i) {
    net.node(i).rpl()->on_relayed = [&relays](const msg::RplData&) {
      ++relays;
    };
  }
  net.sink().rpl()->send_downward(3, 1, 2);
  net.run_for(30_s);
  EXPECT_EQ(relays, 2);  // nodes 1 and 2 relayed; 3 consumed
}

TEST(Rpl, SequentialCommandsAllDelivered) {
  Network net(rpl_config(3, 8));
  net.start();
  net.run_for(4_min);
  int deliveries = 0;
  net.node(2).rpl()->on_delivered = [&](const msg::RplData&) {
    ++deliveries;
  };
  for (std::uint32_t s = 1; s <= 3; ++s) {
    net.sink().rpl()->send_downward(2, 0, s);
    net.run_for(30_s);
  }
  EXPECT_EQ(deliveries, 3);
}

}  // namespace
}  // namespace telea
