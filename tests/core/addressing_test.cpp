#include "core/addressing.hpp"

#include <gtest/gtest.h>

#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

NetworkConfig line_config(std::size_t nodes, std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.topology = make_line(nodes, 22.0);  // adjacent-only links
  cfg.seed = seed;
  cfg.protocol = ControlProtocol::kTele;
  return cfg;
}

class AddressingIntegration : public ::testing::Test {
 protected:
  void converge(Network& net, SimTime duration = 4_min) {
    net.start();
    net.run_for(duration);
  }
  Addressing& addressing(Network& net, NodeId id) {
    return net.node(id).tele()->addressing();
  }
};

TEST_F(AddressingIntegration, SinkSeedsSingleZeroBitCode) {
  Network net(line_config(2, 1));
  net.start();
  EXPECT_TRUE(addressing(net, 0).has_code());
  EXPECT_EQ(addressing(net, 0).code().to_string(), "0");
}

TEST_F(AddressingIntegration, StabilityWindowFollowsWakeInterval) {
  // The initial allocation waits kStableRounds wake intervals of the MAC
  // (Sec. III-B2). Node 2 of a line gets its own code only after nodes 0
  // and 1 have allocated, and its child asks for a position only every few
  // seconds, so its first allocation is the stability window's: it comes no
  // sooner than kStableRounds wake intervals after the trigger, and within
  // twice that (a child found after the trigger restarts the window).
  Network net(line_config(4, 4));
  net.start();
  const Addressing& node2 = addressing(net, 2);
  while (node2.space_bits() == 0 && net.sim().now() < 30_s) {
    net.run_for(10 * kMillisecond);
  }
  ASSERT_GT(node2.space_bits(), 0);
  EXPECT_EQ(node2.stats().requests_served, 0u);  // not an on-demand allocation
  ASSERT_TRUE(node2.triggered_at().has_value());
  const SimTime window = static_cast<SimTime>(kStableRounds) * kWakeInterval;
  EXPECT_GE(net.sim().now() - *node2.triggered_at(), window);
  EXPECT_LT(net.sim().now() - *node2.triggered_at(), 2 * window);
}

TEST_F(AddressingIntegration, WholeLineObtainsCodes) {
  Network net(line_config(5, 2));
  converge(net);
  EXPECT_DOUBLE_EQ(net.code_coverage(), 1.0);
}

TEST_F(AddressingIntegration, ParentCodePrefixesChildCode) {
  Network net(line_config(5, 3));
  converge(net);
  for (NodeId i = 1; i < 5; ++i) {
    const auto& child = addressing(net, i);
    const NodeId p = child.code_parent();
    ASSERT_NE(p, kInvalidNode) << "node " << i;
    const auto& parent = addressing(net, p);
    EXPECT_TRUE(parent.code().is_prefix_of(child.code()))
        << "node " << i << " parent " << p;
    EXPECT_GT(child.code().size(), parent.code().size());
  }
}

TEST_F(AddressingIntegration, CodeLengthGrowsWithDepth) {
  Network net(line_config(6, 4));
  converge(net, 6_min);
  std::size_t prev = addressing(net, 0).code().size();
  for (NodeId i = 1; i < 6; ++i) {
    ASSERT_TRUE(addressing(net, i).has_code()) << "node " << i;
    EXPECT_GT(addressing(net, i).code().size(), prev);
    prev = addressing(net, i).code().size();
  }
}

TEST_F(AddressingIntegration, CodesAreUniqueNetworkWide) {
  NetworkConfig cfg;
  cfg.topology = make_uniform_random(20, 80.0, 5);
  cfg.seed = 5;
  cfg.protocol = ControlProtocol::kTele;
  Network net(cfg);
  converge(net, 6_min);
  std::set<std::string> codes;
  std::size_t with_code = 0;
  for (NodeId i = 0; i < net.size(); ++i) {
    if (!addressing(net, i).has_code()) continue;
    ++with_code;
    codes.insert(addressing(net, i).code().to_string());
  }
  EXPECT_EQ(codes.size(), with_code);
  EXPECT_GE(with_code, net.size() - 2);  // allow stragglers
}

TEST_F(AddressingIntegration, ChildTableConfirmed) {
  Network net(line_config(3, 6));
  converge(net);
  const auto& table = addressing(net, 0).children();
  ASSERT_GE(table.size(), 1u);
  const auto* entry = table.find(1);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->confirmed);
  EXPECT_EQ(entry->new_code.to_string(),
            addressing(net, 1).code().to_string());
}

TEST_F(AddressingIntegration, NeighborCodeTablePopulatedByOverhearing) {
  Network net(line_config(4, 7));
  converge(net);
  // Node 2 overhears node 1's TeleBeacons: knows 1's code (its parent) and
  // derives 2's own siblings from entries; at minimum the parent is known.
  const auto& neighbors = addressing(net, 2).neighbors();
  const auto* e = neighbors.find(1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->new_code.to_string(), addressing(net, 1).code().to_string());
}

TEST_F(AddressingIntegration, BeaconPiggybackCarriesClaim) {
  Network net(line_config(3, 8));
  converge(net);
  msg::CtpBeacon beacon;
  net.node(1).tele()->addressing().fill_beacon(beacon);
  EXPECT_TRUE(beacon.has_position_claim);
  EXPECT_EQ(beacon.claimed_code_len, addressing(net, 1).code().size());
}

TEST_F(AddressingIntegration, ConvergenceTimesRecorded) {
  Network net(line_config(4, 9));
  converge(net);
  for (NodeId i = 1; i < 4; ++i) {
    ASSERT_TRUE(addressing(net, i).triggered_at().has_value());
    ASSERT_TRUE(addressing(net, i).code_assigned_at().has_value());
    EXPECT_GE(*addressing(net, i).code_assigned_at(),
              *addressing(net, i).triggered_at());
  }
}

TEST_F(AddressingIntegration, OnDemandAllocationForPositionRequest) {
  Network net(line_config(2, 10));
  converge(net, 2_min);
  Addressing& sink = addressing(net, 0);
  const std::size_t before = sink.children().size();
  // A (synthetic) new child asks for a position directly.
  const AckDecision d = sink.handle_position_request(77, /*for_me=*/true);
  EXPECT_EQ(d, AckDecision::kAcceptAndAck);
  EXPECT_EQ(sink.children().size(), before + 1);
  EXPECT_NE(sink.children().find(77), nullptr);
}

TEST_F(AddressingIntegration, SpaceExtendsWhenPositionsExhaust) {
  Network net(line_config(2, 11));
  converge(net, 2_min);
  Addressing& sink = addressing(net, 0);
  const std::uint8_t before_bits = sink.space_bits();
  ASSERT_GT(before_bits, 0);
  // Flood with synthetic children until the space must extend.
  const std::uint32_t capacity = (1u << before_bits) - 1;  // zero reserved
  for (std::uint32_t i = 0; i <= capacity + 1; ++i) {
    sink.handle_position_request(static_cast<NodeId>(500 + i), true);
  }
  EXPECT_GT(sink.space_bits(), before_bits);
  // Existing children keep their positions across the extension (III-B6).
  const auto* first = sink.children().find(1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->new_code.size(),
            sink.code().size() + sink.space_bits());
}

TEST_F(AddressingIntegration, ParentChangeTriggersNewPosition) {
  Network net(line_config(3, 12));
  converge(net);
  Addressing& a2 = addressing(net, 2);
  ASSERT_TRUE(a2.has_position());
  const PathCode old_code = a2.code();
  // Simulate CTP reparenting: position invalidated, then re-requested.
  net.node(2).on_parent_changed(1, 0);
  EXPECT_FALSE(a2.has_position());
  EXPECT_EQ(a2.code(), old_code);  // stale code stays operative meanwhile
}

}  // namespace
}  // namespace telea
