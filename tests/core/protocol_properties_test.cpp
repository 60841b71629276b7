// Property-based sweeps over whole-network behaviour: the invariants that
// must hold for any topology/seed, not just the hand-picked unit scenarios.

#include <gtest/gtest.h>

#include <set>

#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

class NetworkProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static NetworkConfig config(std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.topology = make_connected_random(18, 70.0, seed);
    cfg.seed = seed;
    cfg.protocol = ControlProtocol::kReTele;
    return cfg;
  }
};

TEST_P(NetworkProperty, CodesAreUniqueAndPrefixClosed) {
  Network net(config(GetParam()));
  net.start();
  net.run_for(6_min);

  std::set<std::string> codes;
  std::size_t coded = 0;
  for (NodeId i = 0; i < net.size(); ++i) {
    const auto& a = net.node(i).tele()->addressing();
    if (!a.has_code()) continue;
    ++coded;
    // Uniqueness.
    EXPECT_TRUE(codes.insert(a.code().to_string()).second)
        << "duplicate code " << a.code().to_string();
    // Prefix closure along the allocator chain.
    const NodeId p = a.code_parent();
    if (p != kInvalidNode && net.node(p).tele()->addressing().has_code()) {
      const auto& parent_code = net.node(p).tele()->addressing().code();
      EXPECT_TRUE(parent_code.is_prefix_of(a.code()))
          << "node " << i << " under " << p;
    }
  }
  // Connected topology: nearly everyone must be addressable.
  EXPECT_GE(coded, net.size() - 2);
}

TEST_P(NetworkProperty, ControlReachesEveryCodedNode) {
  Network net(config(GetParam() ^ 0xA5A5));
  net.start();
  net.run_for(6_min);

  unsigned sent = 0, delivered = 0;
  for (NodeId dest = 1; dest < net.size(); ++dest) {
    const auto& a = net.node(dest).tele()->addressing();
    if (!a.has_code()) continue;
    bool got = false;
    net.node(dest).tele()->on_control_delivered =
        [&got](const msg::ControlPacket&, bool) { got = true; };
    net.sink().tele()->send_control(dest, a.code(), 1);
    ++sent;
    net.run_for(45_s);
    if (got) ++delivered;
  }
  ASSERT_GE(sent, 15u);
  // Re-Tele on a connected field: a recovery chain (backtrack + origin
  // retry + detour) occasionally overruns the per-packet window, so allow
  // a small number of unlucky misses — wholesale breakage still fails.
  EXPECT_GE(delivered + 2, sent);
}

TEST_P(NetworkProperty, AthxIsPositiveAndBounded) {
  Network net(config(GetParam() ^ 0x77));
  net.start();
  net.run_for(6_min);
  for (NodeId dest : {static_cast<NodeId>(net.size() - 1),
                      static_cast<NodeId>(net.size() / 2)}) {
    const auto& a = net.node(dest).tele()->addressing();
    if (!a.has_code()) continue;
    std::uint8_t hops = 0;
    bool got = false;
    net.node(dest).tele()->on_control_delivered =
        [&](const msg::ControlPacket& p, bool) {
          got = true;
          hops = p.hops_so_far;
        };
    net.sink().tele()->send_control(dest, a.code(), 1);
    net.run_for(45_s);
    if (got) {
      EXPECT_GE(hops, 1u);
      EXPECT_LE(hops, 25u);  // bounded by retries x depth, far below 255
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkProperty,
                         ::testing::Values(101, 202, 303, 404));

class FailureInjection : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureInjection, SurvivesRandomNodeDeaths) {
  NetworkConfig cfg;
  cfg.topology = make_connected_random(20, 60.0, GetParam());
  cfg.seed = GetParam();
  cfg.protocol = ControlProtocol::kReTele;
  Network net(cfg);
  net.start();
  net.run_for(6_min);

  // Kill three random non-sink nodes.
  Pcg32 rng(GetParam(), 5);
  std::set<NodeId> dead;
  while (dead.size() < 3) {
    dead.insert(static_cast<NodeId>(
        1 + rng.uniform(static_cast<std::uint32_t>(net.size() - 1))));
  }
  for (NodeId d : dead) net.node(d).kill();
  net.run_for(1_min);

  // The network keeps operating: no crashes, and commands to surviving,
  // coded nodes mostly still arrive.
  unsigned sent = 0, delivered = 0;
  for (NodeId dest = 1; dest < net.size(); ++dest) {
    if (dead.contains(dest)) continue;
    const auto& a = net.node(dest).tele()->addressing();
    if (!a.has_code()) continue;
    bool got = false;
    net.node(dest).tele()->on_control_delivered =
        [&got](const msg::ControlPacket&, bool) { got = true; };
    net.sink().tele()->send_control(dest, a.code(), 1);
    ++sent;
    net.run_for(30_s);
    if (got) ++delivered;
  }
  ASSERT_GT(sent, 0u);
  // Some destinations may be partitioned by the deaths; requiring >60%
  // catches wholesale breakage without flaking on unlucky partitions.
  EXPECT_GE(delivered * 10, sent * 6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureInjection, ::testing::Values(7, 19));

class WireSizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireSizeProperty, AllFramesFitTheMpdu) {
  // Even with deep sparse-linear codes, every frame must fit 802.15.4.
  Pcg32 rng(GetParam(), 3);
  for (int iter = 0; iter < 100; ++iter) {
    BitString code;
    const std::size_t len = rng.uniform(200) + 1;
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_TRUE(code.push_back(rng.chance(0.5)));
    }

    msg::ControlPacket cp;
    cp.dest_code = code;
    cp.detour_via = rng.chance(0.5) ? static_cast<NodeId>(rng.uniform(100))
                                    : kInvalidNode;
    cp.detour_code = code;
    Frame f;
    f.payload = cp;
    EXPECT_LE(wire_size_bytes(f), 127u) << "code len " << len;

    msg::FeedbackPacket fb;
    fb.packet = cp;
    Frame g;
    g.payload = fb;
    EXPECT_LE(wire_size_bytes(g), 127u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireSizeProperty, ::testing::Values(1, 2));

}  // namespace
}  // namespace telea
