// Whole-system determinism: the foundational property that makes every
// experiment in this repository reproducible. Two networks built from the
// same (config, seed) must evolve identically event for event — verified
// through every transmitted copy, trace counts, protocol counters and timing.

#include <gtest/gtest.h>

#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

struct Fingerprint {
  std::uint64_t transmissions = 0;
  std::uint64_t control_txs = 0;
  std::uint64_t parent_changes = 0;
  std::vector<std::uint64_t> per_node_ops;
  SimTime last_tx_time = 0;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.transmissions == b.transmissions &&
           a.control_txs == b.control_txs &&
           a.parent_changes == b.parent_changes &&
           a.per_node_ops == b.per_node_ops &&
           a.last_tx_time == b.last_tx_time;
  }
};

Fingerprint run_once(ControlProtocol proto, std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.topology = make_connected_random(12, 50.0, seed);
  cfg.seed = seed;
  cfg.protocol = proto;
  Network net(cfg);
  Tracer& tracer = net.enable_tracing(1 << 18);
  Fingerprint fp;
  net.medium().add_transmit_hook([&](NodeId, const Frame&, SimTime) {
    ++fp.transmissions;
    fp.last_tx_time = net.sim().now();
  });
  net.start();
  net.run_for(6_min);
  net.start_data_collection(1_min);
  if (proto == ControlProtocol::kReTele) {
    for (NodeId d = 1; d < 4; ++d) {
      const auto* tele = net.node(d).tele();
      if (tele != nullptr && tele->addressing().has_code()) {
        net.sink().tele()->send_control(d, tele->addressing().code(), 1);
      }
      net.run_for(30_s);
    }
  }
  net.run_for(2_min);

  fp.control_txs = tracer.count(TraceEvent::kControlTx);
  fp.parent_changes = tracer.count(TraceEvent::kParentChange);
  for (NodeId i = 0; i < net.size(); ++i) {
    fp.per_node_ops.push_back(net.node(i).mac().send_ops());
  }
  return fp;
}

class Determinism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Determinism, IdenticalRunsAreBitIdentical) {
  const auto a = run_once(ControlProtocol::kReTele, GetParam());
  const auto b = run_once(ControlProtocol::kReTele, GetParam());
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.transmissions, 100u);  // the run actually did something
}

TEST_P(Determinism, DifferentSeedsDiverge) {
  const auto a = run_once(ControlProtocol::kReTele, GetParam());
  const auto b = run_once(ControlProtocol::kReTele, GetParam() + 1);
  EXPECT_FALSE(a == b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Determinism, ::testing::Values(11, 22));

TEST(DeterminismAcrossProtocols, DripAndRplAlsoDeterministic) {
  for (ControlProtocol proto :
       {ControlProtocol::kDrip, ControlProtocol::kRpl}) {
    const auto a = run_once(proto, 33);
    const auto b = run_once(proto, 33);
    EXPECT_TRUE(a == b) << protocol_name(proto);
  }
}

}  // namespace
}  // namespace telea
