// Integration coverage for the decision-level trace events: the protocol
// stack must emit claim / suppress / backtrack / ack-path records with
// reasons as a control packet traverses a live network, and the JSONL export
// must reconstruct the same trajectory offline.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "harness/network.hpp"
#include "stats/trace.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

TEST(DecisionTrace, HealthyDeliveryEmitsClaimsAndAckPath) {
  NetworkConfig cfg;
  cfg.topology = make_line(4, 22.0);
  cfg.seed = 5;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(cfg);
  Tracer& tracer = net.enable_tracing();
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(3).tele()->addressing().has_code());

  const auto seq = net.sink().tele()->send_control(
      3, net.node(3).tele()->addressing().code(), 1);
  ASSERT_TRUE(seq.has_value());
  net.run_for(2_min);

  // Intermediate relays claim the forwarding task; every claim carries the
  // condition that fired (on a line, the expected relay is hit).
  const auto claims = tracer.by_event(TraceEvent::kForwardDecision);
  ASSERT_FALSE(claims.empty());
  for (const auto& c : claims) {
    EXPECT_NE(c.reason, TraceReason::kNone);
    EXPECT_EQ(c.a, *seq);
  }

  // The end-to-end ack rides the collection plane back to the sink.
  const auto acks = tracer.by_event(TraceEvent::kAckPath);
  EXPECT_FALSE(acks.empty());

  const std::string text = tracer.explain(*seq);
  EXPECT_NE(text.find("claim forwarding"), std::string::npos);
  EXPECT_NE(text.find("relay path: 0"), std::string::npos);
}

TEST(DecisionTrace, DeadRelayProvokesBacktrackWithReason) {
  NetworkConfig cfg;
  cfg.topology = make_line(4, 22.0);
  cfg.seed = 6;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(cfg);
  Tracer& tracer = net.enable_tracing();
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(3).tele()->addressing().has_code());

  // Cut the line at node 2: a control packet for node 3 gets as far as node
  // 1, exhausts its retries into the hole, and must hand the task back.
  net.node(2).kill();
  net.run_for(10_s);
  const auto seq = net.sink().tele()->send_control(
      3, net.node(3).tele()->addressing().code(), 2);
  ASSERT_TRUE(seq.has_value());
  net.run_for(4_min);

  const auto backtracks = tracer.by_event(TraceEvent::kBacktrack);
  ASSERT_FALSE(backtracks.empty());
  for (const auto& b : backtracks) {
    EXPECT_EQ(b.a, *seq);
    EXPECT_TRUE(b.reason == TraceReason::kRetryExhausted ||
                b.reason == TraceReason::kNeighborUnreachable);
  }
  EXPECT_NE(tracer.explain(*seq).find("backtrack"), std::string::npos);
}

TEST(DecisionTrace, JsonlExportReconstructsIdenticalTrajectory) {
  NetworkConfig cfg;
  cfg.topology = make_line(4, 22.0);
  cfg.seed = 7;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(cfg);
  Tracer& tracer = net.enable_tracing();
  net.start();
  net.run_for(6_min);
  const auto seq = net.sink().tele()->send_control(
      3, net.node(3).tele()->addressing().code(), 3);
  ASSERT_TRUE(seq.has_value());
  net.run_for(2_min);

  const std::string path =
      std::string(::testing::TempDir()) + "decision_trace.jsonl";
  ASSERT_TRUE(tracer.write_jsonl(path));
  std::size_t skipped = 0;
  const auto reloaded = load_trace_jsonl(path, &skipped);
  std::remove(path.c_str());
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(reloaded->size(), tracer.size());
  EXPECT_EQ(explain_control(*reloaded, *seq), tracer.explain(*seq));
}

}  // namespace
}  // namespace telea
