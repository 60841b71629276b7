#include "harness/controller.hpp"

#include <gtest/gtest.h>

#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

NetworkConfig cfg(std::uint64_t seed) {
  NetworkConfig c;
  c.topology = make_line(4, 22.0);
  c.seed = seed;
  c.protocol = ControlProtocol::kReTele;
  return c;
}

TEST(Controller, CountsReportsPerOrigin) {
  Network net(cfg(1));
  Controller controller(net);
  net.start();
  net.run_for(3_min);
  net.start_data_collection(30_s);
  net.run_for(3_min);
  EXPECT_GE(controller.reports_from(1), 3u);
  EXPECT_GE(controller.reports_from(3), 2u);
  EXPECT_EQ(controller.reports_from(99), 0u);
}

TEST(Controller, DetectsQuietNode) {
  Network net(cfg(2));
  Controller controller(net);
  net.start();
  net.run_for(3_min);
  net.start_data_collection(30_s);
  net.run_for(4_min);
  controller.begin_window();
  net.node(3).kill();
  net.run_for(4_min);
  const auto quiet = controller.quiet_nodes(/*expected=*/3, /*floor=*/1);
  ASSERT_EQ(quiet.size(), 1u);
  EXPECT_EQ(quiet[0], 3);
}

TEST(Controller, SendsCommandAndSeesAck) {
  Network net(cfg(3));
  Controller controller(net);
  net.start();
  net.run_for(4_min);
  bool delivered = false;
  net.node(2).tele()->on_control_delivered =
      [&delivered](const msg::ControlPacket&, bool) { delivered = true; };
  const auto seq = controller.send_command(2, 0x77);
  ASSERT_TRUE(seq.has_value());
  net.run_for(1_min);
  EXPECT_TRUE(delivered);
  ASSERT_EQ(controller.acked().size(), 1u);
  EXPECT_EQ(controller.acked()[0], *seq);
}

TEST(Controller, RejectsUncodedOrUnknownTargets) {
  Network net(cfg(4));
  Controller controller(net);
  net.start();  // no convergence: nobody has codes yet
  EXPECT_FALSE(controller.send_command(2, 1).has_value());
  EXPECT_FALSE(controller.send_command(99, 1).has_value());
}

TEST(Controller, ResolvesAckedCommandThroughCallback) {
  Network net(cfg(6));
  Controller controller(net);
  net.start();
  net.run_for(4_min);
  std::vector<CommandResolution> resolutions;
  controller.on_command_resolved =
      [&resolutions](const CommandResolution& res) {
        resolutions.push_back(res);
      };
  const auto seq = controller.send_command(2, 0x42);
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(controller.pending_commands(), 1u);
  net.run_for(1_min);
  ASSERT_EQ(resolutions.size(), 1u);
  EXPECT_EQ(resolutions[0].outcome, CommandOutcome::kAcked);
  EXPECT_EQ(resolutions[0].dest, 2);
  EXPECT_EQ(resolutions[0].first_seqno, *seq);
  EXPECT_EQ(resolutions[0].attempts, 1u);
  EXPECT_GT(resolutions[0].resolved_at, resolutions[0].issued_at);
  EXPECT_EQ(controller.pending_commands(), 0u);
  EXPECT_EQ(controller.resolved_acked(), 1u);
}

TEST(Controller, RetriesUntilDestinationRevives) {
  Network net(cfg(7));
  Controller controller(net);
  net.start();
  net.run_for(4_min);
  net.node(3).kill();
  std::optional<CommandResolution> resolution;
  controller.on_command_resolved =
      [&resolution](const CommandResolution& res) { resolution = res; };
  const auto seq = controller.send_command(3, 0x43);
  ASSERT_TRUE(seq.has_value());
  // The first retry follows 25 s (+-25 %) after the send or after the
  // forwarding plane's failure verdict, whichever is later.
  net.run_for(90_s);
  EXPECT_FALSE(resolution.has_value());  // still down, still retrying
  EXPECT_GE(controller.retries(), 1u);
  net.node(3).revive();
  net.run_for(4_min);
  ASSERT_TRUE(resolution.has_value());
  EXPECT_EQ(resolution->outcome, CommandOutcome::kAcked);
  EXPECT_GE(resolution->attempts, 2u);
  EXPECT_EQ(controller.pending_commands(), 0u);
}

TEST(Controller, GivesUpAfterRetryBudget) {
  Network net(cfg(8));
  Controller controller(net);
  net.start();
  net.run_for(4_min);
  net.node(3).kill();
  std::optional<CommandResolution> resolution;
  controller.on_command_resolved =
      [&resolution](const CommandResolution& res) { resolution = res; };
  const auto seq = controller.send_command(3, 0x44);
  ASSERT_TRUE(seq.has_value());
  // Timeouts of 25, 50, 100, 120 and 120 s (+-25 %), each counted from the
  // later of the send and the forwarding plane's failure verdict: four
  // retries, then the give-up.
  net.run_for(15_min);
  ASSERT_TRUE(resolution.has_value());
  EXPECT_EQ(resolution->outcome, CommandOutcome::kGaveUp);
  EXPECT_EQ(resolution->attempts, 5u);  // initial + 4 retries
  EXPECT_EQ(controller.gave_up(), 1u);
  EXPECT_EQ(controller.retries(), 4u);
  EXPECT_EQ(controller.pending_commands(), 0u);
}

TEST(Controller, EscalatesToReTeleDetourAfterPlainRetries) {
  Network net(cfg(9));
  net.enable_tracing();
  Controller controller(net);
  net.start();
  net.run_for(4_min);
  net.node(3).kill();
  ASSERT_TRUE(controller.send_command(3, 0x45).has_value());
  net.run_for(15_min);
  // After two plain retries the controller goes through the Re-Tele detour
  // path (node 3's code is known; node 2 is its detour neighbor).
  EXPECT_GE(controller.escalations(), 1u);
  bool saw_escalated_retry = false;
  for (const auto& rec : net.tracer()->snapshot()) {
    if (rec.event == TraceEvent::kCommandRetry &&
        rec.reason == TraceReason::kEscalated && rec.b == 3) {
      saw_escalated_retry = true;
    }
  }
  EXPECT_TRUE(saw_escalated_retry);
}

TEST(Controller, NoCodeResolvesImmediately) {
  Network net(cfg(10));
  Controller controller(net);
  std::vector<CommandResolution> resolutions;
  controller.on_command_resolved =
      [&resolutions](const CommandResolution& res) {
        resolutions.push_back(res);
      };
  net.start();  // no convergence: nobody has codes yet
  EXPECT_FALSE(controller.send_command(2, 1).has_value());
  ASSERT_EQ(resolutions.size(), 1u);
  EXPECT_EQ(resolutions[0].outcome, CommandOutcome::kNoCode);
  EXPECT_EQ(resolutions[0].dest, 2);
  EXPECT_EQ(controller.no_code(), 1u);
  EXPECT_EQ(controller.pending_commands(), 0u);
}

TEST(Controller, DisabledRetryKeepsFireAndForget) {
  Network net(cfg(11));
  ControllerRetryConfig retry;
  retry.enabled = false;
  Controller controller(net, retry);
  net.start();
  net.run_for(4_min);
  net.node(3).kill();
  ASSERT_TRUE(controller.send_command(3, 0x46).has_value());
  net.run_for(3_min);
  EXPECT_TRUE(controller.acked().empty());
  EXPECT_EQ(controller.pending_commands(), 0u);
  EXPECT_EQ(controller.retries(), 0u);
  EXPECT_EQ(controller.gave_up(), 0u);
}

TEST(Controller, ExportsLifecycleMetrics) {
  Network net(cfg(12));
  Controller controller(net);
  net.start();
  net.run_for(4_min);
  net.node(3).kill();
  controller.send_command(3, 0x47);
  controller.send_command(2, 0x48);
  net.run_for(15_min);
  MetricsRegistry registry;
  controller.collect_metrics(registry);
  EXPECT_EQ(registry.counter("telea_controller_retries_total").value(),
            controller.retries());
  EXPECT_EQ(registry.counter("telea_controller_gave_up_total").value(), 1u);
  EXPECT_EQ(registry.counter("telea_controller_acked_total").value(), 1u);
  EXPECT_EQ(registry.gauge("telea_controller_pending").value(), 0.0);
}

}  // namespace
}  // namespace telea
