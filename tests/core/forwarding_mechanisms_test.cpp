// Tests for the forwarding engine's robustness machinery: claim deferral,
// yield on ignored re-acks, origin retry, feedback retries, and
// ack-overheard suppression.

#include <gtest/gtest.h>

#include <optional>
#include <variant>

#include "core/teleadjusting.hpp"
#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

NetworkConfig line_config(std::size_t nodes, std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.topology = make_line(nodes, 22.0);
  cfg.seed = seed;
  cfg.protocol = ControlProtocol::kTele;
  return cfg;
}

TEST(ForwardingMechanisms, NoteAckOverheardSuppressesState) {
  Network net(line_config(3, 41));
  net.start();
  net.run_for(4_min);
  auto& fwd = net.sink().tele()->forwarding();
  // Even for an unknown seqno this must create a finished tombstone.
  fwd.note_ack_overheard(777);
  // A later control frame for that seqno is ignored (no claim) at the node
  // that overheard the ack...
  msg::ControlPacket packet;
  packet.seqno = 777;
  packet.dest = 2;
  packet.dest_code = net.node(2).tele()->addressing().code();
  packet.expected_relay_code_len = 0;
  EXPECT_EQ(fwd.handle_control(1, packet, true), AckDecision::kIgnore);
  // ...while a node that did NOT hear the ack still claims normally.
  EXPECT_EQ(net.node(1).tele()->forwarding().handle_control(0, packet, true),
            AckDecision::kAcceptAndAck);
}

TEST(ForwardingMechanisms, OriginRetryRecoversFromTransientDeadEnd) {
  // Line 0-1-2: kill node 1 briefly-ish at send time is impossible (kill is
  // permanent), so instead verify the retry path fires: origin retry is
  // enabled by default and a send to a live network succeeds even when the
  // first candidate is marked unreachable.
  Network net(line_config(3, 42));
  net.start();
  net.run_for(4_min);
  // Poison the sink's view of its only child: first attempt will find no
  // candidate and schedule the origin retry, which clears the mark.
  net.sink().tele()->addressing().neighbors().mark_unreachable(
      1, net.sim().now());
  bool delivered = false;
  net.node(2).tele()->on_control_delivered =
      [&delivered](const msg::ControlPacket&, bool) { delivered = true; };
  const auto& code = net.node(2).tele()->addressing().code();
  net.sink().tele()->send_control(2, code, 1);
  net.run_for(30_s);
  EXPECT_TRUE(delivered);
}

TEST(ForwardingMechanisms, FailureReportedOnlyAfterOriginRetries) {
  Network net(line_config(3, 43));
  net.start();
  net.run_for(4_min);
  const PathCode code = net.node(2).tele()->addressing().code();
  net.node(1).kill();
  net.node(2).kill();
  bool failed = false;
  SimTime failed_at = 0;
  net.sink().tele()->on_delivery_failed = [&](std::uint32_t) {
    failed = true;
    failed_at = net.sim().now();
  };
  const SimTime sent_at = net.sim().now();
  net.sink().tele()->send_control(2, code, 1);
  net.run_for(2_min);
  ASSERT_TRUE(failed);
  // At least one full attempt + the 3 s retry delay + second attempt elapsed.
  EXPECT_GT(failed_at - sent_at, 3_s);
}

TEST(ForwardingMechanisms, ClaimDeferDelaysForward) {
  Network net(line_config(3, 44));
  net.start();
  net.run_for(4_min);
  // Node 1 relays 0 -> 2. Measure the defer where it happens: from node 1's
  // claim to its first transmitted copy of the packet.
  std::optional<SimTime> claimed_at;
  std::optional<SimTime> first_tx_at;
  net.node(1).tele()->forwarding().on_claimed =
      [&](const msg::ControlPacket&) {
        if (!claimed_at) claimed_at = net.sim().now();
      };
  net.medium().add_transmit_hook([&](NodeId src, const Frame& frame, SimTime) {
    if (src == 1 && claimed_at && !first_tx_at &&
        std::holds_alternative<msg::ControlPacket>(frame.payload)) {
      first_tx_at = net.sim().now();
    }
  });
  bool delivered = false;
  net.node(2).tele()->on_control_delivered =
      [&delivered](const msg::ControlPacket&, bool) { delivered = true; };
  const auto& code = net.node(2).tele()->addressing().code();
  net.sink().tele()->send_control(2, code, 1);
  net.run_for(1_min);
  ASSERT_TRUE(delivered);
  ASSERT_TRUE(claimed_at.has_value());
  ASSERT_TRUE(first_tx_at.has_value());
  // Without the defer the first copy leaves at the claim instant.
  const SimTime gap = *first_tx_at - *claimed_at;
  EXPECT_GT(gap, SimTime{0});
  EXPECT_GE(gap, kClaimDefer);
}

TEST(ForwardingMechanisms, AblationFlagsDisableMechanisms) {
  NetworkConfig cfg = line_config(3, 45);
  cfg.tele.forwarding.backtracking = false;
  Network net(cfg);
  net.start();
  net.run_for(4_min);
  // Still delivers on a healthy network.
  bool delivered = false;
  net.node(2).tele()->on_control_delivered =
      [&delivered](const msg::ControlPacket&, bool) { delivered = true; };
  net.sink().tele()->send_control(
      2, net.node(2).tele()->addressing().code(), 1);
  net.run_for(30_s);
  EXPECT_TRUE(delivered);
}

TEST(ForwardingMechanisms, SeqnosAdvancePerSend) {
  Network net(line_config(3, 46));
  net.start();
  net.run_for(4_min);
  const auto& code = net.node(2).tele()->addressing().code();
  const auto a = net.sink().tele()->send_control(2, code, 1);
  const auto b = net.sink().tele()->send_control(2, code, 2);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(*a + 1, *b);
}

}  // namespace
}  // namespace telea
