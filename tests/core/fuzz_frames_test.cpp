// Adversarial-input hardening: every protocol handler must survive
// arbitrary garbage frames — corrupted codes, unknown ids, absurd positions,
// inconsistent route headers — without crashing or corrupting local state.
// (A real deployment decodes whatever the air delivers.)

#include <gtest/gtest.h>

#include "harness/network.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace telea {
namespace {

using namespace time_literals;

PathCode random_code(Pcg32& rng) {
  PathCode c;
  const std::size_t len = rng.uniform(80);
  for (std::size_t i = 0; i < len; ++i) {
    (void)c.push_back(rng.chance(0.5));  // under 80 bits: always fits
  }
  return c;
}

class FuzzFrames : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzFrames, TeleHandlersSurviveGarbage) {
  NetworkConfig cfg;
  cfg.topology = make_line(4, 22.0);
  cfg.seed = GetParam();
  cfg.protocol = ControlProtocol::kReTele;
  Network net(cfg);
  net.start();
  net.run_for(3_min);

  Pcg32 rng(GetParam(), 13);
  for (int iter = 0; iter < 400; ++iter) {
    const auto node = static_cast<NodeId>(rng.uniform(4));
    const auto from = static_cast<NodeId>(rng.uniform(200));
    const bool for_me = rng.chance(0.5);
    Frame frame;
    frame.src = from;
    frame.dst = for_me ? node : kBroadcastNode;

    switch (rng.uniform(6)) {
      case 0: {
        msg::ControlPacket p;
        p.dest = static_cast<NodeId>(rng.uniform(300));
        p.dest_code = random_code(rng);
        p.expected_relay = static_cast<NodeId>(rng.uniform(300));
        p.expected_relay_code_len = static_cast<std::uint8_t>(rng.uniform(255));
        // Out of the sink's live seqno range: a forged packet that reuses a
        // seqno the sink will assign later aliases with the real command
        // (seqno-only identity — a documented protocol limitation inherited
        // from the paper; see docs/PROTOCOL.md §7).
        p.seqno = 100000 + rng.uniform(50);
        p.mode = rng.chance(0.2) ? msg::ControlMode::kDirect
                                 : msg::ControlMode::kOpportunistic;
        p.detour_via = rng.chance(0.3)
                           ? static_cast<NodeId>(rng.uniform(300))
                           : kInvalidNode;
        p.detour_code = random_code(rng);
        frame.payload = p;
        break;
      }
      case 1: {
        msg::TeleBeacon b;
        b.parent_code = random_code(rng);
        b.space_bits = static_cast<std::uint8_t>(rng.uniform(64));
        for (std::uint32_t e = 0; e < rng.uniform(6); ++e) {
          b.entries.push_back(msg::AllocationEntry{
              static_cast<NodeId>(rng.uniform(300)), rng.uniform(1u << 16),
              rng.chance(0.5)});
        }
        frame.payload = b;
        break;
      }
      case 2: {
        msg::AllocationAck a;
        a.position = rng.next();
        a.space_bits = static_cast<std::uint8_t>(rng.uniform(64));
        a.parent_code = random_code(rng);
        frame.payload = a;
        break;
      }
      case 3: {
        msg::FeedbackPacket fb;
        fb.packet.dest = static_cast<NodeId>(rng.uniform(300));
        fb.packet.dest_code = random_code(rng);
        fb.packet.seqno = 100000 + rng.uniform(50);
        fb.packet.expected_relay_code_len =
            static_cast<std::uint8_t>(rng.uniform(255));
        frame.payload = fb;
        break;
      }
      case 4: {
        msg::GroupControlPacket g;
        g.group_seqno = rng.uniform(20);
        for (std::uint32_t d = 0; d < rng.uniform(5); ++d) {
          g.dests.push_back(msg::GroupDest{
              static_cast<NodeId>(rng.uniform(300)), random_code(rng)});
        }
        g.expected_relay_code_len =
            static_cast<std::uint8_t>(rng.uniform(255));
        frame.payload = g;
        break;
      }
      default: {
        msg::ConfirmFrame c;
        c.position = rng.next();
        frame.payload = c;
        break;
      }
    }
    // Must not crash, assert, or hang.
    (void)net.node(node).handle_frame(frame, for_me, -70.0);
  }
  // The network self-heals: forged AllocationAcks can poison codes, but
  // position maintenance (claims riding every routing beacon, Alg. 2)
  // repairs them. Give the repair machinery a few beacon rounds.
  net.run_for(6_min);
  bool delivered = false;
  net.node(3).tele()->on_control_delivered =
      [&delivered](const msg::ControlPacket&, bool) { delivered = true; };
  const auto& code = net.node(3).tele()->addressing().code();
  ASSERT_FALSE(code.empty());
  net.sink().tele()->send_control(3, code, 7);
  net.run_for(2_min);
  EXPECT_TRUE(delivered);
}

TEST_P(FuzzFrames, BaselineHandlersSurviveGarbage) {
  for (ControlProtocol proto :
       {ControlProtocol::kDrip, ControlProtocol::kRpl}) {
    NetworkConfig cfg;
    cfg.topology = make_line(3, 22.0);
    cfg.seed = GetParam() ^ 0xF00D;
    cfg.protocol = proto;
    Network net(cfg);
    net.start();
    net.run_for(2_min);
    Pcg32 rng(GetParam(), 17);
    for (int iter = 0; iter < 200; ++iter) {
      const auto node = static_cast<NodeId>(rng.uniform(3));
      Frame frame;
      frame.src = static_cast<NodeId>(rng.uniform(200));
      frame.dst = rng.chance(0.5) ? node : kBroadcastNode;
      if (rng.chance(0.33)) {
        msg::DripMsg m;
        m.version = rng.uniform(100);
        m.dest = static_cast<NodeId>(rng.uniform(300));
        frame.payload = m;
      } else if (rng.chance(0.5)) {
        msg::RplDao dao;
        for (std::uint32_t t = 0; t < rng.uniform(8); ++t) {
          dao.targets.push_back(static_cast<NodeId>(rng.uniform(300)));
        }
        frame.payload = dao;
      } else {
        msg::RplData d;
        d.dest = static_cast<NodeId>(rng.uniform(300));
        d.seqno = rng.uniform(100);
        frame.payload = d;
      }
      (void)net.node(node).handle_frame(frame, frame.dst == node, -70.0);
    }
    net.run_for(1_min);  // no crash
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFrames, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace telea
