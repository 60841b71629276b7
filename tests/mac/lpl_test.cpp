#include "mac/lpl.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

namespace telea {
namespace {

using namespace time_literals;

/// Scripted upper layer.
class FakeHandler final : public FrameHandler {
 public:
  AckDecision decision_for_me = AckDecision::kAcceptAndAck;
  AckDecision decision_overheard = AckDecision::kIgnore;
  std::vector<Frame> delivered;
  std::vector<bool> for_me_flags;

  AckDecision handle_frame(const Frame& frame, bool for_me,
                           double /*rssi*/) override {
    delivered.push_back(frame);
    for_me_flags.push_back(for_me);
    return for_me ? decision_for_me : decision_overheard;
  }
};

CpmNoiseModel quiet_noise() {
  std::vector<std::int8_t> trace(200, -98);
  return CpmNoiseModel(trace, 2);
}

class LplTest : public ::testing::Test {
 protected:
  void build(int nodes, double spacing) {
    std::vector<Position> pos;
    for (int i = 0; i < nodes; ++i) pos.push_back({i * spacing, 0.0});
    PathLossConfig pl;
    pl.exponent = 4.0;
    pl.loss_at_reference_db = 40.0;
    pl.shadowing_sigma_db = 0.0;
    gains_ = std::make_unique<LinkGainTable>(pos, pl, 1);
    noise_ = std::make_unique<CpmNoiseModel>(quiet_noise());
    medium_ = std::make_unique<RadioMedium>(sim_, *gains_, *noise_,
                                            /*tx_power_dbm=*/0.0, 7);
    for (int i = 0; i < nodes; ++i) {
      handlers_.push_back(std::make_unique<FakeHandler>());
      macs_.push_back(std::make_unique<LplMac>(
          sim_, *medium_, router_, static_cast<NodeId>(i), 1000 + i));
      macs_.back()->set_handler(*handlers_.back());
      macs_.back()->start();
    }
  }

  Frame data_to(NodeId dst) {
    Frame f;
    f.dst = dst;
    f.payload = msg::CtpData{};
    return f;
  }

  Frame broadcast() {
    Frame f;
    f.dst = kBroadcastNode;
    f.payload = msg::CtpBeacon{};
    return f;
  }

  Simulator sim_;
  TraceRouter router_{sim_};
  std::unique_ptr<LinkGainTable> gains_;
  std::unique_ptr<CpmNoiseModel> noise_;
  std::unique_ptr<RadioMedium> medium_;
  std::vector<std::unique_ptr<FakeHandler>> handlers_;
  std::vector<std::unique_ptr<LplMac>> macs_;
};

TEST_F(LplTest, UnicastDeliveredAcrossSleepSchedule) {
  build(2, 5.0);
  bool done = false;
  SendResult result;
  macs_[0]->send(data_to(1), [&](const SendResult& r) {
    done = true;
    result = r;
  });
  sim_.run_until(3_s);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.acker, 1);
  EXPECT_GE(result.copies, 1u);
  ASSERT_EQ(handlers_[1]->delivered.size(), 1u);
  EXPECT_TRUE(handlers_[1]->for_me_flags[0]);
}

TEST_F(LplTest, UnicastCopiesBoundedByWakeInterval) {
  build(2, 5.0);
  SendResult result;
  macs_[0]->send(data_to(1), [&](const SendResult& r) { result = r; });
  sim_.run_until(3_s);
  // The receiver wakes within one interval; the sender must never need much
  // more than a full interval's worth of copies (~512ms / ~2.5ms each).
  EXPECT_LE(result.copies, 260u);
}

TEST_F(LplTest, UnicastToDeadNodeFails) {
  build(2, 500.0);  // out of range
  bool done = false;
  SendResult result;
  macs_[0]->send(data_to(1), [&](const SendResult& r) {
    done = true;
    result = r;
  });
  sim_.run_until(3_s);
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.success);
  EXPECT_GT(result.copies, 100u);  // kept trying for a full sweep
}

TEST_F(LplTest, BroadcastReachesAllNeighbors) {
  build(4, 4.0);
  bool done = false;
  macs_[0]->send(broadcast(), [&](const SendResult& r) {
    done = true;
    EXPECT_TRUE(r.success);
  });
  sim_.run_until(3_s);
  EXPECT_TRUE(done);
  // Every node wakes at least once during the full-interval broadcast and
  // hears a copy; the MAC delivers exactly one per node.
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(handlers_[static_cast<size_t>(i)]->delivered.size(), 1u)
        << "node " << i;
  }
}

TEST_F(LplTest, DuplicateCopiesSuppressedButReAcked) {
  build(2, 5.0);
  // Two sends of distinct frames: receiver sees exactly two deliveries even
  // though dozens of copies were transmitted.
  int completed = 0;
  macs_[0]->send(data_to(1), [&](const SendResult&) { ++completed; });
  macs_[0]->send(data_to(1), [&](const SendResult&) { ++completed; });
  sim_.run_until(5_s);
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(handlers_[1]->delivered.size(), 2u);
}

TEST_F(LplTest, QueueLimitRejectsExcess) {
  build(2, 5.0);
  // The queue holds 8 frames, the one on the air included.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(macs_[0]->send(data_to(1), nullptr)) << "frame " << i;
  }
  EXPECT_FALSE(macs_[0]->send(data_to(1), nullptr));
}

TEST_F(LplTest, BaselineDutyCycleIsLow) {
  build(2, 5.0);
  // No traffic: duty cycle is just the periodic CCA window.
  sim_.run_until(60_s);
  const double duty = macs_[1]->duty_cycle();
  EXPECT_GT(duty, 0.005);
  EXPECT_LT(duty, 0.08);
}

TEST_F(LplTest, DutyCycleRisesWithTraffic) {
  build(2, 5.0);
  sim_.run_until(10_s);
  const double idle_duty = macs_[1]->duty_cycle();
  for (int i = 0; i < 20; ++i) {
    macs_[0]->send(data_to(1), nullptr);
  }
  sim_.run_until(30_s);
  EXPECT_GT(macs_[0]->duty_cycle(), idle_duty);
}

TEST_F(LplTest, ResetAccountingZeroesCounters) {
  build(2, 5.0);
  macs_[0]->send(data_to(1), nullptr);
  sim_.run_until(2_s);
  EXPECT_GT(macs_[0]->copies_sent(), 0u);
  macs_[0]->reset_accounting();
  EXPECT_EQ(macs_[0]->copies_sent(), 0u);
  EXPECT_EQ(macs_[0]->send_ops(), 0u);
  // Duty cycle restarts from ~0 over a short horizon.
  sim_.run_until(sim_.now() + 10_ms);
  EXPECT_LT(macs_[0]->duty_cycle(), 1.01);
}

TEST_F(LplTest, OverhearingDeliversWithForMeFalse) {
  build(3, 4.0);  // 0 -> 1 unicast; 2 overhears
  macs_[0]->send(data_to(1), nullptr);
  sim_.run_until(3_s);
  bool overheard = false;
  for (std::size_t i = 0; i < handlers_[2]->delivered.size(); ++i) {
    if (!handlers_[2]->for_me_flags[i]) overheard = true;
  }
  EXPECT_TRUE(overheard);
}

TEST_F(LplTest, AnycastClaimedByOverhearer) {
  build(3, 4.0);
  // Handler at node 2 claims anycast control packets even though the frame
  // is link-broadcast.
  handlers_[2]->decision_overheard = AckDecision::kAcceptAndAck;
  handlers_[1]->decision_overheard = AckDecision::kIgnore;
  // Make node 1 never claim (it's asleep-agnostic: just ignore overheard).
  Frame f;
  f.dst = kBroadcastNode;
  msg::ControlPacket cp;
  cp.mode = msg::ControlMode::kOpportunistic;
  f.payload = cp;
  SendResult result;
  bool done = false;
  macs_[0]->send(std::move(f), [&](const SendResult& r) {
    done = true;
    result = r;
  });
  sim_.run_until(3_s);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.acker, 2);
}

TEST_F(LplTest, SendOpsCounted) {
  build(2, 5.0);
  macs_[0]->send(data_to(1), nullptr);
  macs_[0]->send(broadcast(), nullptr);
  sim_.run_until(5_s);
  EXPECT_EQ(macs_[0]->send_ops(), 2u);
}

TEST_F(LplTest, RadioOnTimeAdvancesWhileAwake) {
  build(1, 1.0);
  sim_.run_until(10_s);
  const SimTime on = macs_[0]->radio_on_time();
  EXPECT_GT(on, 0u);
  EXPECT_LT(on, 10_s);
}

/// Runs until node 0 has a copy of its current send on the air and node 1
/// is locked onto it (so node 1 decodes that copy, and acks a unicast).
void run_until_copy_reaches_node1(Simulator& sim, const RadioMedium& medium) {
  while (!(medium.transmitting(0) && medium.receiving(1))) {
    ASSERT_TRUE(sim.step(sim.now() + 1_s));
  }
}

bool delivered_seq(const FakeHandler& handler, std::uint32_t link_seq) {
  for (const Frame& f : handler.delivered) {
    if (f.link_seq == link_seq) return true;
  }
  return false;
}

// An instant reboot (stop() then restart() in one event, as
// NodeStack::reboot_with_state_loss does) while a copy is on the air: the
// copy's on_tx_done still arrives and must be absorbed, not treated as the
// completion of a send that stop() already dropped.
TEST_F(LplTest, InstantRebootAbsorbsTxDoneOfCopyOnAir) {
  build(2, 5.0);
  bool dropped_done = false;
  macs_[0]->send(broadcast(), [&](const SendResult&) { dropped_done = true; });
  run_until_copy_reaches_node1(sim_, *medium_);
  macs_[0]->stop();
  macs_[0]->restart();
  sim_.run_until(sim_.now() + 3_s);
  EXPECT_FALSE(dropped_done);  // stop() drops the queue without callbacks
  EXPECT_FALSE(medium_->transmitting(0));

  // The MAC still works afterwards.
  bool done = false;
  const auto token = macs_[0]->send_cancellable(
      broadcast(), [&](const SendResult& r) {
        done = true;
        EXPECT_TRUE(r.success);
      });
  ASSERT_TRUE(token.has_value());
  sim_.run_until(sim_.now() + 3_s);
  EXPECT_TRUE(done);
  EXPECT_TRUE(delivered_seq(*handlers_[1], *token));
}

// The same reboot with a new send queued right after the restart: it must
// wait for the old copy to leave the air, and its outcome must be its own
// (node 1 acks the old copy; that ack must not complete the new send).
TEST_F(LplTest, InstantRebootDefersNewSendUntilCopyOnAirEnds) {
  build(2, 5.0);
  struct Airing {
    SimTime start;
    SimTime end;
  };
  std::vector<Airing> airings;  // node 0's copies on the air
  medium_->add_transmit_hook([&](NodeId src, const Frame&, SimTime airtime) {
    if (src == 0) airings.push_back({sim_.now(), sim_.now() + airtime});
  });
  macs_[0]->send(data_to(1), nullptr);
  run_until_copy_reaches_node1(sim_, *medium_);
  macs_[0]->stop();
  macs_[0]->restart();

  std::optional<std::uint32_t> token;
  bool done = false;
  bool delivered_first = false;
  SendResult result;
  token = macs_[0]->send_cancellable(data_to(1), [&](const SendResult& r) {
    done = true;
    result = r;
    delivered_first = delivered_seq(*handlers_[1], *token);
  });
  ASSERT_TRUE(token.has_value());
  sim_.run_until(sim_.now() + 3_s);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.acker, 1);
  EXPECT_GE(result.copies, 1u);
  // Acked means node 1 decoded this frame, not the copy from before.
  EXPECT_TRUE(delivered_first);
  // One radio: no copy starts before the previous one has left the air.
  for (std::size_t i = 1; i < airings.size(); ++i) {
    EXPECT_GE(airings[i].start, airings[i - 1].end) << "copy " << i;
  }
}

}  // namespace
}  // namespace telea
