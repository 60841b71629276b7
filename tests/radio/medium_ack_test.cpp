// Acknowledgement arbitration details of the medium: capture among
// colliding ackers, reverse-link asymmetry, and the ack window timing.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "radio/medium.hpp"
#include "radio/phy.hpp"

namespace telea {
namespace {

class AckerListener final : public MediumListener {
 public:
  AckDecision decision = AckDecision::kIgnore;
  int received = 0;
  bool tx_done = false;
  bool acked = false;
  NodeId acker = kInvalidNode;

  AckDecision on_frame(const Frame&, double) override {
    ++received;
    return decision;
  }
  void on_tx_done(bool a, NodeId who) override {
    tx_done = true;
    acked = a;
    acker = who;
  }
};

CpmNoiseModel quiet_noise() {
  std::vector<std::int8_t> trace(200, -98);
  return CpmNoiseModel(trace, 2);
}

class MediumAckTest : public ::testing::Test {
 protected:
  void build(const std::vector<Position>& pos) {
    PathLossConfig pl;
    pl.exponent = 4.0;
    pl.loss_at_reference_db = 40.0;
    pl.shadowing_sigma_db = 0.0;
    gains_ = std::make_unique<LinkGainTable>(pos, pl, 1);
    noise_ = std::make_unique<CpmNoiseModel>(quiet_noise());
    medium_ = std::make_unique<RadioMedium>(sim_, *gains_, *noise_,
                                            /*tx_power_dbm=*/0.0, 7);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      listeners_.push_back(std::make_unique<AckerListener>());
      medium_->attach(static_cast<NodeId>(i), *listeners_.back());
      medium_->set_listening(static_cast<NodeId>(i), true);
    }
  }

  Frame anycast(std::uint32_t seq) {
    Frame f;
    f.src = 0;
    f.dst = kBroadcastNode;
    f.link_seq = seq;
    msg::ControlPacket cp;
    cp.mode = msg::ControlMode::kOpportunistic;
    f.payload = cp;
    return f;
  }

  Simulator sim_;
  std::unique_ptr<LinkGainTable> gains_;
  std::unique_ptr<CpmNoiseModel> noise_;
  std::unique_ptr<RadioMedium> medium_;
  std::vector<std::unique_ptr<AckerListener>> listeners_;
};

TEST_F(MediumAckTest, SingleAckerAlwaysCaptured) {
  build({{0, 0}, {5, 0}, {10, 0}});
  listeners_[1]->decision = AckDecision::kAcceptAndAck;
  listeners_[2]->decision = AckDecision::kAccept;  // receives, no ack
  medium_->transmit(0, anycast(1));
  sim_.run();
  EXPECT_TRUE(listeners_[0]->acked);
  EXPECT_EQ(listeners_[0]->acker, 1);
}

TEST_F(MediumAckTest, StrongerOfTwoAckersCaptures) {
  // Acker 1 at 4 m, acker 2 at 12 m: >3 dB margin, node 1 wins.
  build({{0, 0}, {4, 0}, {12, 0}});
  listeners_[1]->decision = AckDecision::kAcceptAndAck;
  listeners_[2]->decision = AckDecision::kAcceptAndAck;
  medium_->transmit(0, anycast(1));
  sim_.run();
  EXPECT_TRUE(listeners_[0]->acked);
  EXPECT_EQ(listeners_[0]->acker, 1);
}

TEST_F(MediumAckTest, EquidistantAckersCollide) {
  // Two ackers at identical distance: no capture margin, the ack is lost.
  build({{0, 0}, {5, 5}, {5, -5}});
  listeners_[1]->decision = AckDecision::kAcceptAndAck;
  listeners_[2]->decision = AckDecision::kAcceptAndAck;
  int acked = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    listeners_[0]->tx_done = false;
    medium_->transmit(0, anycast(100 + i));
    sim_.run();
    if (listeners_[0]->acked) ++acked;
  }
  EXPECT_EQ(acked, 0);
}

TEST_F(MediumAckTest, AckWindowDelaysTxDone) {
  build({{0, 0}, {5, 0}});
  listeners_[1]->decision = AckDecision::kAcceptAndAck;
  const SimTime start = sim_.now();
  medium_->transmit(0, anycast(1));
  sim_.run();
  // Unicast/anycast completion includes frame airtime + turnaround + ack.
  Frame probe = anycast(2);
  const SimTime min_duration = Cc2420Phy::airtime(wire_size_bytes(probe)) +
                               Cc2420Phy::kTurnaroundTime +
                               Cc2420Phy::ack_airtime();
  EXPECT_GE(sim_.now() - start, min_duration);
}

TEST_F(MediumAckTest, TransmitterBusyThroughAckWindow) {
  build({{0, 0}, {5, 0}});
  listeners_[1]->decision = AckDecision::kAcceptAndAck;
  medium_->transmit(0, anycast(1));
  EXPECT_TRUE(medium_->transmitting(0));
  // Step past the frame airtime but not the ack window: still busy.
  Frame probe = anycast(2);
  sim_.run_until(sim_.now() + Cc2420Phy::airtime(wire_size_bytes(probe)) + 50);
  EXPECT_TRUE(medium_->transmitting(0));
  sim_.run();
  EXPECT_FALSE(medium_->transmitting(0));
}

}  // namespace
}  // namespace telea
