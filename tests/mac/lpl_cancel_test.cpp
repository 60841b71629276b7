#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/lpl.hpp"

namespace telea {
namespace {

using namespace time_literals;

class RecordingHandler final : public FrameHandler {
 public:
  AckDecision decision = AckDecision::kAcceptAndAck;
  int delivered = 0;
  int duplicates = 0;

  AckDecision handle_frame(const Frame&, bool for_me, double) override {
    ++delivered;
    return for_me ? decision : AckDecision::kIgnore;
  }
  void on_duplicate_frame(const Frame&, bool) override { ++duplicates; }
};

CpmNoiseModel quiet_noise() {
  std::vector<std::int8_t> trace(200, -98);
  return CpmNoiseModel(trace, 2);
}

class LplCancelTest : public ::testing::Test {
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
      handlers_.push_back(std::make_unique<RecordingHandler>());
      macs_.push_back(std::make_unique<LplMac>(
          sim_, *medium_, router_, static_cast<NodeId>(i), 900 + i));
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

  Simulator sim_;
  TraceRouter router_{sim_};
  std::unique_ptr<LinkGainTable> gains_;
  std::unique_ptr<CpmNoiseModel> noise_;
  std::unique_ptr<RadioMedium> medium_;
  std::vector<std::unique_ptr<RecordingHandler>> handlers_;
  std::vector<std::unique_ptr<LplMac>> macs_;
};

TEST_F(LplCancelTest, CancelQueuedSendDropsIt) {
  build(2, 5.0);
  int done_count = 0;
  bool first_success = false;
  macs_[0]->send(data_to(1), [&](const SendResult& r) {
    ++done_count;
    first_success = r.success;
  });
  const auto token = macs_[0]->send_cancellable(
      data_to(1), [&](const SendResult& r) {
        ++done_count;
        EXPECT_FALSE(r.success);  // cancelled while queued
      });
  ASSERT_TRUE(token.has_value());
  macs_[0]->cancel_send(*token);
  sim_.run_until(3_s);
  EXPECT_EQ(done_count, 2);
  EXPECT_TRUE(first_success);
  // Only the first frame was ever delivered.
  EXPECT_EQ(handlers_[1]->delivered, 1);
}

TEST_F(LplCancelTest, CancelInFlightStopsCopies) {
  build(2, 500.0);  // receiver out of range: op would run a full sweep
  bool reported = false;
  const auto token = macs_[0]->send_cancellable(
      data_to(1), [&](const SendResult& r) {
        reported = true;
        EXPECT_FALSE(r.success);
      });
  ASSERT_TRUE(token.has_value());
  sim_.schedule_in(50 * kMillisecond, [&] { macs_[0]->cancel_send(*token); });
  sim_.run_until(2_s);
  EXPECT_TRUE(reported);
  // Far fewer copies than the ~240 a full sweep would take.
  EXPECT_LT(macs_[0]->copies_sent(), 40u);
}

TEST_F(LplCancelTest, CancelUnknownTokenIsNoop) {
  build(2, 5.0);
  macs_[0]->cancel_send(12345);
  bool ok = false;
  macs_[0]->send(data_to(1), [&](const SendResult& r) { ok = r.success; });
  sim_.run_until(3_s);
  EXPECT_TRUE(ok);
}

TEST_F(LplCancelTest, DuplicateHookFiresOnRepeatedCopies) {
  build(2, 5.0);
  // Receiver accepts but never acks -> sender repeats through the whole
  // window -> receiver sees many duplicates.
  handlers_[1]->decision = AckDecision::kAccept;
  Frame f;
  f.dst = kBroadcastNode;
  msg::ControlPacket cp;
  cp.mode = msg::ControlMode::kOpportunistic;  // anycast: wants ack
  f.payload = cp;
  macs_[0]->send(std::move(f), nullptr);
  sim_.run_until(2_s);
  EXPECT_EQ(handlers_[1]->delivered, 1);
  EXPECT_GT(handlers_[1]->duplicates, 5);
}

TEST_F(LplCancelTest, StoppedMacRejectsSends) {
  build(2, 5.0);
  macs_[0]->stop();
  EXPECT_FALSE(macs_[0]->send_cancellable(data_to(1), nullptr).has_value());
}

}  // namespace
}  // namespace telea
