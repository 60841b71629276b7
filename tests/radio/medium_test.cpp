#include "radio/medium.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "radio/phy.hpp"
#include "transmit_frame.hpp"
#include "util/rng.hpp"

namespace telea {
namespace {

/// A scripted MAC stand-in recording everything the medium reports.
class FakeListener final : public MediumListener {
 public:
  AckDecision decision = AckDecision::kAccept;
  std::vector<Frame> received;
  std::vector<double> rssi;
  int tx_done_count = 0;
  bool last_acked = false;
  NodeId last_acker = kInvalidNode;

  AckDecision on_frame(const Frame& frame, double rssi_dbm) override {
    received.push_back(frame);
    rssi.push_back(rssi_dbm);
    return decision;
  }
  void on_tx_done(bool acked, NodeId acker) override {
    ++tx_done_count;
    last_acked = acked;
    last_acker = acker;
  }
};

/// Quiet, flat noise floor so reception outcomes are deterministic.
CpmNoiseModel quiet_noise() {
  std::vector<std::int8_t> trace(200, -98);
  return CpmNoiseModel(trace, 2);
}

class MediumTest : public ::testing::Test {
 protected:
  /// Nodes on a line with `spacing` meters, no shadowing, 0 dBm tx.
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
    listeners_.clear();
    for (int i = 0; i < nodes; ++i) {
      listeners_.push_back(std::make_unique<FakeListener>());
      medium_->attach(static_cast<NodeId>(i), *listeners_.back());
    }
  }

  Frame beacon_frame(NodeId src) {
    Frame f;
    f.src = src;
    f.dst = kBroadcastNode;
    f.link_seq = next_seq_++;
    f.payload = msg::CtpBeacon{};
    return f;
  }

  /// A broadcast whose MPDU is the 802.15.4 maximum: the longest airtime.
  Frame max_frame(NodeId src) {
    Frame f;
    f.src = src;
    f.dst = kBroadcastNode;
    f.link_seq = next_seq_++;
    // An 8-bit code (2 bytes), space and flags (2) and 5 bytes per entry.
    msg::TeleBeacon beacon;
    beacon.parent_code = BitString::from_string_unchecked("01010101");
    beacon.entries.resize((kMaxPayloadBytes - 4) / 5);
    f.payload = beacon;
    return f;
  }

  Frame data_frame(NodeId src, NodeId dst) {
    Frame f;
    f.src = src;
    f.dst = dst;
    f.link_seq = next_seq_++;
    f.payload = msg::CtpData{};
    return f;
  }

  Simulator sim_;
  std::unique_ptr<LinkGainTable> gains_;
  std::unique_ptr<CpmNoiseModel> noise_;
  std::unique_ptr<RadioMedium> medium_;
  std::vector<std::unique_ptr<FakeListener>> listeners_;
  std::uint32_t next_seq_ = 1;
};

TEST_F(MediumTest, BroadcastReachesListeningNeighbor) {
  build(2, 5.0);  // 5 m at 0 dBm: very strong link
  medium_->set_listening(1, true);
  transmit_frame(*medium_, 0, beacon_frame(0));
  sim_.run();
  ASSERT_EQ(listeners_[1]->received.size(), 1u);
  EXPECT_EQ(listeners_[1]->received[0].src, 0);
  EXPECT_EQ(listeners_[0]->tx_done_count, 1);
  EXPECT_FALSE(listeners_[0]->last_acked);  // broadcasts are unacked
}

TEST_F(MediumTest, SleepingRadioMissesFrame) {
  build(2, 5.0);
  medium_->set_listening(1, false);
  transmit_frame(*medium_, 0, beacon_frame(0));
  sim_.run();
  EXPECT_TRUE(listeners_[1]->received.empty());
}

TEST_F(MediumTest, WakingMidFrameMissesIt) {
  build(2, 5.0);
  medium_->set_listening(1, false);
  transmit_frame(*medium_, 0, beacon_frame(0));
  // Wake 100 us into the transmission: the lock was taken at tx start.
  sim_.schedule_in(100, [this] { medium_->set_listening(1, true); });
  sim_.run();
  EXPECT_TRUE(listeners_[1]->received.empty());
}

TEST_F(MediumTest, SleepMidFrameAbortsReception) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  transmit_frame(*medium_, 0, beacon_frame(0));
  sim_.schedule_in(100, [this] { medium_->set_listening(1, false); });
  sim_.run();
  EXPECT_TRUE(listeners_[1]->received.empty());
}

TEST_F(MediumTest, UnicastAckedByReceiver) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  listeners_[1]->decision = AckDecision::kAcceptAndAck;
  transmit_frame(*medium_, 0, data_frame(0, 1));
  sim_.run();
  EXPECT_EQ(listeners_[0]->tx_done_count, 1);
  EXPECT_TRUE(listeners_[0]->last_acked);
  EXPECT_EQ(listeners_[0]->last_acker, 1);
}

TEST_F(MediumTest, UnicastWithoutAckDecisionReportsNoAck) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  listeners_[1]->decision = AckDecision::kAccept;
  transmit_frame(*medium_, 0, data_frame(0, 1));
  sim_.run();
  EXPECT_TRUE(listeners_[0]->tx_done_count == 1 && !listeners_[0]->last_acked);
}

TEST_F(MediumTest, AnycastControlPacketClaimedByNonAddressee) {
  build(3, 5.0);
  medium_->set_listening(1, true);
  medium_->set_listening(2, false);
  listeners_[1]->decision = AckDecision::kAcceptAndAck;
  Frame f;
  f.src = 0;
  f.dst = kBroadcastNode;  // anycast
  f.link_seq = next_seq_++;
  msg::ControlPacket cp;
  cp.mode = msg::ControlMode::kOpportunistic;
  f.payload = cp;
  EXPECT_TRUE(RadioMedium::frame_wants_ack(f));
  transmit_frame(*medium_, 0, f);
  sim_.run();
  EXPECT_TRUE(listeners_[0]->last_acked);
  EXPECT_EQ(listeners_[0]->last_acker, 1);
}

TEST_F(MediumTest, DirectControlIsPlainUnicast) {
  Frame f;
  f.dst = 5;
  msg::ControlPacket cp;
  cp.mode = msg::ControlMode::kDirect;
  f.payload = cp;
  EXPECT_TRUE(RadioMedium::frame_wants_ack(f));
  f.dst = kBroadcastNode;
  cp.mode = msg::ControlMode::kDirect;
  f.payload = cp;
  EXPECT_FALSE(RadioMedium::frame_wants_ack(f));
}

TEST_F(MediumTest, OutOfRangeNodeNeverReceives) {
  build(2, 200.0);  // 200 m at exponent 4: far below sensitivity
  medium_->set_listening(1, true);
  for (int i = 0; i < 20; ++i) {
    transmit_frame(*medium_, 0, beacon_frame(0));
    sim_.run();
  }
  EXPECT_TRUE(listeners_[1]->received.empty());
}

TEST_F(MediumTest, ChannelEnergyRisesDuringTransmission) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  const double idle = medium_->channel_energy_dbm(1);
  EXPECT_LT(idle, -90.0);
  transmit_frame(*medium_, 0, beacon_frame(0));
  // Signal at 5 m, exponent 4, PL0 40 dB: loss 68 dB -> about -68 dBm.
  const double busy = medium_->channel_energy_dbm(1);
  EXPECT_GT(busy, -70.0);
  sim_.run();
}

TEST_F(MediumTest, CollisionDegradesMiddleReceiver) {
  // Nodes 0 and 2 transmit simultaneously; node 1 sits between them at equal
  // distance, so SINR ~ 0 dB -> reception must essentially always fail.
  build(3, 5.0);
  medium_->set_listening(1, true);
  int received = 0;
  for (int i = 0; i < 50; ++i) {
    transmit_frame(*medium_, 0, beacon_frame(0));
    transmit_frame(*medium_, 2, beacon_frame(2));
    sim_.run();
    received += static_cast<int>(listeners_[1]->received.size());
    listeners_[1]->received.clear();
  }
  EXPECT_LE(received, 2);
}

TEST_F(MediumTest, CaptureWhenInterfererIsWeak) {
  // Interferer is 4x farther: SINR is high, reception should survive.
  std::vector<Position> pos{{0, 0}, {5, 0}, {25, 0}};
  PathLossConfig pl;
  pl.exponent = 4.0;
  pl.loss_at_reference_db = 40.0;
  pl.shadowing_sigma_db = 0.0;
  gains_ = std::make_unique<LinkGainTable>(pos, pl, 1);
  noise_ = std::make_unique<CpmNoiseModel>(quiet_noise());
  medium_ = std::make_unique<RadioMedium>(sim_, *gains_, *noise_,
                                          /*tx_power_dbm=*/0.0, 7);
  listeners_.clear();
  for (int i = 0; i < 3; ++i) {
    listeners_.push_back(std::make_unique<FakeListener>());
    medium_->attach(static_cast<NodeId>(i), *listeners_.back());
  }
  medium_->set_listening(1, true);
  int received = 0;
  for (int i = 0; i < 20; ++i) {
    transmit_frame(*medium_, 0, beacon_frame(0));
    transmit_frame(*medium_, 2, beacon_frame(2));
    sim_.run();
    received += static_cast<int>(listeners_[1]->received.size());
    listeners_[1]->received.clear();
  }
  EXPECT_GE(received, 18);  // locked onto 0 first, 2 is 40 dB weaker
}

TEST_F(MediumTest, TransmitHookSeesEveryCopy) {
  build(2, 5.0);
  int copies = 0;
  medium_->add_transmit_hook(
      [&copies](NodeId, const Frame&, SimTime) { ++copies; });
  transmit_frame(*medium_, 0, beacon_frame(0));
  sim_.run();
  transmit_frame(*medium_, 0, beacon_frame(0));
  sim_.run();
  EXPECT_EQ(copies, 2);
  EXPECT_EQ(medium_->total_transmissions(), 2u);
}

TEST_F(MediumTest, TransmitterCannotReceiveWhileSending) {
  build(2, 5.0);
  medium_->set_listening(0, true);
  medium_->set_listening(1, true);
  transmit_frame(*medium_, 0, beacon_frame(0));
  transmit_frame(*medium_, 1, beacon_frame(1));
  sim_.run();
  // Both were transmitting through each other's frames: neither receives.
  EXPECT_TRUE(listeners_[0]->received.empty());
  EXPECT_TRUE(listeners_[1]->received.empty());
}

TEST_F(MediumTest, ReceivingStateIsVisible) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  EXPECT_FALSE(medium_->receiving(1));
  transmit_frame(*medium_, 0, beacon_frame(0));
  EXPECT_TRUE(medium_->receiving(1));
  sim_.run();
  EXPECT_FALSE(medium_->receiving(1));
}

TEST_F(MediumTest, LongFrameStartedBeforeReceptionInterferes) {
  // 0 and 2 sit 5 m either side of 1, so each is as strong as the other
  // there. Node 1 sleeps through the start of 0's long frame, then locks
  // onto 2's short beacon during the long frame's last 600 us.
  build(3, 5.0);
  const Frame long_frame = max_frame(0);
  ASSERT_EQ(wire_size_bytes(long_frame), kMaxMpduBytes);
  const SimTime long_airtime = Cc2420Phy::airtime(kMaxMpduBytes);
  const SimTime rx_start = long_airtime - 600;
  ASSERT_GT(rx_start, Cc2420Phy::airtime(wire_size_bytes(beacon_frame(2))));
  const auto beacon_at = [this](SimTime when) {
    sim_.schedule_at(when, [this] {
      medium_->set_listening(1, true);
      transmit_frame(*medium_, 2, beacon_frame(2));
    });
  };

  // Alone, the beacon is received.
  beacon_at(rx_start);
  sim_.run();
  ASSERT_EQ(listeners_[1]->received.size(), 1u);

  // Overlapped for 600 us of its 800 us by the long frame, whose start lies
  // more than a beacon airtime before the reception's, it is lost.
  medium_->set_listening(1, false);
  const SimTime t0 = sim_.now() + kMillisecond;
  sim_.schedule_at(t0, [this, &long_frame] {
    transmit_frame(*medium_, 0, long_frame);
  });
  beacon_at(t0 + rx_start);
  sim_.run();
  EXPECT_EQ(listeners_[1]->received.size(), 1u);
}

TEST_F(MediumTest, FrameEndingAtReceptionStartDoesNotInterfere) {
  build(3, 5.0);
  transmit_frame(*medium_, 0, max_frame(0));
  const SimTime end = Cc2420Phy::airtime(kMaxMpduBytes);
  // Scheduled after transmit(), so it runs after the frame's finish at `end`.
  sim_.schedule_at(end, [this] {
    medium_->set_listening(1, true);
    transmit_frame(*medium_, 2, beacon_frame(2));
  });
  sim_.run();
  ASSERT_EQ(listeners_[1]->received.size(), 1u);
  EXPECT_EQ(listeners_[1]->received[0].src, 2);
}

TEST_F(MediumTest, FinishedFrameLeavesChannelEnergy) {
  build(2, 5.0);
  const double idle = medium_->channel_energy_dbm(1);
  transmit_frame(*medium_, 0, beacon_frame(0));
  const SimTime end = Cc2420Phy::airtime(wire_size_bytes(beacon_frame(0)));
  double busy = 0.0;
  double after = 0.0;
  sim_.schedule_at(end - 1, [&] { busy = medium_->channel_energy_dbm(1); });
  // Right after the finish the frame still sits in the overlap history.
  sim_.schedule_at(end, [&] { after = medium_->channel_energy_dbm(1); });
  sim_.run();
  EXPECT_GT(busy, -70.0);
  EXPECT_EQ(after, idle);
}

TEST_F(MediumTest, LinkLossDuringTrafficAndClearRestore) {
  build(2, 5.0);
  medium_->set_listening(1, true);
  transmit_frame(*medium_, 0, beacon_frame(0));
  const double energy_clean = medium_->channel_energy_dbm(1);
  sim_.run();

  // Degrade the link mid-frame: CCA sees it at once, the reception at its end.
  transmit_frame(*medium_, 0, beacon_frame(0));
  medium_->add_link_loss_db(0, 1, 6.0);
  const double energy_faulted = medium_->channel_energy_dbm(1);
  sim_.run();

  medium_->add_link_loss_db(0, 1, -6.0);  // undone as the fault plan does
  transmit_frame(*medium_, 0, beacon_frame(0));
  const double energy_restored = medium_->channel_energy_dbm(1);
  sim_.run();

  const auto& rssi = listeners_[1]->rssi;
  ASSERT_EQ(rssi.size(), 3u);
  EXPECT_NEAR(rssi[0] - rssi[1], 6.0, 1e-9);
  EXPECT_EQ(rssi[2], rssi[0]);
  EXPECT_NEAR(energy_clean - energy_faulted, 6.0, 0.05);  // plus noise
  EXPECT_EQ(energy_restored, energy_clean);
}

/// Dense random traffic: every node but the last transmits broadcasts and
/// acked unicasts at random, so frames collide constantly. Each node logs
/// what it receives, its channel energy and CCA verdicts before each send,
/// and each send's outcome. A node that decodes a broadcast whose link_seq
/// is 1 mod 4 answers at once from inside on_frame, so the medium starts
/// frames while it is delivering one; the first such answers come while
/// few frames were ever in flight, so they grow the medium's frame storage
/// mid-delivery. The last node is attached but never listens or transmits.
class TrafficNode final : public MediumListener {
 public:
  enum class Kind : std::uint8_t { kFrame, kCca, kBusy, kReply, kTxDone };
  struct Event {
    Kind kind;
    NodeId node;
    NodeId peer;  // frame source or acker
    std::uint32_t link_seq;
    double dbm;   // received power, channel energy or CCA threshold
    bool acked;   // acked, or the CCA verdict (busy)
    bool operator==(const Event&) const = default;
  };

  TrafficNode(Simulator& sim, RadioMedium& medium, NodeId id,
              NodeId traffic_nodes, std::vector<Event>& log)
      : sim_(sim),
        medium_(medium),
        id_(id),
        traffic_nodes_(traffic_nodes),
        log_(log),
        rng_(0xD1FFULL, id) {}

  void schedule_next() {
    sim_.schedule_in(rng_.uniform(3000), [this] { send(); });
  }

  AckDecision on_frame(const Frame& frame, double rssi_dbm) override {
    log_.push_back(
        Event{Kind::kFrame, id_, frame.src, frame.link_seq, rssi_dbm, false});
    if (frame.is_broadcast() && frame.link_seq % 4 == 1 &&
        !medium_.transmitting(id_)) {
      log_.push_back(
          Event{Kind::kReply, id_, frame.src, next_seq_, rssi_dbm, false});
      Frame reply;
      reply.src = id_;
      reply.link_seq = next_seq_++;
      reply.payload = msg::CtpBeacon{};
      replying_ = true;
      transmit_frame(medium_, id_, reply);
    }
    return frame.dst == id_ ? AckDecision::kAcceptAndAck : AckDecision::kAccept;
  }
  void on_tx_done(bool acked, NodeId acker) override {
    log_.push_back(Event{Kind::kTxDone, id_, acker, 0, 0.0, acked});
    if (replying_) {
      replying_ = false;  // the node's own send chain is still scheduled
    } else if (sim_.now() < 2 * kSecond) {
      schedule_next();
    }
  }

  /// CCA thresholds send() logs verdicts at: around the energies the
  /// scenario produces, so both verdicts occur at each.
  static constexpr double kCcaDbm[] = {-90.0, -80.0, -70.0, -60.0};

 private:
  void send() {
    if (medium_.transmitting(id_)) {  // a reply is on air: try again later
      schedule_next();
      return;
    }
    // CCA reads sum cached link powers directly: log them too, in dBm and
    // as channel_busy's mW-domain verdicts.
    log_.push_back(Event{Kind::kCca, id_, kInvalidNode, next_seq_,
                         medium_.channel_energy_dbm(id_), false});
    for (const double dbm : kCcaDbm) {
      log_.push_back(Event{Kind::kBusy, id_, kInvalidNode, next_seq_, dbm,
                           medium_.channel_busy(id_, DbmThreshold(dbm))});
    }
    Frame f;
    f.src = id_;
    f.link_seq = next_seq_++;
    if (rng_.chance(0.5)) {
      f.dst = kBroadcastNode;
      f.payload = msg::CtpBeacon{};
    } else {
      f.dst = static_cast<NodeId>(rng_.uniform(traffic_nodes_));
      f.payload = msg::CtpData{};
    }
    transmit_frame(medium_, id_, f);
  }

  Simulator& sim_;
  RadioMedium& medium_;
  NodeId id_;
  NodeId traffic_nodes_;
  std::vector<Event>& log_;
  Pcg32 rng_;
  std::uint32_t next_seq_ = 1;
  bool replying_ = false;
};

/// Runs the dense scenario; with `fault_on_idle_link`, a link offset on the
/// idle node's link keeps every power read off the link-power cache.
std::vector<TrafficNode::Event> run_dense(bool fault_on_idle_link) {
  constexpr NodeId kTraffic = 10;
  Pcg32 place(42, 1);
  std::vector<Position> pos;
  for (NodeId i = 0; i <= kTraffic; ++i) {
    pos.push_back({place.uniform_real(0, 20), place.uniform_real(0, 20)});
  }
  PathLossConfig pl;
  pl.loss_at_reference_db = 40.0;
  const LinkGainTable gains(pos, pl, 9);
  const CpmNoiseModel noise = quiet_noise();
  Simulator sim;
  RadioMedium medium(sim, gains, noise, /*tx_power_dbm=*/0.0, 3);
  std::vector<TrafficNode::Event> log;
  std::vector<std::unique_ptr<TrafficNode>> nodes;
  for (NodeId i = 0; i <= kTraffic; ++i) {
    nodes.push_back(
        std::make_unique<TrafficNode>(sim, medium, i, kTraffic, log));
    medium.attach(i, *nodes.back());
  }
  for (NodeId i = 0; i < kTraffic; ++i) {
    medium.set_listening(i, true);
    nodes[i]->schedule_next();
  }
  if (fault_on_idle_link) medium.add_link_loss_db(kTraffic, 0, 1.0);
  sim.run();
  return log;
}

TEST(MediumCacheTest, CachedAndUncachedPowerGiveIdenticalRuns) {
  const auto cached = run_dense(false);
  const auto uncached = run_dense(true);
  // The scenario must exercise collisions and acks to mean anything.
  std::size_t acked = 0;
  std::size_t unacked = 0;
  for (const auto& e : cached) {
    if (e.kind == TrafficNode::Kind::kTxDone) (e.acked ? acked : unacked) += 1;
  }
  EXPECT_GT(acked, 20u);
  EXPECT_GT(unacked, 100u);
  // Replies started inside on_frame, and CCA verdicts both ways at every
  // threshold.
  std::size_t replies = 0;
  for (const auto& e : cached) replies += e.kind == TrafficNode::Kind::kReply;
  EXPECT_GT(replies, 20u);
  for (const double dbm : TrafficNode::kCcaDbm) {
    std::size_t busy = 0;
    std::size_t idle = 0;
    for (const auto& e : cached) {
      if (e.kind == TrafficNode::Kind::kBusy && e.dbm == dbm) {
        (e.acked ? busy : idle) += 1;
      }
    }
    EXPECT_GT(busy, 10u) << dbm << " dBm";
    EXPECT_GT(idle, 10u) << dbm << " dBm";
  }
  ASSERT_EQ(cached.size(), uncached.size());
  EXPECT_TRUE(cached == uncached);
}

}  // namespace
}  // namespace telea
