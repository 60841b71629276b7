// Exactness pins for the radio hot path: the interferer's mW lookup and a
// golden medium scenario whose outcome digest was recorded before the
// log-free CCA and the clear-reception shortcut.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "radio/interferer.hpp"
#include "radio/medium.hpp"
#include "transmit_frame.hpp"
#include "util/dbm.hpp"
#include "util/rng.hpp"

namespace telea {
namespace {

TEST(WifiInterfererMw, PowerMwMatchesDbmConversionExactly) {
  constexpr std::size_t kNodes = 9;
  // Twins: one answers in dBm, the other in mW; both walk the same process.
  WifiInterferer in_dbm(kNodes, 77);
  WifiInterferer in_mw(kNodes, 77);
  std::size_t on_readings = 0;
  for (SimTime t = 0; t < 10'000 * 250; t += 250) {
    for (NodeId n = 0; n < kNodes; ++n) {
      const double dbm = in_dbm.power_at(n, t);
      EXPECT_EQ(in_mw.power_mw_at(n, t), dbm_to_mw(dbm));
      if (dbm > -110.0) ++on_readings;
    }
  }
  EXPECT_GT(on_readings, 10'000u);  // both states were exercised
}

/// A node of the golden scenario: random broadcasts, unicasts and
/// opportunistic (anycast) control packets, each behind a CCA that defers
/// on a busy channel. Every CCA, delivery and send outcome is hashed.
class GoldenNode final : public MediumListener {
 public:
  inline static const DbmThreshold kCca{-85.0};

  GoldenNode(Simulator& sim, RadioMedium& medium, NodeId id, NodeId nodes,
             std::uint64_t& digest, std::size_t& events)
      : sim_(sim),
        medium_(medium),
        id_(id),
        nodes_(nodes),
        digest_(digest),
        events_(events),
        rng_(0x60D1ULL, id) {
    frames_from.assign(nodes, 0);
  }

  void schedule_next() {
    sim_.schedule_in(200 + rng_.uniform(4000), [this] { attempt(); });
  }

  AckDecision on_frame(const Frame& frame, double rssi_dbm) override {
    mix(1, frame.src, frame.link_seq, std::bit_cast<std::uint64_t>(rssi_dbm));
    ++frames;
    if (frame.src < frames_from.size()) ++frames_from[frame.src];
    if (frame.dst == id_) return AckDecision::kAcceptAndAck;
    if (std::holds_alternative<msg::ControlPacket>(frame.payload)) {
      return rng_.chance(0.6) ? AckDecision::kAcceptAndAck
                              : AckDecision::kIgnore;
    }
    return AckDecision::kAccept;
  }

  void on_tx_done(bool acked, NodeId acker) override {
    mix(2, acker, acked ? 1 : 0, 0);
    if (acked) ++acks;
    if (sim_.now() < 2 * kSecond) schedule_next();
  }

  std::size_t frames = 0;
  std::size_t acks = 0;
  std::size_t busy_verdicts = 0;
  std::size_t band_mismatches = 0;
  std::size_t locked_starts = 0;  // transmissions begun while locked
  std::vector<std::size_t> frames_from;  // decoded frames per source

 private:
  void attempt() {
    const bool busy = medium_.channel_busy(id_, kCca);
    mix(3, busy ? 1 : 0,
        std::bit_cast<std::uint64_t>(medium_.channel_energy_dbm(id_)),
        std::bit_cast<std::uint64_t>(medium_.noise_dbm(id_)));
    // The same energy against thresholds on it and one ulp either side:
    // inside the band where channel_busy must evaluate the round trip.
    const double e = medium_.channel_energy_dbm(id_);
    for (const double thr :
         {e, std::nextafter(e, -1000.0), std::nextafter(e, 1000.0)}) {
      if (medium_.channel_busy(id_, DbmThreshold(thr)) != (e > thr)) {
        ++band_mismatches;
      }
    }
    if (busy) {
      ++busy_verdicts;
      sim_.schedule_in(300 + rng_.uniform(900), [this] { attempt(); });
      return;
    }
    Frame f;
    f.src = id_;
    f.link_seq = next_seq_++;
    const std::uint32_t kind = rng_.uniform(4);
    if (kind == 0) {
      f.dst = kBroadcastNode;
      f.payload = msg::CtpBeacon{};
    } else if (kind == 1) {
      f.dst = kBroadcastNode;
      msg::ControlPacket cp;
      cp.mode = msg::ControlMode::kOpportunistic;
      cp.seqno = f.link_seq;
      f.payload = cp;
    } else {
      f.dst = static_cast<NodeId>(rng_.uniform(nodes_));
      f.payload = msg::CtpData{};
    }
    if (medium_.receiving(id_)) ++locked_starts;
    transmit_frame(medium_, id_, f);
  }

  void mix(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
           std::uint64_t c) {
    ++events_;
    for (const std::uint64_t v :
         {kind, static_cast<std::uint64_t>(id_), a, b, c,
          static_cast<std::uint64_t>(sim_.now())}) {
      digest_ = (digest_ ^ v) * 0x100000001B3ULL;
    }
  }

  Simulator& sim_;
  RadioMedium& medium_;
  NodeId id_;
  NodeId nodes_;
  std::uint64_t& digest_;
  std::size_t& events_;
  Pcg32 rng_;
  std::uint32_t next_seq_ = 1;
};

/// The golden scenario's channel: a field of GoldenNodes at `pos`, all
/// listening, each with its first attempt scheduled, under a WiFi interferer.
class GoldenField {
 public:
  explicit GoldenField(const std::vector<Position>& pos)
      : gains_(pos, PathLossConfig{}, 11),
        noise_(generate_heavy_noise_trace(trace_config(), 5), 2),
        wifi_(pos.size(), 19),
        medium(sim, gains_, noise_, /*tx_power_dbm=*/0.0, 13) {
    medium.set_interferer(&wifi_);
    const auto count = static_cast<NodeId>(pos.size());
    for (NodeId i = 0; i < count; ++i) {
      nodes.push_back(
          std::make_unique<GoldenNode>(sim, medium, i, count, digest, events));
      medium.attach(i, *nodes.back());
      medium.set_listening(i, true);
      nodes.back()->schedule_next();
    }
  }

  struct Totals {
    std::size_t frames = 0;
    std::size_t acks = 0;
    std::size_t busy = 0;
    std::size_t band_mismatches = 0;
  };

  /// Runs the field dry and sums the nodes' counters.
  Totals run() {
    sim.run();
    Totals t;
    for (const auto& n : nodes) {
      t.frames += n->frames;
      t.acks += n->acks;
      t.busy += n->busy_verdicts;
      t.band_mismatches += n->band_mismatches;
    }
    return t;
  }

 private:
  static SyntheticTraceConfig trace_config() {
    SyntheticTraceConfig trace;
    trace.length = 4000;
    return trace;
  }

  const LinkGainTable gains_;
  const CpmNoiseModel noise_;
  WifiInterferer wifi_;

 public:
  Simulator sim;
  RadioMedium medium;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  std::size_t events = 0;
  std::vector<std::unique_ptr<GoldenNode>> nodes;
};

TEST(MediumGolden, TwelveNodeScenarioDigestIsPinned) {
  constexpr NodeId kNodes = 12;
  Pcg32 place(2015, 3);
  std::vector<Position> pos;
  for (NodeId i = 0; i < kNodes; ++i) {
    pos.push_back({place.uniform_real(0, 12), place.uniform_real(0, 12)});
  }
  GoldenField field(pos);
  RadioMedium& medium = field.medium;
  Simulator& sim = field.sim;
  // A degraded link (uncached link powers) and an injected noise source,
  // each for part of the run.
  sim.schedule_at(500 * kMillisecond,
                  [&] { medium.add_link_loss_db(0, 1, 6.0); });
  sim.schedule_at(1200 * kMillisecond,
                  [&] { medium.add_link_loss_db(0, 1, -6.0); });
  sim.schedule_at(800 * kMillisecond,
                  [&] { medium.set_extra_noise_dbm(4, -80.0); });
  sim.schedule_at(1500 * kMillisecond, [&] { medium.clear_extra_noise(4); });
  const GoldenField::Totals t = field.run();
  EXPECT_EQ(t.band_mismatches, 0u);
  // The scenario must reach every branch it pins to mean anything.
  EXPECT_GT(t.frames, 1000u);
  EXPECT_GT(t.acks, 100u);
  EXPECT_GT(t.busy, 100u);
  // Recorded with the log-based CCA and receptions, before their shortcuts.
  EXPECT_EQ(field.events, 27695u);
  EXPECT_EQ(field.digest, 0xdd1628e07b01ee62ULL);
}

TEST(MediumGolden, MultiWordFieldDigestIsPinned) {
  // 140 nodes in row-major id order over 20 columns, 4 m apart: a node
  // hears about three rows either way, so its candidate receivers span
  // some 60 ids and cross the 64-id boundaries at 64 and 128.
  constexpr NodeId kColumns = 20;
  constexpr NodeId kNodes = 7 * kColumns;
  Pcg32 place(2015, 4);
  std::vector<Position> pos;
  for (NodeId i = 0; i < kNodes; ++i) {
    pos.push_back({4.0 * (i % kColumns) + place.uniform_real(-1, 1),
                   4.0 * (i / kColumns) + place.uniform_real(-1, 1)});
  }
  GoldenField field(pos);
  RadioMedium& medium = field.medium;
  Simulator& sim = field.sim;
  const auto heard = [&](NodeId rx, NodeId tx) {
    return field.nodes[rx]->frames_from[tx];
  };

  // A blackout between 50 (word 0) and 70 (word 1), later lifted: while it
  // lasts neither locks onto the other's frames.
  constexpr NodeId kFaultA = 50, kFaultB = 70;
  std::size_t before_ab = 0, before_ba = 0;
  sim.schedule_at(400 * kMillisecond, [&] {
    medium.add_link_loss_db(kFaultA, kFaultB, RadioMedium::kBlackoutLossDb);
    before_ab = heard(kFaultB, kFaultA);
    before_ba = heard(kFaultA, kFaultB);
  });
  sim.schedule_at(1300 * kMillisecond, [&] {
    EXPECT_EQ(heard(kFaultB, kFaultA), before_ab);
    EXPECT_EQ(heard(kFaultA, kFaultB), before_ba);
    medium.add_link_loss_db(kFaultA, kFaultB, -RadioMedium::kBlackoutLossDb);
  });
  sim.schedule_at(800 * kMillisecond,
                  [&] { medium.set_extra_noise_dbm(100, -80.0); });
  sim.schedule_at(1500 * kMillisecond, [&] { medium.clear_extra_noise(100); });

  // Every 3 ms the next locked receiver after a rotating cursor sleeps
  // mid-frame, and wakes 2 ms later.
  std::size_t sleeps = 0;
  NodeId cursor = 0;
  std::function<void()> sleeper = [&] {
    for (NodeId k = 0; k < kNodes; ++k) {
      const NodeId id = static_cast<NodeId>((cursor + k) % kNodes);
      if (!medium.receiving(id)) continue;
      medium.set_listening(id, false);
      sim.schedule_in(2 * kMillisecond,
                      [&medium, id] { medium.set_listening(id, true); });
      ++sleeps;
      cursor = static_cast<NodeId>((id + 1) % kNodes);
      break;
    }
    if (sim.now() < 2 * kSecond) sim.schedule_in(3 * kMillisecond, sleeper);
  };
  sim.schedule_at(10 * kMillisecond, sleeper);
  const GoldenField::Totals t = field.run();
  EXPECT_EQ(t.band_mismatches, 0u);
  EXPECT_GT(t.frames, 15'000u);
  EXPECT_GT(t.acks, 1'500u);
  EXPECT_GT(t.busy, 100'000u);
  EXPECT_GT(sleeps, 300u);
  std::size_t locked_starts = 0;
  for (const auto& n : field.nodes) locked_starts += n->locked_starts;
  EXPECT_GT(locked_starts, 10'000u);
  EXPECT_GT(heard(kFaultB, kFaultA), before_ab);  // the link came back
  // Frames crossed both word boundaries, in both directions.
  const auto crossings = [&](NodeId boundary) {
    std::size_t up = 0, down = 0;
    for (NodeId rx = 0; rx < kNodes; ++rx) {
      for (NodeId tx = 0; tx < kNodes; ++tx) {
        if (tx < boundary && rx >= boundary) up += heard(rx, tx);
        if (rx < boundary && tx >= boundary) down += heard(rx, tx);
      }
    }
    return std::min(up, down);
  };
  EXPECT_GT(crossings(64), 500u);
  EXPECT_GT(crossings(128), 400u);
  // Recorded before the medium kept its listeners as bitsets.
  EXPECT_EQ(field.events, 308981u);
  EXPECT_EQ(field.digest, 0x049febaae8556a11ULL);
}

}  // namespace
}  // namespace telea
