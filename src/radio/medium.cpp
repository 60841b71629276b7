#include "radio/medium.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "radio/phy.hpp"
#include "util/dbm.hpp"
#include "util/logging.hpp"

namespace telea {

namespace {
/// Extra margin (dB) past sensitivity for the neighbor cutoff.
constexpr double kCutoffMarginDb = 3.0;
/// Capture threshold for colliding acknowledgements: the strongest acker
/// must clear the sum of the others by this much to be decodable.
constexpr double kAckCaptureDb = 3.0;
/// Node ids per bitset word.
constexpr std::size_t kWordBits = 64;
/// Index of the lowest set bit. Precondition: word != 0.
std::size_t lowest_bit(std::uint64_t word) {
  return static_cast<std::size_t>(std::countr_zero(word));
}
}  // namespace

RadioMedium::RadioMedium(Simulator& sim, const LinkGainTable& gains,
                         const CpmNoiseModel& noise, double tx_power_dbm,
                         std::uint64_t seed)
    : sim_(&sim),
      gains_(&gains),
      tx_power_dbm_(tx_power_dbm),
      max_loss_db_(tx_power_dbm - Cc2420Phy::kSensitivityDbm + kCutoffMarginDb),
      nodes_(gains.node_count()),
      idle_((gains.node_count() + kWordBits - 1) / kWordBits, 0),
      link_mw_(gains.node_count() * gains.node_count(), 0.0),
      rng_(seed, /*stream=*/0x4D454449ULL) {
  candidates_.reserve(gains.node_count());
  std::vector<std::uint64_t> row(idle_.size());
  for (const std::vector<NodeId>& list : gains.neighbor_lists(max_loss_db_)) {
    CandidateSpan span{static_cast<std::uint32_t>(candidate_words_.size()),
                       0, 0};
    if (!list.empty()) {
      std::fill(row.begin(), row.end(), 0);
      for (const NodeId nb : list) {
        row[nb / kWordBits] |= std::uint64_t{1} << (nb % kWordBits);
      }
      // The list is in id order, so its ends name the span's words.
      span.first = static_cast<std::uint32_t>(list.front() / kWordBits);
      span.words = static_cast<std::uint32_t>(list.back() / kWordBits + 1 -
                                              span.first);
      candidate_words_.insert(candidate_words_.end(), row.begin() + span.first,
                              row.begin() + span.first + span.words);
      lock_words_ = std::max<std::size_t>(lock_words_, span.words);
    }
    candidates_.push_back(span);
  }
  noise_.reserve(gains.node_count());
  for (std::size_t i = 0; i < gains.node_count(); ++i) {
    noise_.push_back(noise.make_generator(seed ^ (i * 0x9E3779B97F4A7C15ULL),
                                          /*stream=*/i + 1));
  }
}

void RadioMedium::attach(NodeId id, MediumListener& listener) {
  assert(id < nodes_.size());
  nodes_[id].listener = &listener;
}

double RadioMedium::effective_loss_db(NodeId tx, NodeId rx) const {
  double loss = gains_->loss_db(tx, rx);
  if (!link_offsets_.empty()) {
    const auto it = link_offsets_.find(link_key(tx, rx));
    if (it != link_offsets_.end()) loss += it->second;
  }
  return loss;
}

double RadioMedium::rssi_dbm(NodeId tx, NodeId rx) const {
  double rssi = gains_->rssi_dbm(tx, rx, tx_power_dbm_);
  if (!link_offsets_.empty()) {
    const auto it = link_offsets_.find(link_key(tx, rx));
    if (it != link_offsets_.end()) rssi -= it->second;
  }
  return rssi;
}

double RadioMedium::fill_link_mw(double& mw, NodeId tx, NodeId rx) const {
  mw = dbm_to_mw(rssi_dbm(tx, rx));
  return mw;
}

template <typename Sum>
double RadioMedium::sum_into(NodeId rx, Sum&& sum) {
  if (!link_offsets_.empty()) {
    return sum([this, rx](NodeId tx) { return dbm_to_mw(rssi_dbm(tx, rx)); });
  }
  double* const row = &link_mw_[static_cast<std::size_t>(rx) * nodes_.size()];
  return sum([this, row, rx](NodeId tx) {
    double& mw = row[tx];
    return mw != 0.0 ? mw : fill_link_mw(mw, tx, rx);
  });
}

double RadioMedium::link_mw(NodeId tx, NodeId rx) {
  return sum_into(rx, [tx](auto mw) { return mw(tx); });
}

void RadioMedium::add_link_loss_db(NodeId a, NodeId b, double extra_db) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) return;
  const double offset = (link_offsets_[link_key(a, b)] += extra_db);
  // Drop neutralized entries so the hot-path empty() check recovers.
  if (offset > -1e-9 && offset < 1e-9) link_offsets_.erase(link_key(a, b));
}

double RadioMedium::link_loss_offset_db(NodeId a, NodeId b) const {
  const auto it = link_offsets_.find(link_key(a, b));
  return it == link_offsets_.end() ? 0.0 : it->second;
}

void RadioMedium::set_extra_noise_dbm(NodeId id, double dbm) {
  if (id >= nodes_.size()) return;
  if (extra_noise_mw_.empty()) extra_noise_mw_.assign(nodes_.size(), 0.0);
  extra_noise_mw_[id] = dbm_to_mw(dbm);
}

void RadioMedium::clear_extra_noise(NodeId id) {
  if (id < extra_noise_mw_.size()) extra_noise_mw_[id] = 0.0;
}

void RadioMedium::update_idle(NodeId id) {
  const NodeState& st = nodes_[id];
  const std::uint64_t bit = std::uint64_t{1} << (id % kWordBits);
  std::uint64_t& word = idle_[id / kWordBits];
  word = st.listening && !st.txing && st.locked_tx == 0 ? word | bit
                                                        : word & ~bit;
}

void RadioMedium::set_listening(NodeId id, bool listening) {
  NodeState& st = nodes_[id];
  if (st.listening == listening) return;
  st.listening = listening;
  if (!listening) st.locked_tx = 0;  // sleeping aborts any in-flight reception
  update_idle(id);
}

bool RadioMedium::frame_wants_ack(const Frame& frame) noexcept {
  if (!frame.is_broadcast()) return true;
  if (const auto* cp = std::get_if<msg::ControlPacket>(&frame.payload)) {
    // Opportunistic control packets are link-layer anycast: broadcast
    // addressing, but any eligible overhearer claims them with an ack.
    return cp->mode == msg::ControlMode::kOpportunistic;
  }
  // Group control packets and ORPL downward data are always anycast.
  return std::holds_alternative<msg::GroupControlPacket>(frame.payload) ||
         std::holds_alternative<msg::OrplData>(frame.payload);
}

void RadioMedium::transmit(NodeId src, Frame frame, std::size_t mpdu) {
  NodeState& st = nodes_[src];
  assert(st.listener != nullptr && "transmit() before attach()");
  assert(!st.txing && "MAC started a transmission while one is in flight");
  assert(mpdu == wire_size_bytes(frame));
  st.txing = true;
  st.locked_tx = 0;  // transmitting aborts any in-flight reception
  update_idle(src);

  const SimTime airtime = Cc2420Phy::airtime(mpdu);
  const SimTime start = sim_->now();
  const SimTime end = start + airtime;
  const std::uint64_t id = next_tx_id_++;

  ++total_transmissions_;
  for (const auto& hook : transmit_hooks_) hook(src, frame, airtime);

  std::uint32_t slot;
  if (free_frames_.empty()) {
    slot = static_cast<std::uint32_t>(frames_.size());
    frames_.push_back(std::move(frame));
    locked_.resize(frames_.size() * lock_words_);
  } else {
    slot = free_frames_.back();
    free_frames_.pop_back();
    frames_[slot] = std::move(frame);
  }

  // Lock every in-range idle listener to this transmission, and record the
  // locks in the slot's words. Nodes already locked to an earlier frame
  // keep that lock; this frame only interferes.
  const CandidateSpan span = candidates_[src];
  const std::uint64_t* candidates = candidate_words_.data() + span.offset;
  std::uint64_t* idle = idle_.data() + span.first;
  std::uint64_t* locked = locked_.data() + slot * lock_words_;
  for (std::uint32_t w = 0; w < span.words; ++w) {
    std::uint64_t bits = candidates[w] & idle[w];
    const std::size_t base = (span.first + w) * kWordBits;
    if (bits != 0 && !link_offsets_.empty()) {
      // An injected link fault can push a statically-in-range link below
      // the cutoff: such a receiver never even locks onto the preamble.
      for (std::uint64_t b = bits; b != 0; b &= b - 1) {
        const std::size_t bit = lowest_bit(b);
        const auto nb = static_cast<NodeId>(base + bit);
        if (effective_loss_db(src, nb) > max_loss_db_) {
          bits &= ~(std::uint64_t{1} << bit);
        }
      }
    }
    idle[w] &= ~bits;
    locked[w] = bits;
    for (std::uint64_t b = bits; b != 0; b &= b - 1) {
      nodes_[base + lowest_bit(b)].locked_tx = id;
    }
  }

  max_airtime_ = std::max(max_airtime_, airtime);
  history_.push_back(
      TxRecord{id, start, end, src, static_cast<std::uint32_t>(mpdu)});
  in_flight_.push_back(InFlight{id, src, slot});
  sim_->schedule_at(end, [this, id] { finish_tx(id); }, "radio.finish");
}

void RadioMedium::collect_overlaps(std::uint64_t tx_id, SimTime start,
                                   SimTime end) {
  overlaps_.clear();
  const double duration = static_cast<double>(end - start);
  if (duration <= 0) return;
  // Starts ascend and no frame lasts longer than max_airtime_, so every
  // entry before `first` ended by `start`, and every entry from the first one
  // starting at or after `end` on cannot overlap either.
  const auto first = std::partition_point(
      history_.begin(), history_.end(), [&](const TxRecord& other) {
        return other.start + max_airtime_ <= start;
      });
  for (auto it = first; it != history_.end() && it->start < end; ++it) {
    const TxRecord& other = *it;
    if (other.id == tx_id) continue;
    const SimTime ov_start = std::max(start, other.start);
    const SimTime ov_end = std::min(end, other.end);
    if (ov_end <= ov_start) continue;
    overlaps_.push_back(Overlap{
        other.src, static_cast<double>(ov_end - ov_start) / duration});
  }
}

void RadioMedium::finish_tx(std::uint64_t tx_id) {
  const auto flight = std::lower_bound(
      in_flight_.begin(), in_flight_.end(), tx_id,
      [](const InFlight& f, std::uint64_t id) { return f.id < id; });
  assert(flight != in_flight_.end() && flight->id == tx_id);
  const NodeId src = flight->src;
  const std::uint32_t slot = flight->slot;
  in_flight_.erase(flight);
  // The slot stays taken until the end, so the frame stays put while
  // listeners run (frames_ is a deque: growing it moves nothing).
  const Frame& frame = frames_[slot];
  const TxRecord& record = history_[tx_id - history_.front().id];
  const SimTime start = record.start;
  const SimTime end = record.end;
  const std::size_t mpdu = record.mpdu;

  // Resolve reception at every receiver locked to this transmission.
  struct Acker {
    NodeId id;
    double rssi_at_src_dbm;
  };
  std::vector<Acker> ackers;
  bool overlaps_collected = false;
  // The slot's words hold every receiver this transmission locked. Walked
  // in ascending id order, they resolve and draw from rng_ in node order. A
  // receiver that slept or began transmitting since has dropped the lock.
  const CandidateSpan span = candidates_[src];
  for (std::uint32_t w = 0; w < span.words; ++w) {
    // Read by index: a listener that transmits can grow locked_.
    for (std::uint64_t bits = locked_[slot * lock_words_ + w]; bits != 0;
         bits &= bits - 1) {
      const auto rx_id = static_cast<NodeId>((span.first + w) * kWordBits +
                                             lowest_bit(bits));
      NodeState& rx = nodes_[rx_id];
      if (rx.locked_tx != tx_id) continue;
      rx.locked_tx = 0;
      update_idle(rx_id);
      if (!overlaps_collected) {
        collect_overlaps(tx_id, start, end);
        overlaps_collected = true;
      }

      const double signal_dbm = rssi_dbm(src, rx_id);
      const double signal_mw = link_mw(src, rx_id);
      const double noise_mw = noise_floor_mw(rx_id);
      // Mean power of the overlapping transmissions, energy-weighted by
      // overlap; a receiver's own transmissions do not count.
      const double interf_mw = sum_into(rx_id, [&](auto mw) {
        double sum = 0.0;
        for (const Overlap& o : overlaps_) {
          if (o.src != rx_id) sum += mw(o.src) * o.frac;
        }
        return sum;
      });
      // Capture model: an interference-limited reception must clear the
      // co-channel rejection threshold, or it fails without a draw. Past
      // it, a uniform01() draw u receives the frame iff u < PRR, which is
      // rng_.chance(PRR). Both verdicts are exact and skip libm away from
      // their edges (see Cc2420Phy).
      const double total_mw = noise_mw + interf_mw;
      if (interf_mw > noise_mw &&
          Cc2420Phy::below_capture(signal_dbm, signal_mw, total_mw)) {
        continue;
      }
      const double u = rng_.uniform01();
      if (!Cc2420Phy::receives(u, signal_dbm, signal_mw, total_mw, mpdu)) {
        continue;
      }

      const AckDecision decision =
          rx.listener->on_frame(frame, signal_dbm);
      if (decision == AckDecision::kAcceptAndAck) {
        ackers.push_back(Acker{rx_id, rssi_dbm(rx_id, src)});
      }
    }
  }

  const bool wants_ack = frame_wants_ack(frame);
  free_frames_.push_back(slot);
  if (!wants_ack) {
    nodes_[src].txing = false;
    update_idle(src);
    nodes_[src].listener->on_tx_done(false, kInvalidNode);
    prune_history();
    return;
  }

  // Acknowledgement window: turnaround + ack airtime. Multiple simultaneous
  // ackers collide; the strongest captures only if it clears the sum of the
  // others by the capture threshold, then must still pass the PRR draw.
  bool acked = false;
  NodeId acker_id = kInvalidNode;
  if (!ackers.empty()) {
    auto strongest = std::max_element(
        ackers.begin(), ackers.end(), [](const Acker& a, const Acker& b) {
          return a.rssi_at_src_dbm < b.rssi_at_src_dbm;
        });
    double others_mw = 0.0;
    for (const auto& a : ackers) {
      if (a.id != strongest->id) others_mw += dbm_to_mw(a.rssi_at_src_dbm);
    }
    const double floor_mw = noise_floor_mw(src);
    const bool captured =
        others_mw <= 0.0 ||
        strongest->rssi_at_src_dbm - mw_to_dbm(others_mw) >=
            kAckCaptureDb;
    if (captured) {
      const double sinr =
          strongest->rssi_at_src_dbm - mw_to_dbm(floor_mw + others_mw);
      const double prr = Cc2420Phy::packet_reception_ratio(
          sinr, strongest->rssi_at_src_dbm, Cc2420Phy::kAckMpduBytes);
      if (rng_.chance(prr)) {
        acked = true;
        acker_id = strongest->id;
      }
    }
  }

  const SimTime ack_window =
      Cc2420Phy::kTurnaroundTime + Cc2420Phy::ack_airtime();
  sim_->schedule_in(
      ack_window,
      [this, src, acked, acker_id] {
        nodes_[src].txing = false;
        update_idle(src);
        nodes_[src].listener->on_tx_done(acked, acker_id);
      },
      "radio.ack");
  prune_history();
}

void RadioMedium::prune_history() {
  // A reception still to finish started at or after now - max_airtime_, so
  // a transmission that ended by then can no longer overlap one. Such an
  // entry has also finished: its finish_tx ran at its end.
  const SimTime now = sim_->now();
  while (!history_.empty() && history_.front().end + max_airtime_ <= now) {
    history_.pop_front();
  }
}

double RadioMedium::noise_floor_mw(NodeId id) {
  const SimTime now = sim_->now();
  double mw = noise_[id].noise_mw(now) + extra_noise_mw(id);
  if (interferer_ != nullptr) mw += interferer_->power_mw_at(id, now);
  return mw;
}

double RadioMedium::noise_dbm(NodeId id) {
  return mw_to_dbm(noise_floor_mw(id));
}

double RadioMedium::energy_over_mw(NodeId id, double floor_mw) {
  return sum_into(id, [&](auto mw) {
    double sum = floor_mw;
    for (const InFlight& tx : in_flight_) {
      if (tx.src != id) sum += mw(tx.src);
    }
    return sum;
  });
}

double RadioMedium::channel_energy_dbm(NodeId id) {
  // The noise floor goes through dBm and back, as it always has: dropping
  // the round trip changes bits at the CCA threshold.
  return mw_to_dbm(energy_over_mw(id, dbm_to_mw(noise_dbm(id))));
}

bool RadioMedium::channel_busy(NodeId id, const DbmThreshold& threshold) {
  // The round trip moves an unclamped floor, and so the sum, by about 1e-14
  // of its value: outside the threshold's 1e-9 band the sum without it gets
  // the verdict channel_energy_dbm would. Inside the band it is evaluated.
  const double floor_mw = noise_floor_mw(id);
  const double mw = energy_over_mw(id, floor_mw);
  if (floor_mw >= kFloorMw && !threshold.near(mw)) {
    return threshold.exceeded_by(mw);
  }
  return threshold.exceeded_by(
      energy_over_mw(id, dbm_to_mw(mw_to_dbm(floor_mw))));
}

}  // namespace telea
