#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "radio/interferer.hpp"
#include "radio/noise.hpp"
#include "radio/packet.hpp"
#include "radio/propagation.hpp"
#include "sim/simulator.hpp"
#include "util/dbm.hpp"

namespace telea {

/// What a node that decoded a frame copy wants to do with it. TeleAdjusting's
/// opportunistic forwarding hinges on kAcceptAndAck from nodes that are *not*
/// the link-layer addressee (anycast): any eligible overhearer may claim the
/// packet by acknowledging (paper Sec. III-C2).
enum class AckDecision : std::uint8_t {
  kIgnore,        // drop silently (still overheard it; caller already acted)
  kAccept,        // consume, no acknowledgement (broadcast receptions)
  kAcceptAndAck,  // consume and acknowledge the transmitter
};

/// Per-node interface the MAC implements to talk to the shared medium.
class MediumListener {
 public:
  virtual ~MediumListener() = default;

  /// A frame copy was decoded at this node. `rssi_dbm` is the received
  /// power. The return value drives link-layer acknowledgement.
  virtual AckDecision on_frame(const Frame& frame, double rssi_dbm) = 0;

  /// This node's own transmission copy (and its ack window) completed.
  /// `acked` is true when an acknowledgement was successfully decoded;
  /// `acker` identifies who claimed the frame (valid only when acked).
  virtual void on_tx_done(bool acked, NodeId acker) = 0;
};

/// The shared wireless channel: packet-granularity SINR arbitration in the
/// style of TOSSIM. A transmission locks every in-range listening radio at
/// its start; at its end, each locked receiver samples CPM noise, sums the
/// power of all overlapping transmissions (energy-weighted by overlap) plus
/// WiFi interference, and draws reception from the CC2420 PRR curve.
class RadioMedium {
 public:
  /// Every node transmits at `tx_power_dbm` (Topology::tx_power_dbm; the
  /// paper's testbed runs the CC2420 at PA level 2).
  RadioMedium(Simulator& sim, const LinkGainTable& gains,
              const CpmNoiseModel& noise, double tx_power_dbm,
              std::uint64_t seed);

  RadioMedium(const RadioMedium&) = delete;
  RadioMedium& operator=(const RadioMedium&) = delete;

  /// Registers the MAC for `id`. Must be called for every node before use.
  void attach(NodeId id, MediumListener& listener);

  /// Optional bursty interferer (WiFi on the paper's channel 19).
  void set_interferer(WifiInterferer* interferer) { interferer_ = interferer; }

  /// Radio on/off (LPL wake/sleep). A radio that turns on mid-transmission
  /// misses that copy — exactly why LPL senders repeat.
  void set_listening(NodeId id, bool listening);

  /// Starts transmitting `frame` from `src`. The MAC must not call this again
  /// for `src` until its on_tx_done fires. Unicast/anycast frames include an
  /// acknowledgement window after the frame airtime.
  void transmit(NodeId src, Frame frame);

  /// True while `src` is mid-transmission (including the ack window).
  [[nodiscard]] bool transmitting(NodeId src) const {
    return nodes_[src].txing;
  }

  /// True while `id`'s radio is locked onto an in-flight frame.
  [[nodiscard]] bool receiving(NodeId id) const {
    return nodes_[id].locked_tx != 0;
  }

  /// Instantaneous channel energy at `id` (noise + all active transmissions
  /// + interferer) for CCA.
  [[nodiscard]] double channel_energy_dbm(NodeId id);

  /// CCA verdict: exactly whether `channel_energy_dbm(id)` exceeds the
  /// threshold's dBm, decided in mW without a log unless the energy lies
  /// within 1e-9 of the threshold (see DbmThreshold).
  [[nodiscard]] bool channel_busy(NodeId id, const DbmThreshold& threshold);

  /// Noise + interference only (no transmissions) — receiver noise floor.
  [[nodiscard]] double noise_dbm(NodeId id);

  /// Whether an acknowledgement window follows this frame (unicast frames
  /// and opportunistic control packets; plain broadcasts are unacked).
  [[nodiscard]] static bool frame_wants_ack(const Frame& frame) noexcept;

  using TransmitHook =
      std::function<void(NodeId src, const Frame& frame, SimTime airtime)>;
  /// Adds a stats hook invoked once per transmitted copy, alongside any
  /// existing ones (tracing + metrics coexist).
  void add_transmit_hook(TransmitHook hook) {
    if (hook) transmit_hooks_.push_back(std::move(hook));
  }

  [[nodiscard]] std::uint64_t total_transmissions() const noexcept {
    return total_transmissions_;
  }

  // --- fault injection (harness) -------------------------------------------
  /// Attenuation guaranteed to put any link below the reception cutoff —
  /// `add_link_loss_db(a, b, kBlackoutLossDb)` severs a link outright.
  static constexpr double kBlackoutLossDb = 500.0;

  /// Adds `extra_db` of attenuation on the (symmetric) link a<->b, on top of
  /// the static gain table. Offsets from multiple causes accumulate; pass a
  /// negative value to undo an earlier degradation. A link whose effective
  /// loss exceeds the neighbor cutoff stops locking receivers entirely.
  void add_link_loss_db(NodeId a, NodeId b, double extra_db);

  /// Current injected offset on a<->b (0 when unperturbed).
  [[nodiscard]] double link_loss_offset_db(NodeId a, NodeId b) const;

  /// Injects a constant noise source of `dbm` at `id`'s receiver (a jammer /
  /// co-located appliance); raises its noise floor for receptions, ack
  /// decoding and CCA alike.
  void set_extra_noise_dbm(NodeId id, double dbm);
  /// Removes the injected noise source at `id`.
  void clear_extra_noise(NodeId id);

  [[nodiscard]] const LinkGainTable& gains() const noexcept { return *gains_; }
  [[nodiscard]] double tx_power_dbm() const noexcept { return tx_power_dbm_; }

 private:
  /// One transmission in the overlap history: plain data, no frame.
  struct TxRecord {
    std::uint64_t id;
    SimTime start;
    SimTime end;
    NodeId src;
  };

  /// A transmission whose frame has not finished yet; the frame itself is
  /// `frames_[slot]`, so the CCA sum walks plain 16-byte entries.
  struct InFlight {
    std::uint64_t id;
    NodeId src;
    std::uint32_t slot;
  };

  struct NodeState {
    MediumListener* listener = nullptr;
    bool listening = false;
    bool txing = false;
    std::uint64_t locked_tx = 0;  // 0 = not locked
  };

  /// An earlier transmission overlapping the one being resolved: its sender
  /// and the fraction of the resolved frame's airtime it covers.
  struct Overlap {
    NodeId src;
    double frac;
  };

  void finish_tx(std::uint64_t tx_id);
  void prune_history();
  /// Sets `id`'s idle_ bit from its NodeState.
  void update_idle(NodeId id);

  /// Fills overlaps_ with every history entry other than `tx_id` that
  /// overlaps [start, end), in history order.
  void collect_overlaps(std::uint64_t tx_id, SimTime start, SimTime end);
  /// CPM noise + injected noise + interferer at `id` now, in mW.
  [[nodiscard]] double noise_floor_mw(NodeId id);
  /// `floor_mw` plus every transmission in flight heard at `id`, in mW,
  /// added in in-flight order (the sum channel_energy_dbm converts).
  [[nodiscard]] double energy_over_mw(NodeId id, double floor_mw);

  /// Received power tx->rx including injected link offsets.
  [[nodiscard]] double rssi_dbm(NodeId tx, NodeId rx) const;
  /// rssi_dbm(tx, rx) in mW. Served from a per-link cache while no link
  /// offset is active; with offsets every read recomputes.
  [[nodiscard]] double link_mw(NodeId tx, NodeId rx);
  /// Calls `sum(mw)` and returns its result, where `mw(tx)` is
  /// link_mw(tx, rx). Offsets are tested once: while there are none, `mw`
  /// reads rx's row of link_mw_ through one pointer, inline.
  template <typename Sum>
  [[nodiscard]] double sum_into(NodeId rx, Sum&& sum);
  /// Fills and returns link_mw_'s entry `mw` for tx->rx (first read).
  [[nodiscard]] double fill_link_mw(double& mw, NodeId tx, NodeId rx) const;
  /// Static table loss plus injected offsets (the neighbor-cutoff test).
  [[nodiscard]] double effective_loss_db(NodeId tx, NodeId rx) const;
  [[nodiscard]] static std::uint64_t link_key(NodeId a, NodeId b) noexcept {
    const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
    const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
    return (hi << 32) | lo;
  }
  /// Injected noise at `id` in mW (0 when none).
  [[nodiscard]] double extra_noise_mw(NodeId id) const noexcept {
    return id < extra_noise_mw_.size() ? extra_noise_mw_[id] : 0.0;
  }

  Simulator* sim_;
  const LinkGainTable* gains_;
  double tx_power_dbm_;
  /// Candidate-receiver cutoff: links lossier than this are never considered
  /// (guaranteed below sensitivity even at zero noise).
  double max_loss_db_;
  std::vector<NodeState> nodes_;
  std::vector<CpmNoiseModel::Generator> noise_;
  /// Node-id bitsets are arrays of 64-bit words: word w holds ids 64w to
  /// 64w + 63, id 64w in bit 0. A source's candidate receivers (the only
  /// nodes its transmissions can lock) are stored only from the first to
  /// the last non-zero word, so a transmission costs the span of its
  /// neighbourhood's ids, not N/64. Fixed for the medium's lifetime.
  struct CandidateSpan {
    std::uint32_t offset;  // of the span's first word in candidate_words_
    std::uint32_t first;   // the bitset word it starts at
    std::uint32_t words;   // 0 for a source with no candidates
  };
  std::vector<CandidateSpan> candidates_;
  std::vector<std::uint64_t> candidate_words_;
  /// The nodes a new transmission can lock: listening, not transmitting and
  /// not locked. Every change to one of those three fields updates it.
  std::vector<std::uint64_t> idle_;
  /// The receivers each in-flight frame locked, over its source's candidate
  /// span: lock_words_ words per frame slot (the widest span).
  std::vector<std::uint64_t> locked_;
  std::size_t lock_words_ = 0;
  /// Every transmission that may still overlap a reception, ids ascending
  /// (ids are issued in start order, so starts ascend too).
  std::deque<TxRecord> history_;
  std::vector<InFlight> in_flight_;  // ids ascending
  /// Frames in flight, by InFlight::slot, recycled through free_frames_. A
  /// deque, so a transmission started from on_frame cannot move the frame
  /// finish_tx is delivering.
  std::deque<Frame> frames_;
  std::vector<std::uint32_t> free_frames_;
  SimTime max_airtime_ = 0;          // longest frame transmitted so far
  /// Lazily filled dbm_to_mw(rssi) per directed link, receiver-major
  /// ([rx][tx]) so one receiver's interference sum walks one row; 0 = unset.
  std::vector<double> link_mw_;
  std::vector<Overlap> overlaps_;  // finish_tx scratch
  /// A reception whose noise + interference, times this factor, is below
  /// the signal in mW clears both the capture threshold and
  /// Cc2420Phy::kSaturatedSinrDb: its PRR is exactly 1.0 (see finish_tx).
  double clear_rx_factor_;
  WifiInterferer* interferer_ = nullptr;
  Pcg32 rng_;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t total_transmissions_ = 0;
  std::vector<TransmitHook> transmit_hooks_;
  // Fault-injection state: sparse so the unperturbed hot path stays a single
  // empty() check per RSSI read.
  std::unordered_map<std::uint64_t, double> link_offsets_;
  std::vector<double> extra_noise_mw_;  // per node, 0 = no injected source
};

}  // namespace telea
