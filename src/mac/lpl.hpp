#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "radio/medium.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/trace.hpp"
#include "util/dbm.hpp"
#include "util/rng.hpp"

namespace telea {

/// Upper-layer interface: the node's frame dispatcher. Called once per
/// distinct frame (the MAC suppresses duplicate LPL copies); `for_me` is true
/// for broadcast frames and unicasts addressed to this node. The return
/// value controls link-layer acknowledgement — returning kAcceptAndAck for a
/// frame *not* addressed to you is how TeleAdjusting claims anycast control
/// packets (Sec. III-C2).
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  virtual AckDecision handle_frame(const Frame& frame, bool for_me,
                                   double rssi_dbm) = 0;

  /// A repeated LPL copy of an already-delivered frame was heard (and
  /// re-acked if previously claimed). TeleAdjusting uses this to detect that
  /// its claim-acks are not reaching the sender (Sec. III-C2 duplicate
  /// handling). Default: ignore.
  virtual void on_duplicate_frame(const Frame& frame, bool for_me) {
    (void)frame;
    (void)for_me;
  }
};

/// Receivers wake once per interval (paper Sec. IV-A1 / IV-B1).
inline constexpr SimTime kWakeInterval = 512 * kMillisecond;

/// Listen window at each wakeup.
inline constexpr SimTime kCcaWindow = 11 * kMillisecond;

struct SendResult {
  bool success = false;
  NodeId acker = kInvalidNode;  // who claimed the frame (unicast/anycast)
  unsigned copies = 0;          // transmitted copies of this frame
};

/// Low-power-listening MAC in the style of TinyOS's BoX-MAC-2 / LplC — the
/// MAC the paper's stack ("CTP built upon LPL") runs on:
///
/// * Receivers sleep and wake every `kWakeInterval`, sampling the channel
///   for `kCcaWindow`; energy keeps them awake to catch a full frame copy.
/// * Senders repeat the frame back-to-back. Unicast/anycast stops at the
///   first decoded acknowledgement; broadcast runs a full wake interval so
///   every neighbor's window intersects a copy.
/// * Radio-on time is accounted for the paper's duty-cycle metric (Fig. 9).
class LplMac final : public MediumListener {
 public:
  /// `router` receives the end of each control frame's sweep, acked or not.
  LplMac(Simulator& sim, RadioMedium& medium, TraceRouter& router, NodeId id,
         std::uint64_t seed);

  LplMac(const LplMac&) = delete;
  LplMac& operator=(const LplMac&) = delete;

  void set_handler(FrameHandler& handler) { handler_ = &handler; }

  /// Starts duty cycling with a random wake phase. Call once at node boot.
  void start();

  /// Kills the node's radio: stops duty cycling, drops the send queue, turns
  /// the radio off and rejects future sends. Failure injection for tests and
  /// robustness experiments.
  void stop();

  /// Brings a stopped node back to life (reboot): duty cycling resumes with
  /// a fresh wake phase. Link-layer state (dedup cache) survives; protocol
  /// state above is whatever it was — exactly like a mote rebooting.
  void restart();

  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  using SendCallback = std::function<void(const SendResult&)>;

  /// Enqueues a frame for LPL transmission. Returns false when the send
  /// queue is full (the frame is dropped, callback never fires).
  bool send(Frame frame, SendCallback done);

  /// Like send(), but returns the operation's link sequence token so the
  /// caller can cancel it later (nullopt = queue full).
  std::optional<std::uint32_t> send_cancellable(Frame frame, SendCallback done);

  /// Cancels a pending or in-flight send operation by its token. A queued
  /// frame is dropped immediately; an in-flight one stops after the current
  /// copy. The callback fires with success=false either way. No-op for
  /// unknown/completed tokens.
  void cancel_send(std::uint32_t link_seq);

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  [[nodiscard]] bool radio_on() const noexcept { return awake_reasons_ != 0; }

  // --- energy / traffic accounting -------------------------------------
  [[nodiscard]] SimTime radio_on_time() const noexcept;
  /// Time spent actually transmitting (a subset of radio_on_time),
  /// for the energy model's TX-current term.
  [[nodiscard]] SimTime tx_airtime() const noexcept { return tx_airtime_; }
  /// Length of the current accounting window.
  [[nodiscard]] SimTime accounting_window() const noexcept {
    return sim_->now() - accounting_start_;
  }
  [[nodiscard]] double duty_cycle() const noexcept;
  [[nodiscard]] std::uint64_t copies_sent() const noexcept {
    return copies_sent_;
  }
  [[nodiscard]] std::uint64_t send_ops() const noexcept { return send_ops_; }
  /// Deepest the TX queue has been since boot (or since stop()) — the "TX
  /// queue" half of the in-band health report's high-water field.
  [[nodiscard]] std::size_t send_queue_hwm() const noexcept {
    return send_queue_hwm_;
  }
  /// Resets the accounting clock (call after warm-up so metrics cover only
  /// the measurement phase).
  void reset_accounting();

  // --- MediumListener ----------------------------------------------------
  AckDecision on_frame(const Frame& frame, double rssi_dbm) override;
  void on_tx_done(bool acked, NodeId acker) override;

 private:
  enum AwakeReason : unsigned {
    kWakeWindow = 1u << 0,
    kTxOp = 1u << 1,
    kRxLinger = 1u << 2,
  };

  struct PendingSend {
    Frame frame;
    SendCallback done;
    bool cancelled = false;
  };

  void acquire(AwakeReason reason);
  void release(AwakeReason reason);
  void on_wake();
  void wake_window_check();
  void try_start_next_send();
  void csma_attempt();
  void continue_send();
  void transmit_copy();
  void finish_send(bool success, NodeId acker);
  void end_rx_linger();

  Simulator* sim_;
  RadioMedium* medium_;
  TraceRouter* router_;
  NodeId id_;
  const DbmThreshold cca_;  // kCcaThresholdDbm, for channel_busy
  FrameHandler* handler_ = nullptr;
  Pcg32 rng_;

  Timer wake_timer_;
  Timer window_timer_;
  Timer linger_timer_;
  Timer csma_timer_;
  Timer gap_timer_;

  unsigned awake_reasons_ = 0;

  std::deque<PendingSend> queue_;
  std::size_t send_queue_hwm_ = 0;
  bool stopped_ = false;
  bool sending_ = false;      // a send op is in progress
  bool copy_in_flight_ = false;
  bool gap_retry_ = false;       // gap_timer_ re-runs CCA instead of sending
  unsigned quiet_samples_ = 0;   // consecutive quiet wake-window samples
  SimTime send_start_ = 0;
  std::size_t send_mpdu_ = 0;  // wire_size_bytes of the send op's frame
  unsigned copies_this_send_ = 0;
  unsigned csma_backoffs_ = 0;
  std::uint32_t next_link_seq_ = 1;

  // Duplicate suppression for repeated LPL copies: (src, link_seq) -> the
  // decision previously returned, so re-heard copies are re-acked but not
  // re-delivered.
  struct SeenEntry {
    AckDecision decision;
    SimTime heard;
  };
  std::unordered_map<std::uint64_t, SeenEntry> seen_;

  // Accounting.
  SimTime accounting_start_ = 0;
  SimTime radio_on_accum_ = 0;
  SimTime radio_on_since_ = 0;
  SimTime tx_airtime_ = 0;
  std::uint64_t copies_sent_ = 0;
  std::uint64_t send_ops_ = 0;
};

}  // namespace telea
