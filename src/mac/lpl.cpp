#include "mac/lpl.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "radio/phy.hpp"
#include "util/logging.hpp"

namespace telea {

namespace {
constexpr SimTime kLingerTime = 25 * kMillisecond;  // stay awake after a reception
constexpr SimTime kCopyGap = 500;                 // pause between repeated copies
constexpr double kCcaThresholdDbm = -85.0;
constexpr unsigned kMaxCsmaBackoffs = 5;
constexpr SimTime kBackoffUnit = 320;  // CC2420 backoff slot (us)
/// Sender keeps repeating copies for this many wake intervals before
/// declaring a unicast/anycast send failed (1.0 covers every wake phase).
constexpr double kMaxSendIntervals = 1.2;
constexpr SimTime kQuietRecheck = 1 * kMillisecond;
constexpr unsigned kQuietSamplesToSleep = 3;
constexpr std::size_t kSendQueueLimit = 8;  // the frame on air included

std::uint64_t seen_key(NodeId src, std::uint32_t link_seq) noexcept {
  return (static_cast<std::uint64_t>(src) << 32) | link_seq;
}
}  // namespace

LplMac::LplMac(Simulator& sim, RadioMedium& medium, TraceRouter& router,
               NodeId id, std::uint64_t seed)
    : sim_(&sim),
      medium_(&medium),
      router_(&router),
      id_(id),
      cca_(kCcaThresholdDbm),
      rng_(seed ^ (0xACDCULL + id), /*stream=*/id),
      wake_timer_(sim),
      window_timer_(sim),
      linger_timer_(sim),
      csma_timer_(sim),
      gap_timer_(sim) {
  medium.attach(id, *this);
  wake_timer_.set_callback([this] { on_wake(); });
  linger_timer_.set_callback([this] { end_rx_linger(); });
  csma_timer_.set_callback([this] { csma_attempt(); });
  gap_timer_.set_callback([this] {
    if (gap_retry_) {
      continue_send();
    } else {
      transmit_copy();
    }
  });
  window_timer_.set_callback([this] { wake_window_check(); });
  wake_timer_.set_tag("lpl.wake");
  window_timer_.set_tag("lpl.window");
  linger_timer_.set_tag("lpl.linger");
  csma_timer_.set_tag("lpl.csma");
  gap_timer_.set_tag("lpl.gap");
  accounting_start_ = sim.now();
}

void LplMac::start() {
  // Random wake phase: the asynchronous schedules TeleAdjusting exploits
  // ("earlier wake-up nodes", Sec. III-C2) come from exactly this offset.
  const SimTime offset = rng_.uniform(
      static_cast<std::uint32_t>(kWakeInterval));
  wake_timer_.start_periodic_at(offset + 1, kWakeInterval);
}

void LplMac::acquire(AwakeReason reason) {
  if (awake_reasons_ == 0) {
    medium_->set_listening(id_, true);
    radio_on_since_ = sim_->now();
  }
  awake_reasons_ |= reason;
}

void LplMac::release(AwakeReason reason) {
  if ((awake_reasons_ & reason) == 0) return;
  awake_reasons_ &= ~static_cast<unsigned>(reason);
  if (awake_reasons_ == 0) {
    medium_->set_listening(id_, false);
    radio_on_accum_ += sim_->now() - radio_on_since_;
  }
}

void LplMac::on_wake() {
  acquire(kWakeWindow);
  // First re-check after the full CCA window; then 1 ms polls that require
  // several consecutive quiet samples before sleeping, so the short gaps
  // between a sender's back-to-back copies don't cause a premature sleep
  // (same trick as TinyOS LPL's multi-sample CCA).
  quiet_samples_ = 0;
  window_timer_.start_one_shot(kCcaWindow);
}

void LplMac::wake_window_check() {
  const bool busy = medium_->receiving(id_) ||
                    medium_->channel_busy(id_, cca_);
  quiet_samples_ = busy ? 0 : quiet_samples_ + 1;
  if (quiet_samples_ >= kQuietSamplesToSleep) {
    release(kWakeWindow);
    return;
  }
  window_timer_.start_one_shot(kQuietRecheck);
}

void LplMac::end_rx_linger() { release(kRxLinger); }

void LplMac::stop() {
  stopped_ = true;
  wake_timer_.stop();
  window_timer_.stop();
  linger_timer_.stop();
  csma_timer_.stop();
  gap_timer_.stop();
  queue_.clear();
  send_queue_hwm_ = 0;  // RAM-resident watermark: lost with the queue
  sending_ = false;
  // Force the radio off regardless of held reasons.
  if (awake_reasons_ != 0) {
    awake_reasons_ = 0;
    medium_->set_listening(id_, false);
    radio_on_accum_ += sim_->now() - radio_on_since_;
  }
}

void LplMac::restart() {
  if (!stopped_) return;
  stopped_ = false;
  start();
}

bool LplMac::send(Frame frame, SendCallback done) {
  return send_cancellable(std::move(frame), std::move(done)).has_value();
}

std::optional<std::uint32_t> LplMac::send_cancellable(Frame frame,
                                                      SendCallback done) {
  if (stopped_) return std::nullopt;
  if (queue_.size() >= kSendQueueLimit) return std::nullopt;
  frame.src = id_;
  frame.link_seq = next_link_seq_++;
  const std::uint32_t token = frame.link_seq;
  queue_.push_back(PendingSend{std::move(frame), std::move(done), false});
  send_queue_hwm_ = std::max(send_queue_hwm_, queue_.size());
  try_start_next_send();
  return token;
}

void LplMac::cancel_send(std::uint32_t link_seq) {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].frame.link_seq != link_seq || queue_[i].cancelled) continue;
    if (i == 0 && sending_) {
      // In flight: let the current copy complete, then stop (the ongoing
      // medium transaction cannot be yanked back out of the air).
      queue_[i].cancelled = true;
      if (!copy_in_flight_) {
        csma_timer_.stop();
        gap_timer_.stop();
        finish_send(false, kInvalidNode);
      }
      return;
    }
    // Still queued: drop it and report failure.
    PendingSend dropped = std::move(queue_[i]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    if (dropped.done) dropped.done(SendResult{false, kInvalidNode, 0});
    return;
  }
}

void LplMac::try_start_next_send() {
  // A copy still on the air from before a stop()/restart() holds the radio
  // until its on_tx_done arrives.
  if (sending_ || copy_in_flight_ || queue_.empty()) return;
  sending_ = true;
  acquire(kTxOp);
  send_start_ = sim_->now();
  send_mpdu_ = wire_size_bytes(queue_.front().frame);
  copies_this_send_ = 0;
  csma_backoffs_ = 0;
  csma_attempt();
}

void LplMac::csma_attempt() {
  // Don't stomp on a frame this radio is currently locked onto.
  if (medium_->receiving(id_)) {
    csma_timer_.start_one_shot(2 * kMillisecond);
    return;
  }
  const bool clear = !medium_->channel_busy(id_, cca_);
  if (clear || csma_backoffs_ >= kMaxCsmaBackoffs) {
    // After exhausting backoffs, transmit anyway (congestion then shows up
    // as reduced PRR, not a silent local drop) — TinyOS CC2420 behaviour.
    transmit_copy();
    return;
  }
  ++csma_backoffs_;
  const std::uint32_t slots = rng_.uniform_in(1, 1u << std::min(csma_backoffs_, 5u));
  csma_timer_.start_one_shot(kBackoffUnit * slots);
}

void LplMac::transmit_copy() {
  assert(sending_ && !queue_.empty());
  copy_in_flight_ = true;
  ++copies_this_send_;
  ++copies_sent_;
  tx_airtime_ += Cc2420Phy::airtime(send_mpdu_);
  medium_->transmit(id_, queue_.front().frame, send_mpdu_);
}

void LplMac::on_tx_done(bool acked, NodeId acker) {
  assert(copy_in_flight_);
  copy_in_flight_ = false;
  if (stopped_) return;  // killed while a copy was in flight
  if (!sending_) {
    // The copy was sent before a stop()/restart() (an instant reboot): its
    // send op is gone, and sends queued since were waiting for the radio.
    try_start_next_send();
    return;
  }
  assert(!queue_.empty());

  if (queue_.front().cancelled) {
    finish_send(false, kInvalidNode);
    return;
  }
  const bool wants_ack = RadioMedium::frame_wants_ack(queue_.front().frame);
  if (wants_ack && acked) {
    finish_send(true, acker);
    return;
  }
  continue_send();
}

void LplMac::continue_send() {
  assert(sending_ && !queue_.empty());
  const bool wants_ack = RadioMedium::frame_wants_ack(queue_.front().frame);
  const SimTime elapsed = sim_->now() - send_start_;
  const auto limit = static_cast<SimTime>(
      static_cast<double>(kWakeInterval) *
      (wants_ack ? kMaxSendIntervals : 1.05));
  if (elapsed >= limit) {
    // A full sweep of every wake phase: broadcast is complete, while an
    // unacknowledged unicast/anycast is a link-layer failure.
    finish_send(!wants_ack, kInvalidNode);
    return;
  }
  // Per-copy CCA: concurrent senders (e.g. synchronized periodic traffic)
  // must interleave instead of colliding copy-for-copy through the whole
  // window. Busy channel -> short randomized defer, then try again.
  gap_retry_ = medium_->receiving(id_) ||
               medium_->channel_busy(id_, cca_);
  if (gap_retry_) {
    gap_timer_.start_one_shot(kMillisecond + rng_.uniform(2000));
    return;
  }
  gap_timer_.start_one_shot(kCopyGap);
}

void LplMac::finish_send(bool success, NodeId acker) {
  ++send_ops_;
  PendingSend done = std::move(queue_.front());
  queue_.pop_front();
  sending_ = false;
  release(kTxOp);
  // A control packet that swept every wake phase unacknowledged: the
  // link-layer evidence a forwarding retry or backtrack is built on.
  // (Cancelled sends are suppressions — the forwarding plane records those.)
  if (!done.cancelled) {
    if (const auto* cp = std::get_if<msg::ControlPacket>(&done.frame.payload)) {
      if (success) {
        // Span-engine boundary: the first kControlTx copy to this mark is
        // the hop's LPL wakeup wait + retransmission airtime.
        router_->record(id_, TraceEvent::kControlTxDone, cp->seqno, acker);
      } else {
        router_->record(id_, TraceEvent::kSuppress, cp->seqno,
                        cp->expected_relay, TraceReason::kRetryExhausted);
      }
    }
  }
  if (done.done) {
    done.done(SendResult{success, acker, copies_this_send_});
  }
  try_start_next_send();
}

AckDecision LplMac::on_frame(const Frame& frame, double rssi_dbm) {
  if (stopped_) return AckDecision::kIgnore;
  const std::uint64_t key = seen_key(frame.src, frame.link_seq);
  if (auto it = seen_.find(key); it != seen_.end()) {
    it->second.heard = sim_->now();
    // A repeated LPL copy of a frame we already have: re-ack if we claimed
    // it (the sender may have missed the first ack), and — crucially for the
    // duty cycle — go back to sleep instead of sitting out the rest of the
    // sender's transmission window (BoX-MAC-2 behaviour).
    release(kWakeWindow);
    window_timer_.stop();
    const AckDecision prior = it->second.decision;
    if (handler_ != nullptr) {
      handler_->on_duplicate_frame(frame,
                                   frame.is_broadcast() || frame.dst == id_);
    }
    return prior == AckDecision::kAcceptAndAck ? AckDecision::kAcceptAndAck
                                               : AckDecision::kIgnore;
  }

  // First copy of a new frame: end the wake window (its job is done) and
  // keep the radio up only briefly — follow-up traffic (our own forward, the
  // next relay's copy we might suppress on) arrives right away. Acquire the
  // linger before releasing the window so the radio never flickers off.
  acquire(kRxLinger);
  linger_timer_.start_one_shot(kLingerTime);
  release(kWakeWindow);
  window_timer_.stop();

  const bool for_me = frame.is_broadcast() || frame.dst == id_;
  AckDecision decision = AckDecision::kIgnore;
  if (handler_ != nullptr) {
    decision = handler_->handle_frame(frame, for_me, rssi_dbm);
  } else if (for_me) {
    decision = AckDecision::kAccept;
  }

  if (seen_.size() > 256) {
    const SimTime horizon = sim_->now();
    const SimTime keep = 2 * kWakeInterval;
    std::erase_if(seen_, [horizon, keep](const auto& kv) {
      return kv.second.heard + keep < horizon;
    });
  }
  seen_.emplace(key, SeenEntry{decision, sim_->now()});
  return decision;
}

SimTime LplMac::radio_on_time() const noexcept {
  SimTime total = radio_on_accum_;
  if (awake_reasons_ != 0) total += sim_->now() - radio_on_since_;
  return total;
}

double LplMac::duty_cycle() const noexcept {
  const SimTime elapsed = sim_->now() - accounting_start_;
  if (elapsed == 0) return 0.0;
  return static_cast<double>(radio_on_time()) / static_cast<double>(elapsed);
}

void LplMac::reset_accounting() {
  accounting_start_ = sim_->now();
  radio_on_accum_ = 0;
  if (awake_reasons_ != 0) radio_on_since_ = sim_->now();
  tx_airtime_ = 0;
  copies_sent_ = 0;
  send_ops_ = 0;
}

}  // namespace telea
