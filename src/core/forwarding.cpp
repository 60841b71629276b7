#include "core/forwarding.hpp"

#include <algorithm>

#include "util/field.hpp"
#include "util/logging.hpp"

namespace telea {

namespace {
/// Candidate relays must look usable to the link estimator (ETX in tenths
/// at most this) — prefix knowledge from a single lucky TeleBeacon does
/// not make a node a neighbor worth addressing. Falls back to ungated
/// candidates when none qualify.
constexpr std::uint16_t kRelayQualityEtx10 = 45;
/// If the upstream sender keeps repeating this many copies past our
/// (re-)acknowledgements, our acks are not landing — yield the claim (the
/// sender will pick, or has picked, another relay).
constexpr unsigned kClaimYieldDups = 8;
/// Unacknowledged LPL send operations before a relay declares itself unable
/// to progress and backtracks (Sec. III-C3). The paper's "more than 5 times"
/// counts packet transmissions; one of our send operations already sweeps
/// every wake phase with ~200 copies, so a single repeat is conclusive
/// evidence of unreachability.
constexpr unsigned kForwardRetries = 2;
/// After backtracking exhausts the origin's candidates, the origin tries
/// again this many times (clearing the unreachable marks the failed attempt
/// set) before declaring the destination unreachable — the sink-side retry
/// of Fig. 5(a).
constexpr unsigned kOriginRetries = 1;
constexpr SimTime kOriginRetryDelay = 3 * kSecond;
/// Safety expiry for unreachable marks if the neighbor's beacon is lost.
constexpr SimTime kUnreachableTimeout = 120 * kSecond;
}  // namespace

Forwarding::Forwarding(Simulator& sim, TraceRouter& router, LplMac& mac,
                       CtpNode& ctp, Addressing& addressing,
                       const ForwardingConfig& config)
    : sim_(&sim),
      router_(&router),
      mac_(&mac),
      ctp_(&ctp),
      addressing_(&addressing),
      config_(config) {}

Forwarding::PacketState& Forwarding::state_for(
    const msg::ControlPacket& packet) {
  PacketState& st = states_[packet.seqno];
  return st;
}

std::size_t Forwarding::own_match_len(const msg::ControlPacket& p) const {
  return own_match_toward(route_code(p));
}

std::optional<Forwarding::Candidate> Forwarding::pick_expected_relay(
    const msg::ControlPacket& p, std::size_t floor,
    std::vector<NodeId>* all) const {
  return pick_for_route(route_code(p), floor, all);
}

std::optional<Forwarding::Candidate> Forwarding::pick_relay(
    const PathCode& route, std::size_t floor) const {
  return pick_for_route(route, floor, nullptr);
}

std::size_t Forwarding::own_match_toward(const PathCode& route) const {
  std::size_t best = 0;
  const PathCode& code = addressing_->code();
  if (!code.empty() && code.is_prefix_of(route)) best = code.size();
  // Also match our retained old code (Sec. III-B6).
  const PathCode& old = addressing_->old_code();
  if (!old.empty() && old.is_prefix_of(route)) {
    best = std::max(best, old.size());
  }
  return best;
}

std::optional<Forwarding::Candidate> Forwarding::pick_for_route(
    const PathCode& route, std::size_t floor,
    std::vector<NodeId>* all) const {
  const NeighborCodeTable& neighbors = addressing_->neighbors();

  std::optional<Candidate> best_gated;
  std::optional<Candidate> best_any;
  auto consider = [&](NodeId id, const PathCode& code) {
    if (id == mac_->id() || code.empty()) return;
    if (neighbors.is_unreachable(id)) return;
    if (!code.is_prefix_of(route)) return;
    if (code.size() <= floor) return;
    if (all != nullptr) all->push_back(id);
    // Least-progress candidate wins (Fig. 4c): it maximizes the set of nodes
    // that can still opportunistically beat the expected relay.
    if (!best_any.has_value() || code.size() < best_any->code_len) {
      best_any = Candidate{id, code.size()};
    }
    // Prefer candidates the link estimator vouches for: a code learned from
    // one lucky TeleBeacon does not make a usable relay.
    if (ctp_->estimator().etx10(id) <= kRelayQualityEtx10 &&
        (!best_gated.has_value() || code.size() < best_gated->code_len)) {
      best_gated = Candidate{id, code.size()};
    }
  };

  // Also match against neighbors' retained old codes (Sec. III-B6).
  for (const auto& e : addressing_->children().entries()) {
    consider(e.child, e.new_code);
    consider(e.child, e.old_code);
  }
  for (const auto& e : neighbors.entries()) {
    consider(e.neighbor, e.new_code);
    consider(e.neighbor, e.old_code);
  }
  return best_gated.has_value() ? best_gated : best_any;
}

bool Forwarding::neighbor_can_progress(const msg::ControlPacket& p) const {
  // Condition (3) claims commit us to forwarding: only claim on the strength
  // of a neighbor the link estimator vouches for.
  const auto candidate = pick_expected_relay(p, p.expected_relay_code_len);
  return candidate.has_value() &&
         ctp_->estimator().etx10(candidate->id) <= kRelayQualityEtx10;
}

std::optional<std::uint32_t> Forwarding::send_control(NodeId dest,
                                                      const PathCode& dest_code,
                                                      std::uint16_t command) {
  msg::ControlPacket packet;
  packet.dest = dest;
  packet.dest_code = dest_code;
  packet.seqno = next_seqno_++;
  packet.command = command;
  packet.mode = msg::ControlMode::kOpportunistic;

  PacketState& st = states_[packet.seqno];
  st.packet = packet;
  st.holding = true;
  st.came_from = kInvalidNode;
  st.floor = own_match_len(packet);
  forward(packet.seqno);
  return packet.seqno;
}

bool Forwarding::send_control_detour(NodeId dest, const PathCode& dest_code,
                                     NodeId via, const PathCode& via_code,
                                     std::uint16_t command,
                                     std::uint32_t seqno) {
  msg::ControlPacket packet;
  packet.dest = dest;
  packet.dest_code = dest_code;
  packet.seqno = seqno;
  packet.command = command;
  packet.mode = msg::ControlMode::kOpportunistic;
  packet.detour_via = via;
  packet.detour_code = via_code;

  PacketState& st = states_[packet.seqno];
  st.packet = packet;
  st.holding = true;
  st.done = false;
  st.attempts = 0;
  st.came_from = kInvalidNode;
  st.floor = own_match_len(packet);
  forward(packet.seqno);
  return true;
}

AckDecision Forwarding::handle_control(NodeId from,
                                       const msg::ControlPacket& packet,
                                       bool for_me) {
  const NodeId me = mac_->id();
  PacketState& st = state_for(packet);
  addressing_->neighbors().expire_unreachable(sim_->now(),
                                              kUnreachableTimeout);

  // --- destination / detour direct delivery -------------------------------
  if (packet.dest == me) {
    const bool direct = packet.mode == msg::ControlMode::kDirect;
    if (!st.delivered_here) {
      st.delivered_here = true;
      st.done = true;
      msg::ControlPacket arrived = packet;
      arrived.hops_so_far = field::u8(packet.hops_so_far + 1);
      deliver(from, arrived, direct);
    }
    return AckDecision::kAcceptAndAck;
  }
  if (packet.mode == msg::ControlMode::kDirect) {
    // Direct unicast leg addressed to someone else: not ours to claim.
    return for_me ? AckDecision::kAcceptAndAck : AckDecision::kIgnore;
  }

  // --- suppression ---------------------------------------------------------
  // Finished is final for this copy of the packet — but a re-routed attempt
  // (the origin escalated to a different detour waypoint, reusing the seqno
  // for destination dedup) is a new instruction, not a resurrection.
  if (st.finished && packet.detour_via == st.packet.detour_via) {
    return AckDecision::kIgnore;
  }
  if (st.holding) {
    // Someone at least as far along is carrying the packet: drop our copy
    // (including any transmission already handed to the MAC).
    if (packet.expected_relay_code_len >= st.last_sent_expected_len &&
        from != me) {
      st.holding = false;
      ++stats_.suppressions;
      router_->record(me, TraceEvent::kSuppress, packet.seqno, from);
      if (st.mac_token.has_value()) {
        mac_->cancel_send(*st.mac_token);
        st.mac_token.reset();
      }
    }
    return AckDecision::kIgnore;
  }

  // --- claim conditions (Sec. III-C) --------------------------------------
  const NodeId target = route_target(packet);
  bool claim_it = false;
  TraceReason claim_reason = TraceReason::kNone;
  if (me == target) {
    claim_it = true;  // detour waypoint: we finish with a direct unicast
    claim_reason = TraceReason::kExpectedRelay;
  } else if (me == packet.expected_relay) {
    claim_it = true;  // condition (1)
    claim_reason = TraceReason::kExpectedRelay;
  } else if (config_.opportunistic) {
    const std::size_t mine = own_match_len(packet);
    if (mine > packet.expected_relay_code_len) {
      claim_it = true;  // condition (2)
      claim_reason = TraceReason::kLongerPrefix;
    } else if (config_.neighbor_assist && neighbor_can_progress(packet)) {
      claim_it = true;  // condition (3)
      claim_reason = TraceReason::kNeighborPrefix;
    }
  }

  if (!claim_it) return AckDecision::kIgnore;
  TELEA_DEBUG("tele.fwd") << "node " << me << " seq " << packet.seqno
                          << " claims from " << from << " (expected "
                          << packet.expected_relay << " len "
                          << int{packet.expected_relay_code_len} << ")";
  if (st.done) {
    // We already moved this packet downstream once. Re-claim only a clearly
    // regressed copy (a backtrack resurrection), and never within the
    // cooldown — otherwise lagging duplicates would multiply.
    const bool regressed =
        packet.expected_relay_code_len < st.last_sent_expected_len;
    const SimTime cooldown = 2 * kWakeInterval;
    if (!regressed || sim_->now() < st.last_done_at + cooldown) {
      return AckDecision::kIgnore;
    }
  }
  router_->record(me, TraceEvent::kForwardDecision, packet.seqno, from,
                  claim_reason);
  if (auditor_ != nullptr) {
    auditor_->on_claim(me, packet, claim_reason, /*rescue=*/false);
  }
  claim(from, packet);
  return AckDecision::kAcceptAndAck;
}

void Forwarding::claim(NodeId from, const msg::ControlPacket& packet) {
  PacketState& st = states_[packet.seqno];
  st.packet = packet;
  st.packet.hops_so_far = field::u8(packet.hops_so_far + 1);
  st.holding = true;
  st.done = false;
  // Every caller gates claims on the finished latch; reaching here means the
  // copy was judged materially new (e.g. a re-routed detour), so un-latch.
  st.finished = false;
  st.attempts = 0;
  st.came_from = from;
  // The progress we promised to beat: our own on-path depth, or — when
  // assisting from off the path (condition 3) — the expectation we outbid.
  st.floor = std::max<std::size_t>(own_match_len(packet),
                                   packet.expected_relay_code_len);
  // Until we transmit, our suppression threshold is the progress any forward
  // of ours would guarantee (floor+1) — otherwise an overheard *regressed*
  // copy would cancel a fresher claim.
  st.last_sent_expected_len =
      field::u8(std::min<std::size_t>(st.floor + 1, 0xFF));
  st.dup_acks = 0;
  st.defer_deadline = sim_->now() + kClaimDefer;
  ++stats_.claims;
  if (on_claimed) on_claimed(st.packet);
  // Guard delay before forwarding: stay in receive so the upstream sender
  // (which may have missed our ack) hears a re-ack and stops, instead of
  // recruiting a second claimant while we are deaf mid-transmission.
  const std::uint32_t seqno = packet.seqno;
  sim_->schedule_in(kClaimDefer, [this, seqno] { defer_check(seqno); },
                    "fwd.defer");
}

void Forwarding::defer_check(std::uint32_t seqno) {
  auto it = states_.find(seqno);
  if (it == states_.end()) return;
  PacketState& st = it->second;
  if (!st.holding || st.mac_token.has_value() || st.attempts > 0) return;
  const SimTime now = sim_->now();
  if (now < st.defer_deadline) {
    // Duplicates extended the quiet period: re-check at the new deadline.
    sim_->schedule_at(st.defer_deadline, [this, seqno] { defer_check(seqno); },
                      "fwd.defer");
    return;
  }
  if (st.dup_acks >= kClaimYieldDups) {
    // The sender never took any of our acknowledgements: the reverse link
    // is effectively one-way and another relay has (or will get) the
    // packet. Yield.
    TELEA_DEBUG("tele.fwd") << "node " << mac_->id() << " seq " << seqno
                            << " yields claim after " << st.dup_acks
                            << " ignored re-acks";
    st.holding = false;
    st.done = false;
    ++stats_.yields;
    router_->record(mac_->id(), TraceEvent::kSuppress, seqno, st.came_from,
                    TraceReason::kRetryExhausted);
    return;
  }
  forward(seqno);
}

void Forwarding::note_duplicate(NodeId from, const msg::ControlPacket& packet) {
  auto it = states_.find(packet.seqno);
  if (it == states_.end()) return;
  PacketState& st = it->second;
  if (!st.holding || st.mac_token.has_value() || st.attempts > 0) return;
  if (from != st.came_from) return;
  ++st.dup_acks;
  ++stats_.duplicates;
  st.defer_deadline = sim_->now() + kClaimDefer;
}

void Forwarding::deliver(NodeId from, const msg::ControlPacket& packet,
                         bool direct) {
  ++stats_.deliveries;
  router_->record(mac_->id(), TraceEvent::kControlDelivered, packet.seqno,
                  from == mac_->id() ? 0 : from);
  if (auditor_ != nullptr) {
    auditor_->on_final_delivery(mac_->id(), packet, direct);
  }
  if (on_delivered) on_delivered(packet, direct);
}

void Forwarding::forward(std::uint32_t seqno) {
  auto it = states_.find(seqno);
  if (it == states_.end() || !it->second.holding) return;
  PacketState& st = it->second;
  // Lazy lease check: the kUnreachableTimeout safety valve must not depend
  // on a routing beacon happening to arrive (steady-state trickle intervals
  // run to minutes) — expire stale marks at every forwarding decision too.
  addressing_->neighbors().expire_unreachable(sim_->now(),
                                              kUnreachableTimeout);
  const NodeId me = mac_->id();
  msg::ControlPacket packet = st.packet;

  // Detour waypoint: deterministic unicast to the destination (III-C4).
  if (route_target(packet) == me && packet.detour_via == me) {
    packet.mode = msg::ControlMode::kDirect;
    Frame frame;
    frame.dst = packet.dest;
    frame.payload = packet;
    st.mac_token = mac_->send_cancellable(std::move(frame),
                                          [this, seqno](const SendResult& r) {
                                            on_forward_result(seqno, r);
                                          });
    if (st.mac_token.has_value()) {
      ++stats_.forwards;
    } else {
      sim_->schedule_in(kSecond, [this, seqno] { forward(seqno); },
                        "fwd.retry");
    }
    return;
  }

  // Pick the expected relay: the least-progress known on-path node past the
  // progress floor fixed at claim time (stable across retries).
  const auto candidate = pick_expected_relay(packet, st.floor);
  if (!candidate.has_value()) {
    backtrack(seqno, TraceReason::kNeighborUnreachable);
    return;
  }
  packet.expected_relay = candidate->id;
  packet.expected_relay_code_len = field::u8(candidate->code_len);
  st.last_sent_expected_len = packet.expected_relay_code_len;
  st.packet.expected_relay = packet.expected_relay;
  st.packet.expected_relay_code_len = packet.expected_relay_code_len;

  TELEA_DEBUG("tele.fwd") << "node " << mac_->id() << " seq " << packet.seqno
                          << " attempt " << st.attempts << " expected "
                          << packet.expected_relay << " len "
                          << int{packet.expected_relay_code_len} << " floor "
                          << st.floor;

  Frame frame;
  frame.dst = kBroadcastNode;  // link-layer anycast (the medium acks it)
  frame.payload = packet;
  st.mac_token = mac_->send_cancellable(std::move(frame),
                                        [this, seqno](const SendResult& r) {
                                          on_forward_result(seqno, r);
                                        });
  if (st.mac_token.has_value()) {
    ++stats_.forwards;
  } else {
    sim_->schedule_in(kSecond, [this, seqno] { forward(seqno); }, "fwd.retry");
  }
}

void Forwarding::on_forward_result(std::uint32_t seqno,
                                   const SendResult& result) {
  auto it = states_.find(seqno);
  if (it == states_.end()) return;
  PacketState& st = it->second;
  if (!st.holding) return;  // suppressed while the send was in flight

  TELEA_DEBUG("tele.fwd") << "node " << mac_->id() << " seq " << seqno
                          << (result.success ? " acked by " : " failed, acker ")
                          << result.acker << " copies " << result.copies;
  st.mac_token.reset();
  // Anycast outcomes are link evidence: a full-sweep failure means the
  // expected relay (and every eligible sibling) never decoded us — exactly
  // the asymmetric-link signal the estimator needs; a success credits the
  // actual claimant.
  if (result.success && result.acker != kInvalidNode) {
    ctp_->estimator().on_data_tx(result.acker, true);
  } else if (!result.success &&
             st.packet.expected_relay != kInvalidNode) {
    ctp_->estimator().on_data_tx(st.packet.expected_relay, false);
  }

  if (result.success) {
    st.holding = false;
    st.done = true;
    st.last_done_at = sim_->now();
    return;
  }

  ++st.attempts;
  router_->record(mac_->id(), TraceEvent::kAckTimeout, seqno,
                  st.packet.expected_relay);
  if (st.attempts < kForwardRetries) {
    forward(seqno);
    return;
  }
  backtrack(seqno, TraceReason::kRetryExhausted);
}

void Forwarding::backtrack(std::uint32_t seqno, TraceReason reason) {
  PacketState& st = states_[seqno];
  st.holding = false;
  TELEA_DEBUG("tele.fwd") << "node " << mac_->id() << " seq " << seqno
                          << " backtracks to " << st.came_from;
  router_->record(mac_->id(), TraceEvent::kBacktrack, seqno, st.came_from,
                  reason);

  // Mark every on-path candidate we could not reach as unreachable until
  // their next routing beacon (Sec. III-C3).
  std::vector<NodeId> blocked;
  (void)pick_expected_relay(st.packet, own_match_len(st.packet), &blocked);
  for (NodeId n : blocked) {
    addressing_->neighbors().mark_unreachable(n, sim_->now());
    st.blocked.push_back(n);
  }

  if (st.came_from == kInvalidNode) {
    // We are the origin. The paper's sink retries once after a feedback
    // round (Fig. 5a) before engaging the countermeasure: clear the marks
    // this packet set and go again.
    if (st.origin_retries < kOriginRetries) {
      ++st.origin_retries;
      ++stats_.origin_retries;
      const std::uint32_t seq = seqno;
      sim_->schedule_in(kOriginRetryDelay, [this, seq] {
        auto it = states_.find(seq);
        if (it == states_.end()) return;
        PacketState& state = it->second;
        if (state.finished || state.done || state.holding) return;
        // A fresh attempt from the origin: forget every unreachable verdict
        // (they were learned under conditions that may have passed — the
        // paper's sink re-tries through the previously failed relay).
        for (const auto& e : addressing_->neighbors().entries()) {
          addressing_->neighbors().mark_reachable(e.neighbor);
        }
        state.blocked.clear();
        state.holding = true;
        state.attempts = 0;
        forward(seq);
      }, "fwd.origin_retry");
      return;
    }
    ++stats_.origin_failures;
    router_->record(mac_->id(), TraceEvent::kGiveUp, seqno,
                    st.origin_retries);
    if (on_origin_stuck) on_origin_stuck(st.packet);
    return;
  }
  if (!config_.backtracking) return;
  // Bounded: an undeliverable packet must not ping-pong between two relays
  // indefinitely (each re-holding, failing, and returning it).
  if (st.backtrack_rounds >= kMaxBacktracks) {
    TELEA_DEBUG("tele.fwd") << "node " << mac_->id() << " seq " << seqno
                            << " abandons after " << st.backtrack_rounds
                            << " backtrack rounds";
    // Out of budget is still a verdict. Hand the packet upstream one final
    // time — without it, the packet dies silently between two relays and the
    // origin waits forever for an ack that cannot come. The finished flag
    // stops this node from ever re-claiming the doomed packet, so no
    // ping-pong: each node forwards the verdict at most once.
    if (!st.finished) {
      send_feedback(seqno, /*attempt=*/0);
      st.finished = true;
    }
    return;
  }
  ++st.backtrack_rounds;
  ++stats_.backtracks;
  send_feedback(seqno, /*attempt=*/0);
}

void Forwarding::send_feedback(std::uint32_t seqno, unsigned attempt) {
  auto it = states_.find(seqno);
  if (it == states_.end()) return;
  PacketState& st = it->second;
  if (st.finished || st.holding || st.came_from == kInvalidNode) return;

  msg::FeedbackPacket feedback;
  feedback.packet = st.packet;
  feedback.unreachable_via = mac_->id();
  Frame frame;
  frame.dst = st.came_from;
  frame.payload = feedback;
  mac_->send(std::move(frame),
             [this, seqno, attempt](const SendResult& result) {
               if (result.success) return;
               // A lost feedback silently kills the packet: retry the
               // upstream return a couple of times before giving up.
               if (attempt + 1 < kForwardRetries + 1) {
                 send_feedback(seqno, attempt + 1);
               }
             });
}

AckDecision Forwarding::handle_feedback(NodeId from,
                                        const msg::FeedbackPacket& feedback,
                                        bool for_me) {
  const msg::ControlPacket& packet = feedback.packet;
  PacketState& st = state_for(packet);
  addressing_->neighbors().expire_unreachable(sim_->now(),
                                              kUnreachableTimeout);

  if (for_me) {
    // The downstream relay we handed the packet to could not progress: mark
    // it unreachable and try an alternative ourselves (Fig. 5a at S) — but
    // only within our own backtrack budget, or two relays bounce an
    // undeliverable packet forever.
    if (st.backtrack_rounds >= kMaxBacktracks) {
      // Budget spent here too: relay the verdict toward the origin instead
      // of absorbing it — a silent drop would leave the sink waiting for an
      // ack that can never come.
      if (st.came_from != kInvalidNode && !st.finished) {
        st.holding = false;
        send_feedback(packet.seqno, /*attempt=*/0);
        st.finished = true;
      }
      return AckDecision::kAcceptAndAck;
    }
    addressing_->neighbors().mark_unreachable(from, sim_->now());
    st.packet = packet;
    st.packet.hops_so_far = field::u8(packet.hops_so_far + 1);
    st.holding = true;
    st.done = false;
    st.attempts = 0;
    forward(packet.seqno);
    return AckDecision::kAcceptAndAck;
  }

  // Overhearing another relay's feedback (Fig. 5a at C): if we can still make
  // progress, claim the packet — this both resumes downward forwarding and
  // stops the feedback transmission. Unlike a fresh control packet, being
  // *at* the expected progress qualifies here: the failed relay's expected
  // relay (C itself) is exactly who should take over.
  if (st.holding) return AckDecision::kIgnore;
  if (st.finished) return AckDecision::kIgnore;  // we already abandoned it
  if (!config_.opportunistic) return AckDecision::kIgnore;
  const std::size_t mine = own_match_len(packet);
  const bool can_progress =
      packet.dest == mac_->id() || packet.expected_relay == mac_->id() ||
      (mine > 0 && mine >= packet.expected_relay_code_len) ||
      (config_.neighbor_assist && neighbor_can_progress(packet));
  if (!can_progress) return AckDecision::kIgnore;
  // The sender just declared itself stuck either way.
  addressing_->neighbors().mark_unreachable(from, sim_->now());
  // A rescue must be real: our ack stops the feedback, so claiming while
  // every downstream candidate is marked unreachable only destroys the
  // verdict on its way to the origin. (Delivering directly is always real.)
  if (packet.dest != mac_->id() && route_target(packet) != mac_->id() &&
      !pick_expected_relay(packet,
                           std::max<std::size_t>(
                               mine, packet.expected_relay_code_len))
           .has_value()) {
    return AckDecision::kIgnore;
  }
  ++stats_.feedback_claims;
  const TraceReason rescue_reason =
      (packet.dest == mac_->id() || packet.expected_relay == mac_->id())
          ? TraceReason::kExpectedRelay
          : (mine > 0 && mine >= packet.expected_relay_code_len)
                ? TraceReason::kLongerPrefix
                : TraceReason::kNeighborPrefix;
  router_->record(mac_->id(), TraceEvent::kForwardDecision, packet.seqno, from,
                  rescue_reason);
  if (auditor_ != nullptr) {
    auditor_->on_claim(mac_->id(), packet, rescue_reason, /*rescue=*/true);
  }
  claim(from, packet);
  return AckDecision::kAcceptAndAck;
}

void Forwarding::on_beacon_heard(NodeId from) {
  addressing_->neighbors().mark_reachable(from);
  addressing_->neighbors().expire_unreachable(sim_->now(),
                                              kUnreachableTimeout);
}

void Forwarding::reset() {
  // Collect in-flight tokens first, then clear, then cancel: cancellation
  // callbacks fire synchronously and must find no state to mutate. Scheduled
  // defer/forward events for the wiped seqnos no-op on the states_ lookup.
  std::vector<std::uint32_t> tokens;
  for (const auto& [seqno, st] : states_) {
    if (st.mac_token.has_value()) tokens.push_back(*st.mac_token);
  }
  states_.clear();
  for (const std::uint32_t token : tokens) mac_->cancel_send(token);
}

void Forwarding::note_ack_overheard(std::uint32_t seqno) {
  auto it = states_.find(seqno);
  PacketState& st = it != states_.end() ? it->second : states_[seqno];
  st.finished = true;
  st.done = true;
  st.holding = false;
  if (st.mac_token.has_value()) {
    mac_->cancel_send(*st.mac_token);
    st.mac_token.reset();
  }
}

}  // namespace telea
