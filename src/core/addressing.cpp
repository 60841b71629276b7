#include "core/addressing.hpp"

#include <algorithm>

#include "util/field.hpp"
#include "util/logging.hpp"

namespace telea {

namespace {
/// Pacing of position-request retries while unpositioned (Sec. III-B4).
constexpr SimTime kRequestRetry = 3 * kSecond;
/// Debounce for TeleAdjusting beacon broadcasts when code changes ripple.
/// Also paces the level-by-level code cascade, so keep it well under a
/// wake interval.
constexpr SimTime kBeaconCoalesce = 150 * kMillisecond;
}  // namespace

Addressing::Addressing(Simulator& sim, LplMac& mac, CtpNode& ctp,
                       const AddressingConfig& config)
    : sim_(&sim),
      mac_(&mac),
      ctp_(&ctp),
      config_(config),
      stability_timer_(sim),
      request_timer_(sim),
      beacon_timer_(sim) {
  stability_timer_.set_callback([this] { stability_check(); });
  request_timer_.set_callback([this] { request_position_check(); });
  beacon_timer_.set_callback([this] { send_tele_beacon(); });
  stability_timer_.set_tag("addr.stability");
  request_timer_.set_tag("addr.request");
  beacon_timer_.set_tag("addr.beacon");
}

void Addressing::start() {
  stability_origin_ = sim_->now();
  update_stability_timer();
  request_timer_.start_periodic(kRequestRetry);
}

void Addressing::update_stability_timer() {
  // The stability check can only act while children are known and the
  // initial allocation has not happened, so the timer runs only then. It
  // ticks every wake interval from start(), and a restart resumes on that
  // grid at the next tick after now: the ticks that run are the ones an
  // always-running timer would have had.
  if (allocated_ || discovered_.empty() || !stability_origin_.has_value()) {
    stability_timer_.stop();
    return;
  }
  if (stability_timer_.running()) return;
  const SimTime period = kWakeInterval;
  const SimTime elapsed = sim_->now() - *stability_origin_;
  stability_timer_.start_periodic_at(period - elapsed % period, period);
}

void Addressing::reset() {
  stability_origin_.reset();
  stability_timer_.stop();
  request_timer_.stop();
  beacon_timer_.stop();
  const bool had_code = has_code();
  code_ = PathCode{};
  old_code_ = PathCode{};
  code_parent_ = kInvalidNode;
  have_position_ = false;
  position_ = 0;
  space_bits_ = 0;
  allocated_ = false;
  child_table_.clear();
  neighbors_.clear();
  discovered_.clear();
  trigger_at_.reset();
  code_at_.reset();
  last_new_child_ = 0;
  last_request_at_ = 0;
  parent_send_failures_ = 0;
  beacon_pending_ = false;
  pending_beacon_repeats_ = 0;
  if (had_code && on_code_changed) on_code_changed();
}

void Addressing::on_route_found() {
  if (trigger_at_.has_value()) return;
  trigger_at_ = sim_->now();
  if (ctp_->is_root() && code_.empty()) {
    // The sink seeds the coding tree: code "0", one valid bit (Sec. III-B1).
    set_code(sink_code());
  }
}

void Addressing::set_code(const PathCode& code) {
  if (code == code_ || code.empty()) return;
  if (!code_.empty()) old_code_ = code_;
  code_ = code;
  ++stats_.code_changes;
  if (!code_at_.has_value()) code_at_ = sim_->now();
  // Our prefix changed (or just arrived), so every allocated child's code
  // (re-)derives from it: publish downstream promptly with TeleAdjusting
  // beacons (III-B6) — this is the level-by-level code cascade.
  if (!child_table_.entries().empty() && space_bits_ > 0) {
    child_table_.rederive_codes(code_, space_bits_);
    pending_beacon_repeats_ = std::max(pending_beacon_repeats_, 2u);
    schedule_tele_beacon();
  }
  if (on_code_changed) on_code_changed();
}

void Addressing::on_parent_changed(NodeId old_parent, NodeId new_parent) {
  (void)old_parent;
  (void)new_parent;
  // Our position was allocated by the old parent; it means nothing under the
  // new one. Keep operating with the stale code (neighbors retain it as our
  // old code) until the new parent assigns a position — the periodic request
  // timer drives that.
  have_position_ = false;
  position_ = 0;
}

void Addressing::on_beacon_heard(NodeId from, const msg::CtpBeacon& beacon) {
  const NodeId me = mac_->id();

  if (beacon.parent == me) {
    // `from` claims us as its parent: it is a child on the reverse tree.
    if (std::find(discovered_.begin(), discovered_.end(), from) ==
        discovered_.end()) {
      discovered_.push_back(from);
      last_new_child_ = sim_->now();
      update_stability_timer();
    }
    if (allocated_ && has_code()) {
      // Position maintenance, Alg. 2 lines 1-6.
      ChildTable::Entry* e = child_table_.find(from);
      if (beacon.has_position_claim) {
        // The claim carries the child's valid code length: a stale value
        // (e.g. the child missed a space extension or our own prefix
        // change) is repaired with a fresh allocation acknowledgement.
        const std::size_t expected_len = code_.size() + space_bits_;
        if (e != nullptr && e->position == beacon.claimed_position &&
            beacon.claimed_code_len == expected_len) {
          e->confirmed = true;
        } else {
          // Claim mismatch, stale code width, or unknown child:
          // (re)allocate deterministically and acknowledge.
          allocate_and_ack(from);
        }
      } else if (e == nullptr) {
        // Child without any position: allocate one proactively.
        allocate_and_ack(from);
      }
    }
  } else {
    // A node that stopped claiming us is no longer our child.
    if (child_table_.find(from) != nullptr && beacon.parent != me) {
      child_table_.remove(from);
      std::erase(discovered_, from);
      update_stability_timer();
    }
  }

  // Sibling claims tell us our parent has already allocated positions; if we
  // have none, ask for one (Sec. III-B4).
  if (from != me && beacon.parent == ctp_->parent() &&
      beacon.has_position_claim && !have_position_ &&
      ctp_->parent() != kInvalidNode) {
    request_position_check();
  }
}

void Addressing::stability_check() {
  // Note: deliberately NOT gated on having our own code. The 10-round
  // stability window runs from each node's own parent-found event, so
  // space sizing and position allocation proceed *concurrently* across the
  // whole network; only the code derivation itself cascades level by level
  // (one TeleAdjusting beacon per level) once prefixes arrive. Gating on
  // the prefix would serialize the stability windows along the tree depth
  // and blow the paper's <20-beacon convergence (Fig. 6c). The timer runs
  // only while children are known and nothing is allocated yet.
  if (!trigger_at_.has_value()) return;
  const SimTime quiet_since = std::max(last_new_child_, *trigger_at_);
  const SimTime window =
      static_cast<SimTime>(kStableRounds) * kWakeInterval;
  if (sim_->now() >= quiet_since + window) {
    do_initial_allocation();
  }
}

void Addressing::do_initial_allocation() {
  // Algorithm 1: size the space for discovered plus potential hidden
  // children, then allocate deterministic positions in node-id order.
  const auto n = static_cast<std::uint32_t>(discovered_.size());
  space_bits_ = space_bits_for(n, config_.headroom, kReserveZeroPosition);
  std::vector<NodeId> ordered = discovered_;
  std::sort(ordered.begin(), ordered.end());
  std::uint32_t pos = kFirstPosition;
  for (NodeId child : ordered) {
    // Codes derive only once our own prefix exists; positions stand alone.
    child_table_.upsert(child, pos,
                        has_code() ? make_child_code(code_, pos, space_bits_)
                                   : PathCode{});
    ++pos;
  }
  allocated_ = true;
  update_stability_timer();
  // "Consecutively broadcast two TeleAdjusting beacons" (Alg. 1 line 10).
  pending_beacon_repeats_ = 2;
  schedule_tele_beacon();
}

void Addressing::allocate_and_ack(NodeId child) {
  if (!has_code()) return;
  if (space_bits_ == 0) {
    // A request arrived before our stability window closed: allocate a space
    // sized for what we know now (the incremental path handles growth).
    const auto n = static_cast<std::uint32_t>(
        std::max<std::size_t>(discovered_.size(), 1));
    space_bits_ = space_bits_for(n, config_.headroom, kReserveZeroPosition);
    allocated_ = true;
    update_stability_timer();
  }
  ChildTable::Entry* e = child_table_.find(child);
  std::uint32_t pos;
  if (e != nullptr) {
    pos = e->position;
    e->confirmed = false;
  } else {
    auto free = child_table_.free_position(space_bits_, kFirstPosition);
    if (!free.has_value()) {
      extend_space();
      free = child_table_.free_position(space_bits_, kFirstPosition);
      if (!free.has_value()) return;  // space exhausted even after extension
    }
    pos = *free;
    child_table_.upsert(child, pos, make_child_code(code_, pos, space_bits_));
  }

  ++stats_.allocations;
  msg::AllocationAck ack;
  ack.position = pos;
  ack.space_bits = space_bits_;
  ack.parent_code = code_;
  Frame frame;
  frame.dst = child;
  frame.payload = ack;
  mac_->send(std::move(frame), [this, child](const SendResult& r) {
    ctp_->estimator().on_data_tx(child, r.success);
  });
  // Publish the updated table too: overhearing neighbors build their code
  // tables from TeleAdjusting beacons (Sec. III-B6), and condition (3) and
  // the Re-Tele detour depend on that knowledge.
  schedule_tele_beacon();
}

void Addressing::extend_space() {
  // Sec. III-B6: extend by one bit; positions stay, codes re-derive, and a
  // TeleAdjusting beacon notifies children (who iterate downstream).
  if (space_bits_ >= 31) return;
  ++stats_.space_extensions;
  ++space_bits_;
  child_table_.rederive_codes(code_, space_bits_);
  schedule_tele_beacon();
}

msg::TeleBeacon Addressing::build_tele_beacon() const {
  msg::TeleBeacon beacon;
  beacon.parent_code = code_;
  beacon.space_bits = space_bits_;
  beacon.entries.reserve(child_table_.entries().size());
  for (const auto& e : child_table_.entries()) {
    beacon.entries.push_back(
        msg::AllocationEntry{e.child, e.position, e.confirmed});
  }
  return beacon;
}

void Addressing::schedule_tele_beacon() {
  if (beacon_pending_) return;
  beacon_pending_ = true;
  if (pending_beacon_repeats_ == 0) pending_beacon_repeats_ = 1;
  beacon_timer_.start_one_shot(kBeaconCoalesce);
}

void Addressing::send_tele_beacon() {
  beacon_pending_ = false;
  if (!has_code() || space_bits_ == 0) return;
  msg::TeleBeacon full = build_tele_beacon();
  // Chunk the allocation table across frames when it would exceed the
  // 802.15.4 MPDU (a child absent from one chunk merely re-requests, which
  // the parent answers idempotently). Worst case per chunk: a 31-bit parent
  // code (4 bytes + length octet) + space/flags, then 5 bytes per entry.
  constexpr std::size_t kBeaconFixedBytes = 7;
  constexpr std::size_t kEntryBytes = 5;
  constexpr std::size_t kEntriesPerBeacon = 18;
  static_assert(kBeaconFixedBytes + kEntriesPerBeacon * kEntryBytes <=
                    kMaxPayloadBytes,
                "allocation-table chunks must fit the 802.15.4 payload");
  std::size_t off = 0;
  do {
    msg::TeleBeacon chunk = full;
    chunk.entries.assign(
        full.entries.begin() + static_cast<std::ptrdiff_t>(off),
        full.entries.begin() +
            static_cast<std::ptrdiff_t>(std::min(
                off + kEntriesPerBeacon, full.entries.size())));
    Frame frame;
    frame.dst = kBroadcastNode;
    frame.payload = std::move(chunk);
    if (!mac_->send(std::move(frame), nullptr)) {
      // MAC queue full. A TeleAdjusting beacon carries table state that
      // must not be dropped silently (children would keep stale codes, e.g.
      // after a space extension) — retry after a backoff.
      beacon_pending_ = true;
      beacon_timer_.start_one_shot(4 * kBeaconCoalesce);
      return;
    }
    ++stats_.tele_beacons_sent;
    off += kEntriesPerBeacon;
  } while (off < full.entries.size());
  if (pending_beacon_repeats_ > 1) {
    --pending_beacon_repeats_;
    beacon_pending_ = true;
    beacon_timer_.start_one_shot(kBeaconCoalesce);
  } else {
    pending_beacon_repeats_ = 0;
  }
}

void Addressing::handle_tele_beacon(NodeId from, const msg::TeleBeacon& beacon) {
  const SimTime now = sim_->now();
  neighbors_.observe(from, beacon.parent_code, now);
  for (const auto& e : beacon.entries) {
    const PathCode derived =
        make_child_code(beacon.parent_code, e.position, beacon.space_bits);
    if (e.child != mac_->id()) neighbors_.observe(e.child, derived, now);
  }

  if (from != ctp_->parent()) return;

  // This is our parent's allocation table: find our entry (Alg. 3).
  const auto me = mac_->id();
  const auto it = std::find_if(
      beacon.entries.begin(), beacon.entries.end(),
      [me](const msg::AllocationEntry& e) { return e.child == me; });
  if (it == beacon.entries.end()) {
    // Parent has allocated but not to us: request a position (Alg. 3 l.13).
    if (!beacon.entries.empty() || beacon.space_bits > 0) {
      request_position_check();
    }
    return;
  }

  const PathCode derived =
      make_child_code(beacon.parent_code, it->position, beacon.space_bits);
  const bool changed = !have_position_ || position_ != it->position ||
                       derived != code_;
  have_position_ = true;
  position_ = it->position;
  code_parent_ = from;
  if (changed) {
    set_code(derived);
    send_confirm();
  } else if (!it->confirmed) {
    send_confirm();
  }
}

AckDecision Addressing::handle_position_request(NodeId from, bool for_me) {
  if (!for_me) return AckDecision::kIgnore;
  if (!has_code()) return AckDecision::kAcceptAndAck;  // can't serve yet
  ++stats_.requests_served;
  allocate_and_ack(from);
  return AckDecision::kAcceptAndAck;
}

AckDecision Addressing::handle_allocation_ack(NodeId from, NodeId link_dst,
                                              const msg::AllocationAck& ack,
                                              bool for_me) {
  const PathCode derived =
      make_child_code(ack.parent_code, ack.position, ack.space_bits);
  if (!for_me) {
    // Overhearing: learn the addressee's new code (Sec. III-B6 table).
    if (link_dst != kInvalidNode && link_dst != kBroadcastNode) {
      neighbors_.observe(link_dst, derived, sim_->now());
    }
    neighbors_.observe(from, ack.parent_code, sim_->now());
    return AckDecision::kIgnore;
  }
  if (from != ctp_->parent()) {
    // Stale ack from a previous parent: ack the link but ignore content.
    return AckDecision::kAcceptAndAck;
  }
  neighbors_.observe(from, ack.parent_code, sim_->now());
  have_position_ = true;
  position_ = ack.position;
  code_parent_ = from;
  set_code(derived);
  send_confirm();
  return AckDecision::kAcceptAndAck;
}

AckDecision Addressing::handle_confirm(NodeId from,
                                       const msg::ConfirmFrame& confirm,
                                       bool for_me) {
  if (!for_me) return AckDecision::kIgnore;
  if (ChildTable::Entry* e = child_table_.find(from);
      e != nullptr && e->position == confirm.position) {
    e->confirmed = true;
    ++stats_.confirms_received;
  }
  return AckDecision::kAcceptAndAck;
}

void Addressing::send_confirm() {
  if (ctp_->parent() == kInvalidNode) return;
  ++stats_.confirms_sent;
  msg::ConfirmFrame confirm;
  confirm.position = position_;
  Frame frame;
  frame.dst = ctp_->parent();
  frame.payload = confirm;
  send_to_parent(std::move(frame));
}

void Addressing::send_to_parent(Frame frame) {
  const NodeId parent = frame.dst;
  mac_->send(std::move(frame), [this, parent](const SendResult& r) {
    // Addressing unicasts double as link probes: they feed the estimator,
    // and a persistently one-way parent link (we hear its beacons, it never
    // acks us) triggers reselection — otherwise a node could request a
    // position forever into the void.
    ctp_->estimator().on_data_tx(parent, r.success);
    if (r.success) {
      parent_send_failures_ = 0;
      return;
    }
    if (parent != ctp_->parent()) return;
    if (++parent_send_failures_ >= 3) {
      parent_send_failures_ = 0;
      ctp_->report_parent_trouble();
    }
  });
}

void Addressing::request_position_check() {
  if (have_position_ || ctp_->is_root()) return;
  const NodeId parent = ctp_->parent();
  if (parent == kInvalidNode) return;
  // Paced: beacon-triggered requests must not flood the parent.
  if (last_request_at_ != 0 &&
      sim_->now() < last_request_at_ + kRequestRetry) {
    return;
  }
  last_request_at_ = sim_->now();
  ++stats_.requests_sent;
  msg::PositionRequest req;
  Frame frame;
  frame.dst = parent;
  frame.payload = req;
  send_to_parent(std::move(frame));
}

void Addressing::fill_beacon(msg::CtpBeacon& beacon) {
  if (have_position_ && ctp_->parent() != kInvalidNode) {
    beacon.has_position_claim = true;
    beacon.claimed_position = position_;
    beacon.claimed_code_len = field::u8(std::min<std::size_t>(code_.size(), 0xFF));
  }
}

bool Addressing::corrupt_code_bit(std::size_t bit) {
  if (code_.empty()) return false;
  const std::size_t i = bit % code_.size();
  code_.set_bit(i, !code_.bit(i));
  // Deliberately silent: no on_code_changed, no beacon, no table rederive.
  return true;
}

bool Addressing::corrupt_child_position(std::size_t slot,
                                        std::uint32_t position) {
  if (child_table_.size() == 0) return false;
  const NodeId child = child_table_.entries()[slot % child_table_.size()].child;
  ChildTable::Entry* entry = child_table_.find(child);
  if (entry == nullptr) return false;
  // The stored derived code is left stale on purpose, so the table no longer
  // agrees with its own position field — exactly the inconsistency the
  // parent-prefix invariant detects.
  entry->position = position;
  return true;
}

}  // namespace telea
