#include "proto/orpl.hpp"

#include "util/field.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace telea {

namespace {
/// Sub-DODAG announcement period (ORPL piggybacks on its beacons; we send
/// a dedicated broadcast).
constexpr SimTime kAnnounceInterval = 30 * kSecond;
/// Anycast send operations per hop before the packet is dropped.
constexpr unsigned kRetries = 3;
/// Entries learned from neighbors expire after this long.
constexpr SimTime kNeighborLifetime = 3 * kAnnounceInterval;
constexpr std::size_t kQueueLimit = 12;
}  // namespace

OrplNode::OrplNode(Simulator& sim, LplMac& mac, CtpNode& ctp)
    : sim_(&sim), mac_(&mac), ctp_(&ctp), announce_timer_(sim) {
  members_.insert(mac.id());
  announce_timer_.set_callback([this] { announce(); });
  announce_timer_.set_tag("orpl.announce");
}

void OrplNode::start() {
  // Random phase, as for every periodic protocol timer.
  Pcg32 rng(0x0B91ULL + mac_->id(), mac_->id());
  const SimTime phase = rng.uniform(static_cast<std::uint32_t>(
      std::min<SimTime>(kAnnounceInterval, 0xFFFFFFFFull)));
  announce_timer_.start_periodic_at(phase + 1, kAnnounceInterval);
}

void OrplNode::announce() {
  msg::OrplAnnounce a;
  a.members = members_;
  a.etx10 = ctp_->path_etx10();
  a.seqno = ++announce_seqno_;
  Frame frame;
  frame.dst = kBroadcastNode;
  frame.payload = a;
  if (mac_->send(std::move(frame), nullptr)) ++stats_.announces_sent;
}

AckDecision OrplNode::handle_announce(NodeId from,
                                      const msg::OrplAnnounce& announce) {
  NeighborFilter& nf = neighbors_[from];
  nf.members = announce.members;
  nf.etx10 = announce.etx10;
  nf.refreshed = sim_->now();

  // A child's members belong to our sub-DODAG: merge filters from any
  // neighbor deeper than us (ORPL merges along the DODAG; cost ordering is
  // the DODAG direction here).
  if (announce.etx10 != 0xFFFF && announce.etx10 > ctp_->path_etx10()) {
    members_.merge(announce.members);
  }
  return AckDecision::kAccept;
}

bool OrplNode::believes_reachable(NodeId dest) const {
  const SimTime now = sim_->now();
  for (const auto& [id, nf] : neighbors_) {
    if (nf.refreshed + kNeighborLifetime < now) continue;
    if (nf.etx10 != 0xFFFF && nf.etx10 > ctp_->path_etx10() &&
        nf.members.contains(dest)) {
      return true;
    }
  }
  return false;
}

bool OrplNode::send_downward(NodeId dest, std::uint16_t command,
                             std::uint32_t seqno) {
  if (!believes_reachable(dest)) return false;
  msg::OrplData data;
  data.dest = dest;
  data.seqno = seqno;
  data.command = command;
  data.hops_so_far = 0;
  enqueue(data);
  return true;
}

AckDecision OrplNode::handle_data(NodeId from, const msg::OrplData& data) {
  (void)from;
  // Claim conditions: we must be *deeper* than the sender (downward
  // direction) and the destination must be us or inside our member filter.
  if (data.dest == mac_->id()) {
    const bool dup = std::find(seen_.begin(), seen_.end(), data.seqno) !=
                     seen_.end();
    if (!dup) {
      seen_.push_back(data.seqno);
      while (seen_.size() > 32) seen_.pop_front();
      ++stats_.deliveries;
      if (on_delivered) on_delivered(data);
    }
    return AckDecision::kAcceptAndAck;
  }

  if (ctp_->path_etx10() == 0xFFFF ||
      ctp_->path_etx10() <= data.sender_etx10) {
    return AckDecision::kIgnore;  // not deeper: wrong direction
  }
  if (!members_.contains(data.dest)) return AckDecision::kIgnore;

  const bool dup = std::find(seen_.begin(), seen_.end(), data.seqno) !=
                   seen_.end();
  if (dup) return AckDecision::kAcceptAndAck;
  // Refused for a full queue: not remembered, so the sender's next offer of
  // the same packet is taken once there is room.
  if (queue_.size() >= kQueueLimit) return AckDecision::kIgnore;
  seen_.push_back(data.seqno);
  while (seen_.size() > 32) seen_.pop_front();
  ++stats_.claims;
  // Bloom false positive detector: we claimed because our *merged* filter
  // says the destination is below us, but if no deeper neighbor (nor we)
  // actually leads there, the forward attempts will burn out — count the
  // claim as presumptively false if we cannot even name a next hop.
  if (!believes_reachable(data.dest)) ++stats_.false_positive_claims;
  enqueue(data);
  return AckDecision::kAcceptAndAck;
}

void OrplNode::enqueue(msg::OrplData data) {
  data.hops_so_far = field::u8(data.hops_so_far + 1);
  queue_.push_back(data);
  forward_next();
}

void OrplNode::forward_next() {
  if (forwarding_ || queue_.empty()) return;
  forwarding_ = true;

  msg::OrplData data = queue_.front();
  data.sender_etx10 = ctp_->path_etx10();

  Frame frame;
  frame.dst = kBroadcastNode;  // anycast: any deeper filter-holder claims
  frame.payload = data;
  const bool queued =
      mac_->send(std::move(frame), [this](const SendResult& result) {
        forwarding_ = false;
        if (queue_.empty()) return;
        if (result.success) {
          front_attempts_ = 0;
          queue_.pop_front();
        } else if (++front_attempts_ >= kRetries) {
          // Nobody below us would take it: either a Bloom false positive
          // led us astray or the subtree is gone.
          ++stats_.drops;
          if (on_drop) on_drop(queue_.front().seqno);
          queue_.pop_front();
          front_attempts_ = 0;
        }
        forward_next();
      });
  if (!queued) {
    forwarding_ = false;
    sim_->schedule_in(kSecond, [this] { forward_next(); }, "orpl.requeue");
  }
}

}  // namespace telea
