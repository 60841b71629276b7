#include "proto/rpl.hpp"

#include "util/field.hpp"

#include <algorithm>

namespace telea {

namespace {
constexpr SimTime kDaoInterval = 60 * kSecond;     // periodic DAO refresh
constexpr SimTime kDaoTriggerDelay = 5 * kSecond;  // debounce for triggered DAOs
/// Stale-route expiry. RFC 6550 deployments use generous lifetimes (tens of
/// minutes); short lifetimes lose routes to a couple of missed DAO chains,
/// long ones keep stale next-hops alive after churn — the
/// deterministic-forwarding failure mode Fig. 7 punishes.
constexpr SimTime kRouteLifetime = 15 * 60 * kSecond;
/// The full target set may exceed the 127-byte MPDU for a sink-adjacent node
/// with a deep subtree, so DAOs carry it in chunks of this many targets.
constexpr std::size_t kTargetsPerDao = 40;
constexpr unsigned kDataRetx = 8;  // link-layer send ops per hop before drop
constexpr std::size_t kQueueLimit = 12;
}  // namespace

RplNode::RplNode(Simulator& sim, LplMac& mac, CtpNode& ctp)
    : sim_(&sim),
      mac_(&mac),
      ctp_(&ctp),
      dao_timer_(sim),
      trigger_timer_(sim) {
  dao_timer_.set_callback([this] { send_dao(); });
  trigger_timer_.set_callback([this] { send_dao(); });
  dao_timer_.set_tag("rpl.dao");
  trigger_timer_.set_tag("rpl.trigger");
}

void RplNode::start() {
  if (!ctp_->is_root()) {
    // Random phase: synchronized periodic DAOs across the network would
    // collide every interval.
    Pcg32 rng(0xDA0ULL + mac_->id(), mac_->id());
    const SimTime phase = rng.uniform(
        static_cast<std::uint32_t>(std::min<SimTime>(kDaoInterval,
                                                     0xFFFFFFFFull)));
    dao_timer_.start_periodic_at(phase + 1, kDaoInterval);
    // First DAO goes out as soon as a parent exists; the periodic timer
    // covers the steady state, the trigger covers route formation.
    trigger_timer_.start_one_shot(kDaoTriggerDelay);
  }
}

void RplNode::on_parent_changed() {
  if (!ctp_->is_root()) {
    trigger_timer_.start_one_shot(kDaoTriggerDelay);
  }
}

void RplNode::send_dao() {
  const NodeId parent = ctp_->parent();
  if (parent == kInvalidNode) {
    trigger_timer_.start_one_shot(kDaoTriggerDelay);
    return;
  }
  expire_routes();

  std::vector<NodeId> targets;
  targets.push_back(mac_->id());
  for (const auto& r : routes_) targets.push_back(r.target);
  for (std::size_t off = 0; off < targets.size(); off += kTargetsPerDao) {
    msg::RplDao dao;
    dao.dao_seqno = ++dao_seqno_;
    dao.targets.assign(
        targets.begin() + static_cast<std::ptrdiff_t>(off),
        targets.begin() + static_cast<std::ptrdiff_t>(
                              std::min(off + kTargetsPerDao, targets.size())));
    Frame frame;
    frame.dst = parent;
    frame.payload = std::move(dao);
    mac_->send(std::move(frame), [this, parent](const SendResult& result) {
      // DAO outcomes are link probes too; a run of failures to the parent
      // triggers reselection (RPL's parent probing) and a prompt retry.
      ctp_->estimator().on_data_tx(parent, result.success);
      if (result.success) {
        dao_failures_ = 0;
        return;
      }
      if (parent == ctp_->parent() && ++dao_failures_ >= 3) {
        dao_failures_ = 0;
        ctp_->report_parent_trouble();
      }
      trigger_timer_.start_one_shot(kDaoTriggerDelay);
    });
  }
}

AckDecision RplNode::handle_dao(NodeId from, const msg::RplDao& dao,
                                bool for_me) {
  if (!for_me) return AckDecision::kIgnore;
  const SimTime now = sim_->now();
  bool grew = false;
  for (NodeId target : dao.targets) {
    if (target == mac_->id()) continue;
    auto it = std::find_if(routes_.begin(), routes_.end(),
                           [target](const Route& r) {
                             return r.target == target;
                           });
    if (it == routes_.end()) {
      routes_.push_back(Route{target, from, now});
      grew = true;
    } else {
      if (it->next_hop != from) grew = true;
      it->next_hop = from;
      it->refreshed = now;
    }
  }
  // Propagate new reachability up the DODAG promptly.
  if (grew && !ctp_->is_root()) {
    trigger_timer_.start_one_shot(kDaoTriggerDelay);
  }
  return AckDecision::kAcceptAndAck;
}

void RplNode::expire_routes() {
  const SimTime now = sim_->now();
  std::erase_if(routes_, [this, now](const Route& r) {
    return r.refreshed + kRouteLifetime < now;
  });
}

const RplNode::Route* RplNode::find_route(NodeId target) const {
  for (const auto& r : routes_) {
    if (r.target == target) return &r;
  }
  return nullptr;
}

bool RplNode::has_route_to(NodeId dest) const {
  const Route* r = find_route(dest);
  return r != nullptr && r->refreshed + kRouteLifetime >= sim_->now();
}

bool RplNode::send_downward(NodeId dest, std::uint16_t command,
                            std::uint32_t seqno) {
  msg::RplData data;
  data.dest = dest;
  data.command = command;
  data.seqno = seqno;
  data.hops_so_far = 0;
  expire_routes();
  if (find_route(dest) == nullptr) return false;
  enqueue(data);
  return true;
}

AckDecision RplNode::handle_data(NodeId from, const msg::RplData& data,
                                 bool for_me) {
  (void)from;
  if (!for_me) return AckDecision::kIgnore;
  // Duplicate suppression: a hop whose acknowledgement was lost retransmits
  // with a fresh link-layer sequence number, so the MAC's copy filter does
  // not catch it — filter on the control seqno here. Only an accepted
  // packet is remembered: one refused for a full queue must be taken when
  // the sender offers it again.
  const bool dup = std::find(seen_.begin(), seen_.end(), data.seqno) !=
                   seen_.end();
  if (dup) return AckDecision::kAcceptAndAck;

  if (data.dest == mac_->id()) {
    remember(data.seqno);
    if (on_delivered) on_delivered(data);
    return AckDecision::kAcceptAndAck;
  }
  if (find_route(data.dest) == nullptr) {
    // Stored-route hole: deterministic forwarding has nowhere to go.
    remember(data.seqno);
    if (on_drop) on_drop(data.seqno);
    return AckDecision::kAcceptAndAck;  // ack; the drop is ours to own
  }
  if (queue_.size() >= kQueueLimit) return AckDecision::kIgnore;
  remember(data.seqno);
  if (on_relayed) on_relayed(data);
  enqueue(data);
  return AckDecision::kAcceptAndAck;
}

void RplNode::remember(std::uint32_t seqno) {
  seen_.push_back(seqno);
  while (seen_.size() > 32) seen_.pop_front();
}

void RplNode::enqueue(msg::RplData data) {
  data.hops_so_far = field::u8(data.hops_so_far + 1);
  queue_.push_back(data);
  forward_next();
}

void RplNode::forward_next() {
  if (forwarding_ || queue_.empty()) return;
  expire_routes();
  const msg::RplData& data = queue_.front();
  const Route* route = find_route(data.dest);
  if (route == nullptr) {
    if (on_drop) on_drop(data.seqno);
    queue_.pop_front();
    forward_next();
    return;
  }
  forwarding_ = true;

  Frame frame;
  frame.dst = route->next_hop;
  frame.payload = data;
  const bool queued =
      mac_->send(std::move(frame), [this](const SendResult& result) {
        forwarding_ = false;
        if (queue_.empty()) return;
        if (result.success) {
          front_attempts_ = 0;
          queue_.pop_front();
        } else {
          ++front_attempts_;
          if (front_attempts_ >= kDataRetx) {
            if (on_drop) on_drop(queue_.front().seqno);
            queue_.pop_front();
            front_attempts_ = 0;
          }
        }
        forward_next();
      });
  if (!queued) {
    forwarding_ = false;
    sim_->schedule_in(kSecond, [this] { forward_next(); }, "rpl.requeue");
  }
}

}  // namespace telea
