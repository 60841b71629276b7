#include "proto/rpl.hpp"

#include "util/field.hpp"

#include <algorithm>

namespace telea {

namespace {
constexpr SimTime kDaoTriggerDelay = 5 * kSecond;  // debounce for triggered DAOs
constexpr unsigned kDataRetx = 8;  // link-layer send ops per hop before drop
constexpr std::size_t kQueueLimit = 12;
}  // namespace

RplNode::RplNode(Simulator& sim, LplMac& mac, CtpNode& ctp,
                 const RplConfig& config)
    : sim_(&sim),
      mac_(&mac),
      ctp_(&ctp),
      config_(config),
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
        static_cast<std::uint32_t>(std::min<SimTime>(config_.dao_interval,
                                                     0xFFFFFFFFull)));
    dao_timer_.start_periodic_at(phase + 1, config_.dao_interval);
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

  std::vector<msg::RplDao> daos;
  if (config_.mode == RplMode::kNonStoring) {
    // Non-storing: advertise only our own parent link; relays forward the
    // DAO up to the root, which keeps the whole topology (RFC 6550 9.7).
    msg::RplDao dao;
    dao.dao_seqno = ++dao_seqno_;
    dao.non_storing = true;
    dao.origin = mac_->id();
    dao.transit_parent = parent;
    daos.push_back(std::move(dao));
  } else {
    // Storing mode: the full target set may exceed the 127-byte MPDU for a
    // sink-adjacent node with a deep subtree — chunk it across frames.
    constexpr std::size_t kTargetsPerDao = 40;
    std::vector<NodeId> targets;
    targets.push_back(mac_->id());
    for (const auto& r : routes_) targets.push_back(r.target);
    for (std::size_t off = 0; off < targets.size(); off += kTargetsPerDao) {
      msg::RplDao dao;
      dao.dao_seqno = ++dao_seqno_;
      dao.targets.assign(
          targets.begin() + static_cast<std::ptrdiff_t>(off),
          targets.begin() + static_cast<std::ptrdiff_t>(
                                std::min(off + kTargetsPerDao,
                                         targets.size())));
      daos.push_back(std::move(dao));
    }
  }

  for (auto& dao : daos) {
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

  if (dao.non_storing) {
    if (!ctp_->is_root()) {
      // Relay the DAO toward the root without storing anything.
      if (ctp_->parent() != kInvalidNode) {
        Frame up;
        up.dst = ctp_->parent();
        up.payload = dao;
        mac_->send(std::move(up), nullptr);
      }
      return AckDecision::kAcceptAndAck;
    }
    // Root: record / refresh the origin's parent link.
    auto it = std::find_if(topology_.begin(), topology_.end(),
                           [&dao](const ParentLink& l) {
                             return l.origin == dao.origin;
                           });
    if (it == topology_.end()) {
      topology_.push_back(ParentLink{dao.origin, dao.transit_parent, now});
    } else {
      it->parent = dao.transit_parent;
      it->refreshed = now;
    }
    return AckDecision::kAcceptAndAck;
  }

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
  // Propagate new reachability up the DODAG promptly (storing mode).
  if (grew && !ctp_->is_root()) {
    trigger_timer_.start_one_shot(kDaoTriggerDelay);
  }
  return AckDecision::kAcceptAndAck;
}

void RplNode::expire_routes() {
  const SimTime now = sim_->now();
  std::erase_if(routes_, [this, now](const Route& r) {
    return r.refreshed + config_.route_lifetime < now;
  });
}

const RplNode::Route* RplNode::find_route(NodeId target) const {
  for (const auto& r : routes_) {
    if (r.target == target) return &r;
  }
  return nullptr;
}

std::vector<NodeId> RplNode::compute_source_route(NodeId dest) const {
  // Walk the recorded parent links from the destination up to the root,
  // then reverse into first-hop-first order.
  std::vector<NodeId> up;
  const SimTime now = sim_->now();
  NodeId cur = dest;
  for (std::size_t guard = 0; guard <= topology_.size(); ++guard) {
    up.push_back(cur);
    const auto it = std::find_if(topology_.begin(), topology_.end(),
                                 [cur](const ParentLink& l) {
                                   return l.origin == cur;
                                 });
    if (it == topology_.end() ||
        it->refreshed + config_.route_lifetime < now) {
      return {};  // hole or stale link: no route
    }
    if (it->parent == kSinkNode) {
      std::reverse(up.begin(), up.end());
      return up;
    }
    cur = it->parent;
  }
  return {};  // loop in the recorded topology
}

bool RplNode::has_route_to(NodeId dest) const {
  if (config_.mode == RplMode::kNonStoring) {
    return !compute_source_route(dest).empty();
  }
  const Route* r = find_route(dest);
  return r != nullptr && r->refreshed + config_.route_lifetime >= sim_->now();
}

bool RplNode::send_downward(NodeId dest, std::uint16_t command,
                            std::uint32_t seqno) {
  msg::RplData data;
  data.dest = dest;
  data.command = command;
  data.seqno = seqno;
  data.hops_so_far = 0;
  if (config_.mode == RplMode::kNonStoring) {
    data.source_route = compute_source_route(dest);
    if (data.source_route.empty()) return false;
    data.route_index = 0;
  } else {
    expire_routes();
    if (find_route(dest) == nullptr) return false;
  }
  enqueue(data);
  return true;
}

AckDecision RplNode::handle_data(NodeId from, const msg::RplData& data,
                                 bool for_me) {
  (void)from;
  if (!for_me) return AckDecision::kIgnore;
  // Duplicate suppression: a hop whose acknowledgement was lost retransmits
  // with a fresh link-layer sequence number, so the MAC's copy filter does
  // not catch it — filter on the control seqno here.
  const bool dup = std::find(seen_.begin(), seen_.end(), data.seqno) !=
                   seen_.end();
  if (dup) return AckDecision::kAcceptAndAck;
  seen_.push_back(data.seqno);
  while (seen_.size() > 32) seen_.pop_front();

  if (data.dest == mac_->id()) {
    if (on_delivered) on_delivered(data);
    return AckDecision::kAcceptAndAck;
  }
  if (!data.source_route.empty()) {
    // Non-storing: our position must exist in the routing header.
    const auto idx = static_cast<std::size_t>(data.route_index);
    if (idx >= data.source_route.size() ||
        data.source_route[idx] != mac_->id() ||
        idx + 1 >= data.source_route.size()) {
      if (on_drop) on_drop(data.seqno);
      return AckDecision::kAcceptAndAck;
    }
  } else if (find_route(data.dest) == nullptr) {
    // Stored-route hole: deterministic forwarding has nowhere to go.
    if (on_drop) on_drop(data.seqno);
    return AckDecision::kAcceptAndAck;  // ack; the drop is ours to own
  }
  if (queue_.size() >= kQueueLimit) return AckDecision::kIgnore;
  if (on_relayed) on_relayed(data);
  enqueue(data);
  return AckDecision::kAcceptAndAck;
}

void RplNode::enqueue(msg::RplData data) {
  data.hops_so_far = field::u8(data.hops_so_far + 1);
  if (!data.source_route.empty() && !ctp_->is_root()) {
    // We are source_route[route_index]; the next hop is the entry after us.
    data.route_index = field::u8(data.route_index + 1);
  }
  queue_.push_back(data);
  forward_next();
}

void RplNode::forward_next() {
  if (forwarding_ || queue_.empty()) return;
  expire_routes();
  const msg::RplData& data = queue_.front();
  NodeId next_hop = kInvalidNode;
  if (!data.source_route.empty()) {
    const auto idx = static_cast<std::size_t>(data.route_index);
    if (idx < data.source_route.size()) next_hop = data.source_route[idx];
  } else if (const Route* route = find_route(data.dest); route != nullptr) {
    next_hop = route->next_hop;
  }
  if (next_hop == kInvalidNode) {
    if (on_drop) on_drop(data.seqno);
    queue_.pop_front();
    forward_next();
    return;
  }
  forwarding_ = true;

  Frame frame;
  frame.dst = next_hop;
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
