#include "net/ctp.hpp"

#include "util/field.hpp"

#include <algorithm>
#include <cassert>

#include "util/logging.hpp"

namespace telea {

namespace {
// TinyOS CTP beacon-timer defaults: Imin 128 ms doubling to ~512 s, no
// suppression. The fast early beacons matter: parent selection, child
// discovery and the TeleAdjusting trigger all ride them.
constexpr TrickleTimer::Config kBeaconTimer{
    /*i_min=*/128 * kMillisecond,
    /*i_max=*/128 * kMillisecond * (1u << 12),
    /*k=*/0};
constexpr std::uint16_t kParentSwitchThreshold10 = 15;  // 1.5 ETX hysteresis
constexpr std::uint16_t kMaxPathEtx10 = 2000;
constexpr unsigned kDataRetx = 8;      // link-layer send ops per hop before drop
constexpr unsigned kRerouteAfter = 3;  // failed sends before forcing reselection
constexpr std::size_t kForwardQueueLimit = 12;
constexpr std::size_t kDedupCache = 64;
}  // namespace

CtpNode::CtpNode(Simulator& sim, TraceRouter& router, LplMac& mac,
                 LinkEstimator& estimator, bool is_root, std::uint64_t seed)
    : sim_(&sim),
      router_(&router),
      mac_(&mac),
      estimator_(&estimator),
      is_root_(is_root),
      beacon_timer_(sim, kBeaconTimer, seed ^ 0xC7B0ULL) {
  if (is_root_) {
    path_etx10_ = 0;
    hops_ = 0;
  }
  beacon_timer_.set_callback([this] { send_beacon(false); });
}

void CtpNode::start() {
  beacon_timer_.start();
  if (is_root_ && listener_ != nullptr && !route_announced_) {
    route_announced_ = true;
    listener_->on_route_found();
  }
}

void CtpNode::send_beacon(bool pull) {
  msg::CtpBeacon beacon;
  beacon.parent = parent_;
  beacon.etx = path_etx10_;
  beacon.hops = hops_;
  beacon.seqno = ++beacon_seqno_;
  beacon.pull = pull || (!is_root_ && parent_ == kInvalidNode);
  if (piggyback_ != nullptr) piggyback_->fill_beacon(beacon);
  ++stats_.beacons_sent;

  Frame frame;
  frame.dst = kBroadcastNode;
  frame.payload = beacon;
  mac_->send(std::move(frame), nullptr);
}

std::optional<CtpNode::NeighborRoute> CtpNode::neighbor_route(NodeId id) const {
  for (const auto& e : routes_) {
    if (e.id == id) return e.route;
  }
  return std::nullopt;
}

SimTime CtpNode::parent_last_heard() const noexcept {
  if (parent_ == kInvalidNode) return 0;
  for (const auto& e : routes_) {
    if (e.id == parent_) return e.heard;
  }
  return 0;
}

void CtpNode::handle_beacon(NodeId from, const msg::CtpBeacon& beacon) {
  estimator_->on_beacon(from, beacon.seqno);

  auto it = std::find_if(routes_.begin(), routes_.end(),
                         [from](const RouteEntry& e) { return e.id == from; });
  if (it == routes_.end()) {
    routes_.push_back(RouteEntry{from, {}});
    it = routes_.end() - 1;
  }
  it->route = NeighborRoute{beacon.parent, beacon.etx, beacon.hops};
  it->heard = sim_->now();

  // Answer a pull only when we actually have a route to advertise; a
  // route-less cluster pulling each other would otherwise beacon-storm at
  // Imin indefinitely.
  if (beacon.pull && has_route()) beacon_timer_.reset();

  recompute_route();

  if (listener_ != nullptr) listener_->on_beacon_heard(from, beacon);
}

void CtpNode::recompute_route() {
  if (is_root_) return;

  // A parent that now advertises an invalid route — or a route through us
  // (a mutual loop formed from a stale entry on its side) — is no route at
  // all. Without the loop clause the mutual case is stable: the selection
  // loop below only refuses to *pick* such a neighbor, it never evicts one
  // we already hold, so two nodes pointing at each other would keep doing so
  // for as long as the churn that created the race lasts.
  if (parent_ != kInvalidNode) {
    const auto cur = neighbor_route(parent_);
    if (cur.has_value() && (cur->etx10 >= kMaxPathEtx10 ||
                            cur->parent == mac_->id())) {
      parent_ = kInvalidNode;
      path_etx10_ = 0xFFFF;
      hops_ = 0xFF;
    }
  }

  NodeId best = kInvalidNode;
  std::uint32_t best_cost = kMaxPathEtx10;
  std::uint8_t best_hops = 0xFF;
  for (const auto& e : routes_) {
    if (e.route.etx10 >= kMaxPathEtx10) continue;
    if (e.route.parent == mac_->id()) continue;  // obvious 1-hop loop
    const std::uint32_t link = estimator_->etx10(e.id);
    const std::uint32_t cost = e.route.etx10 + link;
    if (cost < best_cost) {
      best_cost = cost;
      best = e.id;
      best_hops = field::u8(e.route.hops == 0xFF ? 0xFF : e.route.hops + 1);
    }
  }
  if (best == kInvalidNode) return;

  const bool have_route = parent_ != kInvalidNode;
  const bool switch_worthy =
      !have_route ||
      best_cost + kParentSwitchThreshold10 <
          static_cast<std::uint32_t>(path_etx10_) ||
      // Our current parent's refreshed advertisement may have worsened the
      // route through it; always track the recomputed cost via the same
      // parent.
      best == parent_;

  if (!switch_worthy) return;

  const NodeId old_parent = parent_;
  const std::uint16_t old_cost = path_etx10_;
  parent_ = best;
  path_etx10_ = field::u16(best_cost);
  hops_ = best_hops;

  if (old_parent != parent_) {
    ++stats_.parent_changes;
    if (listener_ != nullptr) listener_->on_parent_changed(old_parent, parent_);
    beacon_timer_.reset();  // topology change: advertise promptly
  } else if (path_etx10_ > old_cost &&
             path_etx10_ - old_cost >= kParentSwitchThreshold10) {
    // Cost through the unchanged parent jumped: the tree above us worsened,
    // or we are part of a routing loop counting itself up. Either way the
    // neighborhood's picture of us is now inconsistent — reset the beacon
    // interval (trickle's inconsistency rule) so the new cost propagates at
    // Imin. In a loop this is what turns count-to-infinity from hours (Imax
    // beacons) into seconds: each prompt beacon bumps the next member until
    // the cost crosses kMaxPathEtx10 and the cycle tears itself down.
    beacon_timer_.reset();
  }
  if (!route_announced_) {
    route_announced_ = true;
    if (listener_ != nullptr) listener_->on_route_found();
  }
}

bool CtpNode::send_to_sink(msg::CtpData data) {
  data.origin = mac_->id();
  data.origin_seqno = ++next_origin_seqno_;
  data.thl = 0;
  if (is_root_) {
    ++stats_.data_originated;
    ++stats_.data_delivered;
    if (deliver_) deliver_(data);
    return true;
  }
  if (forward_queue_.size() >= kForwardQueueLimit) {
    ++stats_.data_dropped;
    return false;
  }
  ++stats_.data_originated;
  if (origin_hook_) origin_hook_(data);
  if (data.is_control_ack) {
    router_->record(mac_->id(), TraceEvent::kAckPath, data.control_seqno,
                    parent_);
  }
  forward_queue_.push_back(data);
  forward_queue_hwm_ = std::max(forward_queue_hwm_, forward_queue_.size());
  forward_next();
  return true;
}

AckDecision CtpNode::handle_data(NodeId from, const msg::CtpData& data,
                                 bool for_me) {
  (void)from;
  if (!for_me) return AckDecision::kIgnore;

  // Datapath loop probe: a sender whose advertised cost is not above ours
  // indicates stale routing state somewhere — pull beacons (CTP's P bit via
  // an immediate beacon with pull set).
  if (!is_root_ && data.etx <= path_etx10_) {
    beacon_timer_.reset();
  }

  const bool dup = std::any_of(
      seen_.begin(), seen_.end(), [&data](const SeenData& s) {
        return s.origin == data.origin && s.seqno == data.origin_seqno;
      });
  if (dup) return AckDecision::kAcceptAndAck;  // ack, but don't re-forward

  seen_.push_back(SeenData{data.origin, data.origin_seqno});
  while (seen_.size() > kDedupCache) seen_.pop_front();

  if (is_root_) {
    ++stats_.data_delivered;
    if (deliver_) deliver_(data);
    return AckDecision::kAcceptAndAck;
  }

  if (forward_queue_.size() >= kForwardQueueLimit) {
    // No queue space: refuse the ack so the previous hop keeps trying.
    seen_.pop_back();
    return AckDecision::kIgnore;
  }
  msg::CtpData fwd = data;
  fwd.thl = field::u8(data.thl + 1);
  ++stats_.data_forwarded;
  if (fwd.is_control_ack) {
    router_->record(mac_->id(), TraceEvent::kAckPath, fwd.control_seqno,
                    parent_);
  }
  forward_queue_.push_back(fwd);
  forward_queue_hwm_ = std::max(forward_queue_hwm_, forward_queue_.size());
  forward_next();
  return AckDecision::kAcceptAndAck;
}

void CtpNode::forward_next() {
  if (forwarding_ || forward_queue_.empty()) return;
  if (parent_ == kInvalidNode) {
    // No route yet; retry when one appears (cheap poll via timer-less
    // rescheduling on the next beacon-driven recompute is implicit: the
    // queue is re-kicked after every send completion, so just wait).
    sim_->schedule_in(kSecond, [this] { forward_next(); }, "ctp.requeue");
    return;
  }
  forwarding_ = true;
  forwarding_to_ = parent_;

  msg::CtpData data = forward_queue_.front();
  data.etx = path_etx10_;

  Frame frame;
  frame.dst = parent_;
  frame.payload = data;
  const bool queued = mac_->send(
      std::move(frame), [this](const SendResult& r) { on_forward_done(r); });
  if (!queued) {
    forwarding_ = false;
    sim_->schedule_in(kSecond, [this] { forward_next(); }, "ctp.requeue");
  }
}

void CtpNode::on_forward_done(const SendResult& result) {
  forwarding_ = false;
  if (forward_queue_.empty()) return;

  estimator_->on_data_tx(forwarding_to_, result.success);

  if (result.success) {
    consecutive_failures_ = 0;
    front_attempts_ = 0;
    forward_queue_.pop_front();
    forward_next();
    return;
  }

  ++consecutive_failures_;
  ++front_attempts_;
  if (front_attempts_ >= kDataRetx) {
    forward_queue_.pop_front();  // give up on this packet
    front_attempts_ = 0;
    ++stats_.data_dropped;
  }
  if (consecutive_failures_ >= kRerouteAfter &&
      forwarding_to_ == parent_) {
    consecutive_failures_ = 0;
    report_parent_trouble();
  }
  forward_next();
}

void CtpNode::reset_routing() {
  if (!is_root_) {
    parent_ = kInvalidNode;
    path_etx10_ = 0xFFFF;
    hops_ = 0xFF;
  }
  route_announced_ = false;
  routes_.clear();
  forward_queue_.clear();
  forward_queue_hwm_ = 0;  // RAM-resident watermark: lost with the queue
  forwarding_ = false;
  forwarding_to_ = kInvalidNode;
  front_attempts_ = 0;
  consecutive_failures_ = 0;
  seen_.clear();
  estimator_->clear();
  beacon_timer_.reset();  // beacon at Imin: announce the cold boot promptly
}

void CtpNode::report_parent_trouble() {
  if (is_root_ || parent_ == kInvalidNode) return;
  // Parent looks dead or one-way: drop it and force reselection + pull.
  estimator_->evict(parent_);
  std::erase_if(routes_,
                [this](const RouteEntry& e) { return e.id == parent_; });
  parent_ = kInvalidNode;
  path_etx10_ = 0xFFFF;
  recompute_route();
  send_beacon(true);
}

}  // namespace telea
