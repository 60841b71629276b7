#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "mac/lpl.hpp"
#include "net/link_estimator.hpp"
#include "net/trickle.hpp"
#include "radio/packet.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"

namespace telea {

/// Observer interface for the routing plane. TeleAdjusting hangs off these
/// hooks: the paper triggers path-code construction on the "routing found"
/// event, learns child position claims from overheard routing beacons, and
/// clears neighbor-unreachable flags when a beacon is heard again.
class CtpListener {
 public:
  virtual ~CtpListener() = default;
  virtual void on_route_found() {}
  virtual void on_parent_changed(NodeId old_parent, NodeId new_parent) {
    (void)old_parent;
    (void)new_parent;
  }
  virtual void on_beacon_heard(NodeId from, const msg::CtpBeacon& beacon) {
    (void)from;
    (void)beacon;
  }
};

/// Provider hook: fills the TeleAdjusting piggyback fields into an outgoing
/// routing beacon (position maintenance, Sec. III-B5).
class BeaconPiggyback {
 public:
  virtual ~BeaconPiggyback() = default;
  virtual void fill_beacon(msg::CtpBeacon& beacon) = 0;
};

/// The Collection Tree Protocol (Gnawali et al., SenSys'09): cost-optimal
/// (minimum path-ETX) anycast collection to a root. This is the substrate
/// TeleAdjusting's reverse-path coding is built on (paper Sec. III-B: the
/// parent in the code tree *is* the CTP parent) and the return channel for
/// end-to-end acknowledgements.
///
/// Implemented: routing engine (Trickle-paced beacons, ETX parent selection
/// with hysteresis, pull bit), forwarding engine (per-hop retransmission,
/// duplicate suppression, datapath loop detection -> beacon reset).
class CtpNode {
 public:
  /// `router` receives each hop an e2e control ack takes toward the sink.
  CtpNode(Simulator& sim, TraceRouter& router, LplMac& mac,
          LinkEstimator& estimator, bool is_root, std::uint64_t seed);

  CtpNode(const CtpNode&) = delete;
  CtpNode& operator=(const CtpNode&) = delete;

  /// Begins beaconing / route formation. Call at node boot.
  void start();

  void set_listener(CtpListener* listener) { listener_ = listener; }
  void set_piggyback(BeaconPiggyback* piggyback) { piggyback_ = piggyback; }

  /// Root-side delivery of collected data.
  using DeliverFn = std::function<void(const msg::CtpData&)>;
  void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  /// Origin-side piggyback hook: invoked once per locally-originated upward
  /// frame (collection data *and* e2e control acks), after origin/seqno
  /// stamping and only when the frame is actually accepted into the forward
  /// queue. The in-band health reporter attaches its report here; forwarding
  /// hops never see the hook, so piggybacks ride origin frames unmodified.
  using OriginHook = std::function<void(msg::CtpData&)>;
  void set_origin_hook(OriginHook hook) { origin_hook_ = std::move(hook); }

  /// Sends an application payload toward the sink. Returns false when the
  /// forwarding queue is full.
  bool send_to_sink(msg::CtpData data);

  /// Allocates an origin sequence number from the same counter
  /// send_to_sink uses — for callers that inject pre-stamped data frames
  /// into the collection plane by other routes (TeleAdjusting's detour
  /// acknowledgement, Sec. III-C5).
  [[nodiscard]] std::uint8_t allocate_origin_seqno() {
    return ++next_origin_seqno_;
  }

  // --- frame plumbing (called by the node's dispatcher) -----------------
  void handle_beacon(NodeId from, const msg::CtpBeacon& beacon);
  AckDecision handle_data(NodeId from, const msg::CtpData& data, bool for_me);

  // --- routing state ------------------------------------------------------
  [[nodiscard]] bool has_route() const noexcept {
    return is_root_ || parent_ != kInvalidNode;
  }
  [[nodiscard]] NodeId parent() const noexcept { return parent_; }
  [[nodiscard]] std::uint16_t path_etx10() const noexcept { return path_etx10_; }
  [[nodiscard]] std::uint8_t hops() const noexcept { return hops_; }
  /// When the current parent's beacon was last received (0 = never / no
  /// parent). Lets the invariant engine tell an *active* parent link from a
  /// pointer frozen by a link fault (docs/STATIC_ANALYSIS.md, ctp.no_loop).
  [[nodiscard]] SimTime parent_last_heard() const noexcept;
  [[nodiscard]] bool is_root() const noexcept { return is_root_; }
  [[nodiscard]] LinkEstimator& estimator() noexcept { return *estimator_; }

  /// Advertised state of a neighbor, if we have heard a beacon from it.
  struct NeighborRoute {
    NodeId parent = kInvalidNode;
    std::uint16_t etx10 = 0xFFFF;
    std::uint8_t hops = 0xFF;
  };
  [[nodiscard]] std::optional<NeighborRoute> neighbor_route(NodeId id) const;

  /// Forces an immediate beacon (used by tests and by the pull mechanism).
  void send_beacon(bool pull);

  /// Observable activity of this node's collection plane (serial-report
  /// counters, mirrored into the metrics registry by the harness).
  struct Stats {
    std::uint64_t beacons_sent = 0;
    std::uint64_t data_originated = 0;  // send_to_sink accepted
    std::uint64_t data_forwarded = 0;   // relayed for others
    std::uint64_t data_delivered = 0;   // consumed at the root
    std::uint64_t data_dropped = 0;     // retx budget exhausted / queue full
    std::uint64_t parent_changes = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Deepest the forward queue has been since boot (or since the last
  /// state-loss reboot) — the "RX queue" half of the health report's
  /// queue high-water field.
  [[nodiscard]] std::size_t forward_queue_hwm() const noexcept {
    return forward_queue_hwm_;
  }

  /// Out-of-band report that unicasts to the current parent keep failing
  /// (e.g. TeleAdjusting's position requests on an asymmetric link): drops
  /// the parent and forces reselection, exactly as repeated data-plane
  /// failures would.
  void report_parent_trouble();

  /// Wipes all routing state (parent, neighbor routes, queues, dedup cache)
  /// back to cold boot — a reboot that loses RAM. Resets the beacon timer to
  /// Imin for fast reconvergence and re-arms the one-shot route-found
  /// announcement so downstream planes (path-code addressing) rebuild too.
  void reset_routing();

 private:
  struct RouteEntry {
    NodeId id;
    NeighborRoute route;
    SimTime heard = 0;  // when this neighbor's beacon was last received
  };

  void recompute_route();
  void forward_next();
  void on_forward_done(const SendResult& result);

  Simulator* sim_;
  TraceRouter* router_;
  LplMac* mac_;
  LinkEstimator* estimator_;
  bool is_root_;
  CtpListener* listener_ = nullptr;
  BeaconPiggyback* piggyback_ = nullptr;
  DeliverFn deliver_;
  OriginHook origin_hook_;
  Stats stats_;

  TrickleTimer beacon_timer_;
  std::uint8_t beacon_seqno_ = 0;

  NodeId parent_ = kInvalidNode;
  std::uint16_t path_etx10_ = 0xFFFF;
  std::uint8_t hops_ = 0xFF;
  bool route_announced_ = false;
  std::vector<RouteEntry> routes_;  // advertised routes of neighbors

  std::deque<msg::CtpData> forward_queue_;
  std::size_t forward_queue_hwm_ = 0;
  bool forwarding_ = false;
  NodeId forwarding_to_ = kInvalidNode;
  unsigned front_attempts_ = 0;        // send ops spent on the head packet
  unsigned consecutive_failures_ = 0;  // across packets, drives reroute
  std::uint8_t next_origin_seqno_ = 0;

  // Duplicate suppression: recently seen (origin, origin_seqno, thl).
  struct SeenData {
    NodeId origin;
    std::uint8_t seqno;
  };
  std::deque<SeenData> seen_;
};

}  // namespace telea
