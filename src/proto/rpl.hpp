#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "mac/lpl.hpp"
#include "net/ctp.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace telea {

/// RPL downward routing, storing mode (RFC 6550) — the paper's *structured*
/// baseline (Sec. IV-B): "we only use the downward part of RPL". The DODAG
/// is the CTP tree (RPL's design "is largely based on CTP"); each node
/// advertises itself and its stored targets to its preferred parent with
/// DAOs, ancestors install target->child routes, and downward data follows
/// the stored tables with deterministic unicast per hop.
///
/// Its weakness — the one the paper's Fig. 7 exposes — is intrinsic: when
/// links churn, the stored tables go stale and deterministic forwarding
/// drops packets that TeleAdjusting's anycast would have rescued.
class RplNode {
 public:
  RplNode(Simulator& sim, LplMac& mac, CtpNode& ctp);

  RplNode(const RplNode&) = delete;
  RplNode& operator=(const RplNode&) = delete;

  /// Starts DAO timers. Call at node boot.
  void start();

  /// Call when CTP changes this node's parent so a triggered DAO refreshes
  /// the new ancestor chain.
  void on_parent_changed();

  // --- dispatcher entries -----------------------------------------------------
  AckDecision handle_dao(NodeId from, const msg::RplDao& dao, bool for_me);
  AckDecision handle_data(NodeId from, const msg::RplData& data, bool for_me);

  /// Root-side: sends a command down to `dest`. Returns false when no stored
  /// route exists (counted as an immediate routing failure).
  bool send_downward(NodeId dest, std::uint16_t command, std::uint32_t seqno);

  /// Fired at the destination when a downward packet arrives.
  std::function<void(const msg::RplData&)> on_delivered;
  /// Fired at every relay that accepts a downward packet — stats hook for
  /// the accumulated-transmission-hop-count figure (Fig. 8c).
  std::function<void(const msg::RplData&)> on_relayed;
  /// Fired at whichever hop drops the packet (no route / link exhausted).
  std::function<void(std::uint32_t seqno)> on_drop;

  // --- introspection ------------------------------------------------------------
  [[nodiscard]] bool has_route_to(NodeId dest) const;
  [[nodiscard]] std::size_t route_count() const noexcept {
    return routes_.size();
  }

 private:
  struct Route {
    NodeId target;
    NodeId next_hop;
    SimTime refreshed;
  };

  void send_dao();
  void expire_routes();
  void remember(std::uint32_t seqno);
  [[nodiscard]] const Route* find_route(NodeId target) const;
  void enqueue(msg::RplData data);
  void forward_next();

  Simulator* sim_;
  LplMac* mac_;
  CtpNode* ctp_;

  std::vector<Route> routes_;
  std::uint8_t dao_seqno_ = 0;
  unsigned dao_failures_ = 0;
  Timer dao_timer_;
  Timer trigger_timer_;

  std::deque<msg::RplData> queue_;
  std::deque<std::uint32_t> seen_;  // recent downward seqnos (dedup)
  bool forwarding_ = false;
  unsigned front_attempts_ = 0;
};

}  // namespace telea
