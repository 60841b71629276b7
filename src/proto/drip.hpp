#pragma once

#include <cstdint>
#include <functional>

#include "mac/lpl.hpp"
#include "net/trickle.hpp"
#include "radio/packet.hpp"
#include "sim/simulator.hpp"

namespace telea {

/// Drip (Tolle & Culler, EWSN'05): Trickle-paced reliable dissemination —
/// the paper's *unstructured* baseline (Sec. IV-B). Remote control rides it
/// as a network-wide flood: every node adopts and rebroadcasts the newest
/// (key, version) value; only the addressed destination consumes the
/// command. Reliability is near-perfect ("PDR almost 100%"), cost is a full
/// network's worth of transmissions per control packet (Table III).
class DripNode {
 public:
  DripNode(Simulator& sim, LplMac& mac, std::uint64_t seed);

  DripNode(const DripNode&) = delete;
  DripNode& operator=(const DripNode&) = delete;

  /// Starts the Trickle maintenance timer. Call at node boot.
  void start();

  /// Sink-side: disseminates a new control value addressed to `dest`.
  /// Returns the version number assigned.
  std::uint32_t disseminate(NodeId dest, std::uint16_t command);

  /// Dispatcher entry for DripMsg broadcasts.
  AckDecision handle_msg(NodeId from, const msg::DripMsg& msg);

  /// Fired at the addressed destination on first adoption of a version.
  std::function<void(const msg::DripMsg&)> on_delivered;

  /// Fired at *every* node when it adopts a newer version — stats hook for
  /// the accumulated-transmission-hop-count figure (Fig. 8b).
  std::function<void(const msg::DripMsg&)> on_adopted;

  [[nodiscard]] std::uint32_t version() const noexcept { return value_.version; }

 private:
  void broadcast_value();

  Simulator* sim_;
  LplMac* mac_;
  TrickleTimer trickle_;
  msg::DripMsg value_;  // newest known value (version 0 = none)
  bool broadcasting_ = false;
  bool rebroadcast_queued_ = false;
};

}  // namespace telea
