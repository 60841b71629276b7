#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "mac/lpl.hpp"
#include "net/ctp.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/bloom.hpp"

namespace telea {

/// ORPL-lite: opportunistic downward routing over Bloom-filter sub-DODAG
/// membership (Duquennoy, Landsiedel, Voigt — SenSys'13), the related-work
/// baseline the paper singles out: "the inherent false positive of bloom
/// filter can incur multiple rounds of ineffectual transmissions"
/// (Sec. V). Implemented to make that comparison reproducible:
///
/// * every node maintains a Bloom filter of itself + its descendants,
///   merged from children's announcements, and broadcasts it periodically;
/// * a downward packet is link-layer anycast: any *deeper* neighbor (higher
///   routing cost than the sender) whose filter contains the destination
///   claims it;
/// * a false positive produces a claimant that cannot actually progress —
///   it burns retries and drops, the failure mode the paper critiques.
class OrplNode {
 public:
  OrplNode(Simulator& sim, LplMac& mac, CtpNode& ctp);

  OrplNode(const OrplNode&) = delete;
  OrplNode& operator=(const OrplNode&) = delete;

  void start();

  // --- dispatcher entries ----------------------------------------------------
  AckDecision handle_announce(NodeId from, const msg::OrplAnnounce& announce);
  AckDecision handle_data(NodeId from, const msg::OrplData& data);

  /// Root-side: sends a command down to `dest`. Returns false when no
  /// neighbor's filter contains it (yet).
  bool send_downward(NodeId dest, std::uint16_t command, std::uint32_t seqno);

  std::function<void(const msg::OrplData&)> on_delivered;
  std::function<void(std::uint32_t seqno)> on_drop;

  // --- introspection -----------------------------------------------------------
  [[nodiscard]] const OrplBloom& members() const noexcept { return members_; }
  /// True when some neighbor's announced filter contains `dest` (including
  /// false positives — that is the point).
  [[nodiscard]] bool believes_reachable(NodeId dest) const;

  struct Stats {
    std::uint64_t announces_sent = 0;
    std::uint64_t claims = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t drops = 0;
    std::uint64_t false_positive_claims = 0;  // claimed, could not progress
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct NeighborFilter {
    OrplBloom members;
    std::uint16_t etx10 = 0xFFFF;
    SimTime refreshed = 0;
  };

  void announce();
  void enqueue(msg::OrplData data);
  void forward_next();

  Simulator* sim_;
  LplMac* mac_;
  CtpNode* ctp_;

  OrplBloom members_;  // self + descendants (merged from children)
  std::unordered_map<NodeId, NeighborFilter> neighbors_;
  Timer announce_timer_;
  std::uint8_t announce_seqno_ = 0;

  std::deque<msg::OrplData> queue_;
  bool forwarding_ = false;
  unsigned front_attempts_ = 0;
  std::deque<std::uint32_t> seen_;  // downward seqno dedup
  Stats stats_;
};

}  // namespace telea
