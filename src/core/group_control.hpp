#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/addressing.hpp"
#include "core/forwarding.hpp"
#include "mac/lpl.hpp"
#include "sim/simulator.hpp"

namespace telea {

/// One-to-many remote control — the extension the paper claims TeleAdjusting
/// admits "easily" (Sec. I). A group packet carries every destination whose
/// encoded path still shares the segment being traversed; each claiming
/// relay delivers locally if listed, then *splits* the remaining
/// destinations by their next expected relay and forwards one sub-packet per
/// branch. Shared path segments are therefore transmitted once, and the
/// existing per-destination forwarding plane serves as the fallback when a
/// branch has no group candidate.
class GroupControl {
 public:
  GroupControl(Simulator& sim, LplMac& mac, CtpNode& ctp,
               Addressing& addressing, Forwarding& forwarding);

  GroupControl(const GroupControl&) = delete;
  GroupControl& operator=(const GroupControl&) = delete;

  /// Origin-side: sends `command` to all of `dests` as one shared packet.
  /// Returns the group sequence number.
  std::uint32_t send_group(const std::vector<msg::GroupDest>& dests,
                           std::uint16_t command);

  /// Dispatcher entry for GroupControlPacket frames.
  AckDecision handle(NodeId from, const msg::GroupControlPacket& packet,
                     bool for_me);

  /// Fired when a group command addressed to this node arrives (first time).
  std::function<void(std::uint16_t command, std::uint32_t group_seqno)>
      on_delivered;

  struct Stats {
    std::uint64_t groups_sent = 0;
    std::uint64_t claims = 0;
    std::uint64_t splits = 0;           // branch divergences encountered
    std::uint64_t subpackets_sent = 0;  // group forwards started
    std::uint64_t unicast_fallbacks = 0;
    std::uint64_t deliveries = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct GroupState {
    std::set<NodeId> processed_dests;  // dests we already moved/served here
    bool delivered_here = false;
  };

  /// Forwards `dests` from this node: local delivery, branch partition,
  /// per-branch anycast, unicast fallback.
  void dispatch(std::uint32_t group_seqno, std::uint16_t command,
                std::uint8_t hops, std::vector<msg::GroupDest> dests);

  void send_branch(std::uint32_t group_seqno, std::uint16_t command,
                   std::uint8_t hops, const Forwarding::Candidate& relay,
                   std::vector<msg::GroupDest> dests, unsigned attempt);

  void fallback_unicast(const std::vector<msg::GroupDest>& dests,
                        std::uint16_t command);

  Simulator* sim_;
  LplMac* mac_;
  CtpNode* ctp_;
  Addressing* addressing_;
  Forwarding* forwarding_;
  std::unordered_map<std::uint32_t, GroupState> groups_;
  std::uint32_t next_group_seqno_ = 1;
  Stats stats_;
};

}  // namespace telea
