#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/path_code.hpp"
#include "core/tables.hpp"
#include "mac/lpl.hpp"
#include "net/ctp.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace telea {

struct AddressingConfig {
  HeadroomPolicy headroom{};
};

/// "10 rounds of routing beacons (the duration is 10×wake-up interval)"
/// after the parent-found event with no new child triggers the initial
/// allocation (Sec. III-B2). The wake interval is the MAC's.
inline constexpr unsigned kStableRounds = 10;

/// Reserve the all-zero position so a child code never equals its parent's
/// code extended by zeros (matches the Fig. 2 example, where the first
/// child gets position 01, not 00).
inline constexpr bool kReserveZeroPosition = true;
inline constexpr std::uint32_t kFirstPosition = kReserveZeroPosition ? 1u : 0u;

/// The path-code construction half of TeleAdjusting (paper Sec. III-B,
/// Algorithms 1-3): builds and maintains this node's path code, allocates
/// positions to children on the CTP reverse routing tree, keeps the child
/// table consistent through beacon-piggybacked claims, answers position
/// requests, and extends the bit space when children overflow it.
class Addressing final : public BeaconPiggyback {
 public:
  Addressing(Simulator& sim, LplMac& mac, CtpNode& ctp,
             const AddressingConfig& config);

  Addressing(const Addressing&) = delete;
  Addressing& operator=(const Addressing&) = delete;

  /// Starts internal timers. Call at node boot.
  void start();

  /// Wipes every piece of addressing state (code, position, space, child and
  /// neighbor tables, timers) back to the just-constructed blank — the RAM
  /// loss of a reboot without persistent storage. Fires on_code_changed if a
  /// code was lost. Call start() afterwards to resume operation.
  void reset();

  // --- events from the routing plane (wired by the TeleAdjusting facade) --
  void on_route_found();
  void on_parent_changed(NodeId old_parent, NodeId new_parent);
  void on_beacon_heard(NodeId from, const msg::CtpBeacon& beacon);

  // --- frame handlers (wired by the node dispatcher via the facade) -------
  void handle_tele_beacon(NodeId from, const msg::TeleBeacon& beacon);
  AckDecision handle_position_request(NodeId from, bool for_me);
  AckDecision handle_allocation_ack(NodeId from, NodeId link_dst,
                                    const msg::AllocationAck& ack,
                                    bool for_me);
  AckDecision handle_confirm(NodeId from, const msg::ConfirmFrame& confirm,
                             bool for_me);

  // --- BeaconPiggyback ------------------------------------------------------
  void fill_beacon(msg::CtpBeacon& beacon) override;

  // --- introspection --------------------------------------------------------
  [[nodiscard]] bool has_code() const noexcept { return !code_.empty(); }
  [[nodiscard]] const PathCode& code() const noexcept { return code_; }
  [[nodiscard]] const PathCode& old_code() const noexcept { return old_code_; }
  [[nodiscard]] bool has_position() const noexcept { return have_position_; }
  [[nodiscard]] std::uint32_t position() const noexcept { return position_; }
  [[nodiscard]] std::uint8_t space_bits() const noexcept { return space_bits_; }
  [[nodiscard]] const ChildTable& children() const noexcept {
    return child_table_;
  }
  [[nodiscard]] NeighborCodeTable& neighbors() noexcept { return neighbors_; }
  [[nodiscard]] const NeighborCodeTable& neighbors() const noexcept {
    return neighbors_;
  }
  [[nodiscard]] std::size_t discovered_children() const noexcept {
    return discovered_.size();
  }

  /// Fig. 6(c) metric: when the routing-found event fired and when this node
  /// first obtained a path code.
  [[nodiscard]] std::optional<SimTime> triggered_at() const noexcept {
    return trigger_at_;
  }
  [[nodiscard]] std::optional<SimTime> code_assigned_at() const noexcept {
    return code_at_;
  }

  /// The node that allocated our current position — the parent in the *code
  /// tree* (may lag the live CTP parent; Fig. 6(d) compares the two trees).
  [[nodiscard]] NodeId code_parent() const noexcept { return code_parent_; }

  // --- fault injection (tests / FaultPlan only) ----------------------------
  /// Flips bit `bit` of this node's own code (modulo its length) without any
  /// beacon or table update — the silent memory corruption the invariant
  /// engine exists to catch. No-op while codeless. Returns true if flipped.
  bool corrupt_code_bit(std::size_t bit);

  /// Rewrites the allocated position of child table slot `slot` (modulo the
  /// table size) to `position`, clobbering the derived code — forges a
  /// sibling-position collision or a prefix break. Returns true if applied.
  bool corrupt_child_position(std::size_t slot, std::uint32_t position);

  /// Invoked whenever this node's own code changes (forwarding cares).
  std::function<void()> on_code_changed;

  /// Observable protocol activity of this node's addressing plane.
  struct Stats {
    std::uint64_t tele_beacons_sent = 0;
    std::uint64_t allocations = 0;       // positions handed to children
    std::uint64_t requests_sent = 0;     // position requests to the parent
    std::uint64_t requests_served = 0;   // position requests answered
    std::uint64_t confirms_sent = 0;
    std::uint64_t confirms_received = 0;
    std::uint64_t space_extensions = 0;
    std::uint64_t code_changes = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void set_code(const PathCode& code);
  void stability_check();
  /// Runs the stability timer exactly while stability_check can act.
  void update_stability_timer();
  void do_initial_allocation();
  /// Allocates a (new) position to `child`, extending the space if needed,
  /// and unicasts an AllocationAck. Alg. 2 lines 7-14.
  void allocate_and_ack(NodeId child);
  void extend_space();
  void schedule_tele_beacon();
  void send_tele_beacon();
  void send_confirm();
  void send_to_parent(Frame frame);
  void request_position_check();
  [[nodiscard]] msg::TeleBeacon build_tele_beacon() const;

  Simulator* sim_;
  LplMac* mac_;
  CtpNode* ctp_;
  AddressingConfig config_;

  PathCode code_;
  PathCode old_code_;
  NodeId code_parent_ = kInvalidNode;
  bool have_position_ = false;
  std::uint32_t position_ = 0;
  std::uint8_t space_bits_ = 0;  // 0 = not yet allocated (Alg. 1 not run)
  bool allocated_ = false;       // initial allocation done

  ChildTable child_table_;
  NeighborCodeTable neighbors_;
  std::vector<NodeId> discovered_;  // children seen before/after allocation

  std::optional<SimTime> trigger_at_;
  std::optional<SimTime> code_at_;
  SimTime last_new_child_ = 0;

  SimTime last_request_at_ = 0;
  unsigned parent_send_failures_ = 0;
  Timer stability_timer_;
  /// When start() ran (the stability timer's phase); empty until then and
  /// after reset().
  std::optional<SimTime> stability_origin_;
  Timer request_timer_;
  Timer beacon_timer_;
  bool beacon_pending_ = false;
  unsigned pending_beacon_repeats_ = 0;
  Stats stats_;
};

}  // namespace telea
