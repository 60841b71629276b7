#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/forwarding.hpp"
#include "core/path_code.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/trace.hpp"
#include "util/ids.hpp"

namespace telea {

/// The protocol invariant catalog. Each rule encodes one structural property
/// the paper states (or relies on) but the seed code never checked as a
/// whole; docs/STATIC_ANALYSIS.md maps every rule to its paper section.
enum class InvariantRule : std::uint8_t {
  // --- addressing (Sec. III-B, Algorithms 1-3) -----------------------------
  kAddrParentPrefix,   // child code = parent code + position in parent space
  kAddrSiblingUnique,  // no two children of one parent share a position
  kAddrCodeBounds,     // codes are sink-rooted and within length bounds
  // --- forwarding (Sec. III-C) ---------------------------------------------
  kFwdClaimJustified,      // every relay claim satisfies rule 1, 2 or 3
  kFwdUniqueDelivery,      // at most one final delivery per control seqno
  kFwdVerdictConservation, // every tracked command resolves exactly once
  // --- tables (Sec. III-C3) ------------------------------------------------
  kTblLeaseMonotone,   // unreachable leases carry sane, monotone timestamps
  // --- collection plane ----------------------------------------------------
  kCtpNoLoop,          // no persistent routing loop in the parent snapshot
};

[[nodiscard]] const char* invariant_rule_name(InvariantRule r) noexcept;
/// The paper section (or component) the rule encodes, for reports and docs.
[[nodiscard]] const char* invariant_rule_section(InvariantRule r) noexcept;
[[nodiscard]] std::optional<InvariantRule> invariant_rule_from_name(
    std::string_view name) noexcept;

/// One recorded violation: the failing node, the rule, an auxiliary operand
/// (peer node or control seqno, matching the rule's trace `b` convention)
/// and a human-readable expected-vs-actual diff.
struct InvariantViolation {
  SimTime time = 0;
  NodeId node = kInvalidNode;
  InvariantRule rule{};
  std::uint64_t aux = 0;
  std::string detail;
};

/// Thrown by fail-fast mode so a test run stops at the first violation
/// instead of soaking on corrupted state.
class InvariantViolationError : public std::runtime_error {
 public:
  explicit InvariantViolationError(const InvariantViolation& v);
  [[nodiscard]] const InvariantViolation& violation() const noexcept {
    return violation_;
  }

 private:
  InvariantViolation violation_;
};

struct InvariantConfig {
  /// Structural checkpoint cadence (parent-prefix, sibling, bounds, lease,
  /// loop rules). Event-driven rules (claims, deliveries, verdicts) fire at
  /// the moment of the event regardless.
  SimTime checkpoint_interval = 30 * kSecond;
  /// Throw InvariantViolationError at the first violation (tests).
  bool fail_fast = false;
  /// final_audit() treats still-pending commands as violations. Leave off
  /// for runs that end mid-lifecycle (a soak's command window can close with
  /// retries still backed off); turn on when the drain is generous.
  bool expect_all_resolved = false;
};

/// Checkpoints a node is excused from cross-node addressing rules after
/// coming back from an outage. A child that was down while its allocator
/// re-allocated legitimately holds a doubly-stale code until the normal
/// beacon/report exchange reconciles it — that is repair, not corruption.
/// The mismatch is still flagged if it outlives this window. The window
/// must cover a trickle-suppressed beacon round (minutes at steady state),
/// which is what ultimately carries the reconciliation.
inline constexpr std::uint64_t kRevivalGraceCheckpoints = 8;

/// Checkpoint snapshot of one node's protocol state. Pure data: the harness
/// builds these from live stacks, tests fabricate them directly.
struct InvariantNodeView {
  struct ChildEntry {
    NodeId child = kInvalidNode;
    std::uint32_t position = 0;
    PathCode new_code;
    PathCode old_code;
    bool confirmed = false;
  };
  struct NeighborEntry {
    NodeId neighbor = kInvalidNode;
    PathCode new_code;
    PathCode old_code;
    bool unreachable = false;
    SimTime unreachable_since = 0;
  };

  NodeId id = kInvalidNode;
  bool alive = true;
  bool has_addressing = false;  // false for non-TeleAdjusting stacks
  PathCode code;
  PathCode old_code;
  NodeId code_parent = kInvalidNode;
  std::uint8_t space_bits = 0;
  std::vector<ChildEntry> children;
  std::vector<NeighborEntry> neighbors;
  NodeId ctp_parent = kInvalidNode;
  /// When this node last heard its CTP parent's beacon. The loop rule only
  /// walks *fresh* parent edges (heard since the previous checkpoint): a
  /// pointer frozen by a link fault is stale state awaiting repair, not an
  /// active route — CTP's loop-freedom guarantee needs connectivity.
  SimTime ctp_parent_heard = 0;
  /// Advertised path cost (ETX*10). Part of the loop fingerprint: a cycle
  /// whose member costs rise between checkpoints is count-to-infinity repair
  /// in motion (the costs climb until one crosses kMaxPathEtx10 and the
  /// cycle tears itself down); only a cycle with *frozen* costs is stuck.
  std::uint16_t ctp_cost = 0;
};

/// The runtime invariant engine (tentpole of the correctness-tooling layer):
/// a registry of named, subsystem-scoped checks evaluated at configurable
/// checkpoints plus event-driven audits fed by the forwarding plane and the
/// controller. Violations are reported through the TraceRouter (one
/// `invariant_violation` record carrying the failing node and rule id, and a
/// dump of that node's flight ring with trigger `invariant:<rule>`), the
/// metrics layer (Network::collect_metrics exports
/// telea_invariant_violations_total per rule) and the log (a human-readable
/// expected-vs-actual diff), and optionally abort the run (fail_fast).
class InvariantEngine final : public ForwardingAuditor {
 public:
  using ViewProvider = std::function<std::vector<InvariantNodeView>()>;

  InvariantEngine(Simulator& sim, TraceRouter& router,
                  const InvariantConfig& config);

  InvariantEngine(const InvariantEngine&) = delete;
  InvariantEngine& operator=(const InvariantEngine&) = delete;

  /// Starts periodic checkpoints over `provider`'s snapshots.
  void start(ViewProvider provider);
  void stop();

  /// Evaluates every structural rule against `views` now. Returns the number
  /// of new violations. Also reachable through the periodic checkpoints.
  std::size_t run_checkpoint(const std::vector<InvariantNodeView>& views);

  // --- ForwardingAuditor (event-driven forwarding rules) -------------------
  void on_claim(NodeId node, const msg::ControlPacket& packet,
                TraceReason stated, bool rescue) override;
  void on_final_delivery(NodeId node, const msg::ControlPacket& packet,
                         bool direct) override;

  // --- command lifecycle conservation (fed by the Controller) --------------
  void note_command_issued(std::uint32_t first_seqno);
  void note_command_resolved(std::uint32_t first_seqno);
  /// A node lost its volatile state (state-loss reboot): per-seqno delivery
  /// dedup on that node legitimately resets.
  void note_node_reset(NodeId node);

  /// End-of-run conservation audit: every issued command resolved exactly
  /// once (pending commands violate only under expect_all_resolved).
  /// Returns the number of new violations.
  std::size_t final_audit();

  // --- results -------------------------------------------------------------
  [[nodiscard]] const std::vector<InvariantViolation>& violations()
      const noexcept {
    return violations_;
  }
  [[nodiscard]] std::size_t violation_count(InvariantRule rule) const noexcept;
  [[nodiscard]] std::uint64_t checkpoints_run() const noexcept {
    return checkpoints_;
  }
  [[nodiscard]] std::uint64_t claims_audited() const noexcept {
    return claims_audited_;
  }
  [[nodiscard]] const InvariantConfig& config() const noexcept {
    return config_;
  }
  /// One line per violation (for logs / test output).
  [[nodiscard]] std::string render_report() const;
  void clear();

 private:
  void report(NodeId node, InvariantRule rule, std::uint64_t aux,
              std::string detail);
  void check_addressing(const InvariantNodeView& v);
  void check_child_cross(const std::vector<InvariantNodeView>& views,
                         std::set<std::string>* pending);
  void check_leases(const InvariantNodeView& v,
                    std::map<std::uint64_t, SimTime>* leases);
  /// The CTP routing-loop rule. A loop is reported only when the same
  /// cycle persists across two consecutive checkpoints — CTP repairs
  /// transient loops itself, and a snapshot mid-repair is not a bug.
  void check_ctp_loops(const std::vector<InvariantNodeView>& views,
                       std::set<std::string>* pending);
  [[nodiscard]] bool in_revival_grace(NodeId node) const;
  [[nodiscard]] static bool claim_justified(const InvariantNodeView& v,
                                            const msg::ControlPacket& packet,
                                            bool rescue, std::string* why);

  Simulator* sim_;
  TraceRouter* router_;
  InvariantConfig config_;
  ViewProvider provider_;
  Timer checkpoint_timer_;

  std::vector<InvariantViolation> violations_;
  std::map<std::uint8_t, std::size_t> by_rule_;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t claims_audited_ = 0;

  // Cross-checkpoint persistence gates: a candidate cross-node finding only
  // becomes a violation when the identical fingerprint shows up at two
  // consecutive checkpoints (protocol transients — an AllocationAck in
  // flight, a CTP repair mid-way — are gone by the next checkpoint).
  std::set<std::string> pending_child_mismatch_;
  std::set<std::string> pending_loops_;
  // Checkpoint index at which each node was last observed dead; recently
  // revived nodes get kRevivalGraceCheckpoints of slack on the
  // cross-node addressing rules while the protocol reconciles their state.
  std::map<NodeId, std::uint64_t> last_dead_checkpoint_;
  SimTime last_checkpoint_time_ = 0;
  // (node << 16 | neighbor) -> unreachable_since at the last checkpoint.
  std::map<std::uint64_t, SimTime> lease_since_;

  // Delivery bookkeeping: seqno -> first delivering node, and the reset
  // epoch of that node at delivery time. A node's epoch bumps on each
  // state-loss reboot; re-delivery of a seqno at the same node is legitimate
  // exactly when the node's epoch has advanced since the recorded delivery.
  std::map<std::uint32_t, NodeId> delivered_by_;
  std::map<std::uint32_t, unsigned> delivery_epoch_;
  std::map<NodeId, unsigned> reset_epoch_;
  // Command lifecycle: first_seqno -> resolution count.
  std::map<std::uint32_t, unsigned> commands_;
};

}  // namespace telea
