#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "core/addressing.hpp"
#include "mac/lpl.hpp"
#include "net/ctp.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"

namespace telea {

/// Per-node budget of backtrack rounds for one packet. Without it, two
/// relays can ping-pong feedback for an undeliverable destination forever
/// (each re-holds, fails, returns it), saturating the channel.
inline constexpr unsigned kMaxBacktracks = 3;

/// A freshly-claimed packet is forwarded only after this guard delay, during
/// which the claimant keeps re-acknowledging the upstream sender's repeated
/// copies. Without it the claimant goes deaf (transmitting) while the
/// upstream sender — whose ack got lost — recruits a second claimant,
/// spawning duplicate delivery chains. The group plane defers by the same.
inline constexpr SimTime kClaimDefer = 40 * kMillisecond;

/// The forwarding plane's ablation switches (bench_ablation_opportunism).
struct ForwardingConfig {
  /// Condition (2): an on-path overhearer with a longer matched prefix than
  /// the expected relay claims the packet (Sec. III-C2). Ablatable.
  bool opportunistic = true;
  /// Condition (3): an off-path overhearer claims when one of its *neighbors*
  /// is a better relay (Fig. 4c/4d). Ablatable.
  bool neighbor_assist = true;
  /// Backtracking via feedback packets (Sec. III-C3). Ablatable.
  bool backtracking = true;
};

/// Observer interface for the runtime invariant engine (src/check): the
/// forwarding plane reports every relay claim (with the claim condition it
/// invoked) and every final delivery, so an independent re-check can verify
/// the claim was justified and no seqno is consumed twice. Kept here so core
/// does not depend on the checking layer.
class ForwardingAuditor {
 public:
  virtual ~ForwardingAuditor() = default;
  /// `stated` is the claim condition the forwarding plane invoked
  /// (kExpectedRelay / kLongerPrefix / kNeighborPrefix); `rescue` marks a
  /// feedback-overhear rescue, whose progress bar is >= instead of >.
  virtual void on_claim(NodeId node, const msg::ControlPacket& packet,
                        TraceReason stated, bool rescue) = 0;
  /// First consumption of a control seqno at its destination.
  virtual void on_final_delivery(NodeId node, const msg::ControlPacket& packet,
                                 bool direct) = 0;
};

/// The control-packet forwarding half of TeleAdjusting (Sec. III-C):
/// distributed prefix matching against the destination's path code,
/// link-layer anycast claims by any node that can out-progress the expected
/// relay, backtracking with feedback packets, and the direct-delivery tail
/// of the Re-Tele detour.
class Forwarding {
 public:
  /// `router` receives every forwarding decision, with its reason.
  Forwarding(Simulator& sim, TraceRouter& router, LplMac& mac, CtpNode& ctp,
             Addressing& addressing, const ForwardingConfig& config);

  Forwarding(const Forwarding&) = delete;
  Forwarding& operator=(const Forwarding&) = delete;

  // --- origin (sink) API ----------------------------------------------------
  /// Injects a control packet addressed to `dest` (whose path code the
  /// controller knows). Returns the assigned seqno, or nullopt when no first
  /// relay can be determined.
  std::optional<std::uint32_t> send_control(NodeId dest,
                                            const PathCode& dest_code,
                                            std::uint16_t command);

  /// Re-Tele (Sec. III-C4): route via `via` (a neighbor of `dest` with a
  /// maximally divergent code); `via` delivers by direct unicast. Reuses
  /// `seqno` so the destination deduplicates across both attempts.
  bool send_control_detour(NodeId dest, const PathCode& dest_code, NodeId via,
                           const PathCode& via_code, std::uint16_t command,
                           std::uint32_t seqno);

  // --- frame handlers ---------------------------------------------------------
  AckDecision handle_control(NodeId from, const msg::ControlPacket& packet,
                             bool for_me);
  AckDecision handle_feedback(NodeId from, const msg::FeedbackPacket& feedback,
                              bool for_me);

  /// Routing beacons clear unreachable marks (Sec. III-C3) — call per beacon.
  void on_beacon_heard(NodeId from);

  /// Drops every per-packet state (cancelling in-flight sends) — the RAM
  /// loss of a reboot. Stats survive: they model serial-reported counters
  /// accumulated at the controller, not node RAM.
  void reset();

  /// An end-to-end acknowledgement for `seqno` was overheard riding the
  /// collection plane: the destination has the packet, so any local state
  /// for it is finished business (suppresses straggler duplicates).
  void note_ack_overheard(std::uint32_t seqno);

  /// The MAC re-heard (and re-acked) a duplicate copy of a control packet we
  /// claimed. While deferring our forward this extends the quiet period; if
  /// the sender ignores many of our re-acks, our claim evidently lost (the
  /// reverse link is one-way) and we yield the packet.
  void note_duplicate(NodeId from, const msg::ControlPacket& packet);

  // --- callbacks ---------------------------------------------------------------
  /// Fired at the destination on first delivery of a control seqno.
  std::function<void(const msg::ControlPacket&, bool direct)> on_delivered;
  /// Fired at the origin when downward forwarding is exhausted (backtracking
  /// returned the packet to the origin and no alternative relay remains).
  /// The facade uses this to trigger the Re-Tele countermeasure.
  std::function<void(const msg::ControlPacket&)> on_origin_stuck;
  /// Fired whenever this node claims (acks) a control packet — stats hook.
  std::function<void(const msg::ControlPacket&)> on_claimed;

  /// Observable protocol activity of this node's forwarding plane — the
  /// counters a deployment would report over serial (paper Sec. IV-B1).
  struct Stats {
    std::uint64_t claims = 0;        // control packets accepted for relaying
    std::uint64_t forwards = 0;      // anycast/direct send operations started
    std::uint64_t deliveries = 0;    // control packets consumed here
    std::uint64_t duplicates = 0;    // claims yielded to a better carrier
    std::uint64_t yields = 0;        // claims dropped after ignored re-acks
    std::uint64_t suppressions = 0;  // pending forwards cancelled by overhear
    std::uint64_t backtracks = 0;    // feedback rounds initiated
    std::uint64_t feedback_claims = 0;  // packets rescued from feedback
    std::uint64_t origin_retries = 0;
    std::uint64_t origin_failures = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Attaches the invariant auditor (claim/delivery re-checks). Pass nullptr
  /// to detach; auditing is a null-check when unset.
  void set_auditor(ForwardingAuditor* auditor) noexcept { auditor_ = auditor; }

  struct Candidate {
    NodeId id = kInvalidNode;
    std::size_t code_len = 0;
  };

  /// Known on-path next relays toward `route` with progress strictly beyond
  /// `floor`, excluding unreachable-marked neighbors. Returns the
  /// *least-progress* candidate (Fig. 4c) with link-quality preference.
  /// Public so the one-to-many extension can partition destinations by
  /// branch with the same relay-selection policy.
  [[nodiscard]] std::optional<Candidate> pick_relay(const PathCode& route,
                                                    std::size_t floor) const;

  /// This node's own on-path prefix depth toward `route` (0 = off-path),
  /// considering the retained old code as the paper prescribes.
  [[nodiscard]] std::size_t own_match_toward(const PathCode& route) const;

 private:
  struct PacketState {
    bool holding = false;       // we own the packet and owe it a forward
    bool done = false;          // successfully handed downstream / delivered
    bool finished = false;      // e2e ack overheard: never touch again
    bool delivered_here = false;
    NodeId came_from = kInvalidNode;
    unsigned attempts = 0;
    std::size_t floor = 0;      // progress we promised to beat (fixed at claim)
    std::uint8_t last_sent_expected_len = 0;
    SimTime last_done_at = 0;   // re-claim cooldown anchor
    SimTime defer_deadline = 0;  // end of the post-claim quiet period
    unsigned dup_acks = 0;       // sender copies re-acked while deferring
    unsigned origin_retries = 0;  // origin-side retry budget consumed
    unsigned backtrack_rounds = 0;  // feedback rounds this node initiated
    std::vector<NodeId> blocked;  // candidates we marked unreachable
    std::optional<std::uint32_t> mac_token;  // cancellable in-flight send
    msg::ControlPacket packet;
  };

  /// Effective routing target: the detour node when one is set.
  [[nodiscard]] static NodeId route_target(const msg::ControlPacket& p) noexcept {
    return p.detour_via != kInvalidNode ? p.detour_via : p.dest;
  }
  [[nodiscard]] static const PathCode& route_code(
      const msg::ControlPacket& p) noexcept {
    return p.detour_via != kInvalidNode ? p.detour_code : p.dest_code;
  }

  /// Length of this node's own on-path prefix match against the packet's
  /// route code, or 0 when off-path. Checks the current and (optionally)
  /// previous own code.
  [[nodiscard]] std::size_t own_match_len(const msg::ControlPacket& p) const;

  [[nodiscard]] std::optional<Candidate> pick_expected_relay(
      const msg::ControlPacket& p, std::size_t floor,
      std::vector<NodeId>* all = nullptr) const;

  [[nodiscard]] std::optional<Candidate> pick_for_route(
      const PathCode& route, std::size_t floor,
      std::vector<NodeId>* all) const;

  /// True when any known neighbor satisfies condition (3).
  [[nodiscard]] bool neighbor_can_progress(const msg::ControlPacket& p) const;

  void claim(NodeId from, const msg::ControlPacket& packet);
  void deliver(NodeId from, const msg::ControlPacket& packet, bool direct);
  void forward(std::uint32_t seqno);
  void on_forward_result(std::uint32_t seqno, const SendResult& result);
  void backtrack(std::uint32_t seqno, TraceReason reason);
  void send_feedback(std::uint32_t seqno, unsigned attempt);
  void defer_check(std::uint32_t seqno);

  PacketState& state_for(const msg::ControlPacket& packet);

  Simulator* sim_;
  TraceRouter* router_;
  LplMac* mac_;
  CtpNode* ctp_;
  Addressing* addressing_;
  ForwardingConfig config_;

  std::unordered_map<std::uint32_t, PacketState> states_;
  std::uint32_t next_seqno_ = 1;
  Stats stats_;
  ForwardingAuditor* auditor_ = nullptr;
};

}  // namespace telea
