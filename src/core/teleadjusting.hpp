#pragma once

#include <functional>
#include <optional>

#include "core/addressing.hpp"
#include "core/forwarding.hpp"
#include "core/group_control.hpp"
#include "mac/lpl.hpp"
#include "net/ctp.hpp"
#include "sim/simulator.hpp"

namespace telea {

/// A Re-Tele detour suggestion from the controller (Sec. III-C4): a neighbor
/// of the destination whose path code diverges maximally and whose link to
/// the destination is good.
struct DetourSuggestion {
  NodeId via = kInvalidNode;
  PathCode via_code;
};

struct TeleConfig {
  AddressingConfig addressing{};
  ForwardingConfig forwarding{};
};

/// The TeleAdjusting protocol: one instance per node, combining the path-code
/// addressing plane (Sec. III-B) with the opportunistic control-packet
/// forwarding plane (Sec. III-C), wired into CTP and the LPL MAC.
///
/// Usage (see examples/quickstart.cpp):
///  - construct over a node's Simulator / LplMac / CtpNode,
///  - call start() at boot,
///  - route TeleAdjusting frame types from the node's dispatcher into
///    handle_frame(),
///  - on the sink, call send_control() with the destination's path code
///    (reported upward in deployments; read from the addressing plane here).
class TeleAdjusting final : public CtpListener {
 public:
  /// `router` receives redirects, ack-path hops and forwarding decisions.
  TeleAdjusting(Simulator& sim, TraceRouter& router, LplMac& mac,
                CtpNode& ctp, const TeleConfig& config);

  TeleAdjusting(const TeleAdjusting&) = delete;
  TeleAdjusting& operator=(const TeleAdjusting&) = delete;

  /// Wires CTP hooks and starts the addressing plane. Call at node boot.
  void start();

  /// Wipes the whole protocol state (addressing tables, forwarding state,
  /// Re-Tele bookkeeping) — the RAM loss of a state-losing reboot. The node
  /// keeps running; call start() again to resume timers. Neighbors retain
  /// our *old* code, which is exactly the stale-code delivery case the
  /// paper's old-code matching exists for (Sec. III-B6).
  void reset_state();

  /// Dispatcher entry: handles TeleBeacon / PositionRequest / AllocationAck /
  /// ConfirmFrame / ControlPacket / FeedbackPacket frames, plus the
  /// detour-returned e2e acknowledgement (a CtpData unicast that is not part
  /// of normal collection). Returns the link-layer ack decision.
  AckDecision handle_frame(const Frame& frame, bool for_me);

  // --- controller / sink API -----------------------------------------------
  /// Sends a remote-control command to `dest`. Only meaningful on the sink.
  std::optional<std::uint32_t> send_control(NodeId dest,
                                            const PathCode& dest_code,
                                            std::uint16_t command);

  /// One-to-many control (the paper's Sec. I extension): one shared packet
  /// per common path segment, split at branch divergences. Destinations a
  /// branch cannot serve fall back to per-destination control packets,
  /// which then arrive through on_control_delivered instead of
  /// group_control().on_delivered.
  std::uint32_t send_control_group(const std::vector<msg::GroupDest>& dests,
                                   std::uint16_t command);

  using ControllerHook = std::function<std::optional<DetourSuggestion>(
      NodeId dest, std::uint32_t seqno)>;
  /// Supplies Re-Tele detours and so enables the destination-unreachable
  /// countermeasure ("Re-Tele" in the paper's plots); without a hook a stuck
  /// packet fails at once. The paper assumes the remote controller knows
  /// each node's local topology (Sec. III-C4); in the harness this is backed
  /// by the experiment's global view.
  void set_controller_hook(ControllerHook hook) {
    controller_hook_ = std::move(hook);
  }

  /// Sink-side: feed every CtpData delivered at the root through this to
  /// surface e2e control acknowledgements.
  void notify_root_delivery(const msg::CtpData& data);

  // --- callbacks (stats / applications) -------------------------------------
  /// At the destination: a control packet arrived (first copy only).
  std::function<void(const msg::ControlPacket&, bool direct)>
      on_control_delivered;
  /// At the sink: the destination's end-to-end acknowledgement arrived.
  std::function<void(std::uint32_t seqno, NodeId dest)> on_e2e_ack;
  /// At the sink: delivery failed even after the Re-Tele countermeasure (or
  /// without a controller hook, after backtracking exhausted).
  std::function<void(std::uint32_t seqno)> on_delivery_failed;

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] Addressing& addressing() noexcept { return addressing_; }
  [[nodiscard]] const Addressing& addressing() const noexcept {
    return addressing_;
  }
  [[nodiscard]] Forwarding& forwarding() noexcept { return forwarding_; }
  [[nodiscard]] GroupControl& group_control() noexcept { return group_; }

  // --- CtpListener -----------------------------------------------------------
  void on_route_found() override;
  void on_parent_changed(NodeId old_parent, NodeId new_parent) override;
  void on_beacon_heard(NodeId from, const msg::CtpBeacon& beacon) override;

 private:
  void send_e2e_ack(const msg::ControlPacket& packet, bool direct,
                    NodeId direct_from);
  void handle_origin_stuck(const msg::ControlPacket& packet);

  TraceRouter* router_;
  LplMac* mac_;
  CtpNode* ctp_;
  Addressing addressing_;
  Forwarding forwarding_;
  GroupControl group_;
  ControllerHook controller_hook_;
  // Track which seqnos already used their Re-Tele attempt so a second
  // failure reports up instead of looping.
  std::vector<std::uint32_t> detour_tried_;
  // Who hand-delivered the last direct (detour) control packet to us; the
  // e2e ack retraces that hop first (Sec. III-C5).
  NodeId last_direct_from_ = kInvalidNode;
};

}  // namespace telea
