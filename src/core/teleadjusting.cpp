#include "core/teleadjusting.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace telea {

TeleAdjusting::TeleAdjusting(Simulator& sim, TraceRouter& router, LplMac& mac,
                             CtpNode& ctp, const TeleConfig& config)
    : router_(&router),
      mac_(&mac),
      ctp_(&ctp),
      addressing_(sim, mac, ctp, config.addressing),
      forwarding_(sim, router, mac, ctp, addressing_, config.forwarding),
      group_(sim, mac, ctp, addressing_, forwarding_) {
  forwarding_.on_delivered = [this](const msg::ControlPacket& packet,
                                    bool direct) {
    if (on_control_delivered) on_control_delivered(packet, direct);
    send_e2e_ack(packet, direct, last_direct_from_);
  };
  forwarding_.on_origin_stuck = [this](const msg::ControlPacket& packet) {
    handle_origin_stuck(packet);
  };
}

void TeleAdjusting::start() {
  // The owning node stack routes CtpListener events here (it may fan them to
  // several protocols); we claim only the beacon piggyback slot ourselves.
  ctp_->set_piggyback(&addressing_);
  addressing_.start();
}

void TeleAdjusting::reset_state() {
  forwarding_.reset();
  addressing_.reset();
  detour_tried_.clear();
  last_direct_from_ = kInvalidNode;
}

void TeleAdjusting::on_route_found() { addressing_.on_route_found(); }

void TeleAdjusting::on_parent_changed(NodeId old_parent, NodeId new_parent) {
  addressing_.on_parent_changed(old_parent, new_parent);
}

void TeleAdjusting::on_beacon_heard(NodeId from, const msg::CtpBeacon& beacon) {
  addressing_.on_beacon_heard(from, beacon);
  forwarding_.on_beacon_heard(from);
}

std::optional<std::uint32_t> TeleAdjusting::send_control(
    NodeId dest, const PathCode& dest_code, std::uint16_t command) {
  return forwarding_.send_control(dest, dest_code, command);
}

std::uint32_t TeleAdjusting::send_control_group(
    const std::vector<msg::GroupDest>& dests, std::uint16_t command) {
  return group_.send_group(dests, command);
}

AckDecision TeleAdjusting::handle_frame(const Frame& frame, bool for_me) {
  const NodeId from = frame.src;
  return std::visit(
      [&](const auto& payload) -> AckDecision {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, msg::TeleBeacon>) {
          addressing_.handle_tele_beacon(from, payload);
          return AckDecision::kAccept;
        } else if constexpr (std::is_same_v<T, msg::PositionRequest>) {
          return addressing_.handle_position_request(from, for_me);
        } else if constexpr (std::is_same_v<T, msg::AllocationAck>) {
          return addressing_.handle_allocation_ack(from, frame.dst, payload,
                                                   for_me);
        } else if constexpr (std::is_same_v<T, msg::ConfirmFrame>) {
          return addressing_.handle_confirm(from, payload, for_me);
        } else if constexpr (std::is_same_v<T, msg::ControlPacket>) {
          if (payload.mode == msg::ControlMode::kDirect &&
              payload.dest == mac_->id()) {
            last_direct_from_ = from;
          }
          return forwarding_.handle_control(from, payload, for_me);
        } else if constexpr (std::is_same_v<T, msg::FeedbackPacket>) {
          return forwarding_.handle_feedback(from, payload, for_me);
        } else if constexpr (std::is_same_v<T, msg::GroupControlPacket>) {
          return group_.handle(from, payload, for_me);
        } else if constexpr (std::is_same_v<T, msg::CtpData>) {
          // Detour-returned e2e acknowledgement (Sec. III-C5): a data frame
          // unicast to us outside normal collection. Inject it into our own
          // CTP plane so it rides upward to the sink from here.
          return ctp_->handle_data(from, payload, for_me);
        } else {
          return for_me ? AckDecision::kAccept : AckDecision::kIgnore;
        }
      },
      frame.payload);
}

void TeleAdjusting::send_e2e_ack(const msg::ControlPacket& packet, bool direct,
                                 NodeId direct_from) {
  msg::CtpData ack;
  ack.is_control_ack = true;
  ack.control_seqno = packet.seqno;

  if (!direct || direct_from == kInvalidNode) {
    // Received along the encoded path: acknowledge upward through our own
    // parent, as ordinary collection traffic.
    ctp_->send_to_sink(ack);
    return;
  }
  // Received by direct unicast from a detour neighbor: our own upward path
  // is suspect, so hand the ack back to the neighbor, which forwards it to
  // the sink along *its* path (Sec. III-C5).
  ack.origin = mac_->id();
  ack.origin_seqno = ctp_->allocate_origin_seqno();
  router_->record(mac_->id(), TraceEvent::kAckPath, packet.seqno,
                  direct_from);
  Frame frame;
  frame.dst = direct_from;
  frame.payload = ack;
  mac_->send(std::move(frame), nullptr);
}

void TeleAdjusting::notify_root_delivery(const msg::CtpData& data) {
  if (!data.is_control_ack) return;
  router_->record(mac_->id(), TraceEvent::kAckPath, data.control_seqno,
                  data.origin);
  if (on_e2e_ack) on_e2e_ack(data.control_seqno, data.origin);
}

void TeleAdjusting::handle_origin_stuck(const msg::ControlPacket& packet) {
  const bool tried =
      std::find(detour_tried_.begin(), detour_tried_.end(), packet.seqno) !=
      detour_tried_.end();
  if (controller_hook_ && !tried) {
    if (auto detour = controller_hook_(packet.dest, packet.seqno);
        detour.has_value() && detour->via != kInvalidNode) {
      detour_tried_.push_back(packet.seqno);
      router_->record(mac_->id(), TraceEvent::kRedirect, packet.seqno,
                      detour->via, TraceReason::kNeighborUnreachable);
      forwarding_.send_control_detour(packet.dest, packet.dest_code,
                                      detour->via, detour->via_code,
                                      packet.command, packet.seqno);
      return;
    }
  }
  if (on_delivery_failed) on_delivery_failed(packet.seqno);
}

}  // namespace telea
