#include "radio/packet.hpp"

namespace telea {

namespace {

// Bytes needed to carry `bits` valid bits plus a length octet.
std::size_t code_bytes(const BitString& code) noexcept {
  return 1 + (code.size() + 7) / 8;
}

struct PayloadSize {
  std::size_t operator()(const msg::CtpBeacon& b) const noexcept {
    // parent(2) + etx(2) + seqno(1) + options(1) [+ claim: pos(2)+len(1)]
    return 6 + (b.has_position_claim ? 3u : 0u);
  }
  std::size_t operator()(const msg::CtpData& d) const noexcept {
    // origin(2)+seqno(1)+thl(1)+etx(2)+flags(1) + ack seqno when carried
    // + the piggybacked code report when present
    return 7 + (d.is_control_ack ? 4u : 0u) +
           (d.has_code_report ? code_bytes(d.reported_code) : 0u) +
           (d.has_health ? msg::kHealthReportBytes : 0u);
  }
  std::size_t operator()(const msg::TeleBeacon& b) const noexcept {
    // code + space(1) + flags(1) + entries: child(2)+position(2)+flag packed
    return code_bytes(b.parent_code) + 2 + b.entries.size() * 5;
  }
  std::size_t operator()(const msg::PositionRequest&) const noexcept {
    return 1;
  }
  std::size_t operator()(const msg::AllocationAck& a) const noexcept {
    return 3 + code_bytes(a.parent_code);  // position(2)+space(1)+code
  }
  std::size_t operator()(const msg::ConfirmFrame&) const noexcept {
    return 2;  // position
  }
  std::size_t operator()(const msg::ControlPacket& c) const noexcept {
    // dest(2)+code + relay(2)+len(1) + seqno(4)+command(2)+mode/hops(2)
    std::size_t n = 13 + code_bytes(c.dest_code);
    if (c.detour_via != kInvalidNode) n += 2 + code_bytes(c.detour_code);
    return n;
  }
  std::size_t operator()(const msg::FeedbackPacket& f) const noexcept {
    return 2 + (*this)(f.packet);
  }
  std::size_t operator()(const msg::GroupControlPacket& g) const noexcept {
    // relay(2)+len(1)+seqno(4)+command(2)+hops(1)+count(1) + per-dest entry
    std::size_t n = 11;
    for (const auto& d : g.dests) n += 2 + code_bytes(d.code);
    return n;
  }
  std::size_t operator()(const msg::DripMsg&) const noexcept {
    return 11;  // key(2)+version(4)+dest(2)+command(2)+hops(1)
  }
  std::size_t operator()(const msg::RplDao& d) const noexcept {
    return 1 + d.targets.size() * 2;  // seqno(1) + 2 per target
  }
  std::size_t operator()(const msg::RplData&) const noexcept {
    return 9;  // dest(2)+seqno(4)+command(2)+hops(1)
  }
  std::size_t operator()(const msg::OrplAnnounce&) const noexcept {
    return OrplBloom::bits() / 8 + 3;  // filter + etx(2) + seqno(1)
  }
  std::size_t operator()(const msg::OrplData&) const noexcept {
    return 11;  // dest(2)+seqno(4)+command(2)+etx(2)+hops(1)
  }
};

}  // namespace

std::size_t wire_size_bytes(const Frame& frame) noexcept {
  return kMacHeaderBytes + std::visit(PayloadSize{}, frame.payload) +
         kMacFooterBytes;
}

}  // namespace telea
