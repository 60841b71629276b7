#include "proto/drip.hpp"

#include "util/field.hpp"

namespace telea {

namespace {
constexpr TrickleTimer::Config kTrickle{
    /*i_min=*/128 * kMillisecond,
    /*i_max=*/64 * kSecond,
    /*k=*/1};
}  // namespace

DripNode::DripNode(Simulator& sim, LplMac& mac, std::uint64_t seed)
    : sim_(&sim), mac_(&mac), trickle_(sim, kTrickle, seed ^ 0xD419ULL) {
  trickle_.set_callback([this] { broadcast_value(); });
}

void DripNode::start() { trickle_.start(); }

std::uint32_t DripNode::disseminate(NodeId dest, std::uint16_t command) {
  value_.key = 1;
  ++value_.version;
  value_.dest = dest;
  value_.command = command;
  value_.hops_so_far = 0;
  trickle_.reset();
  broadcast_value();
  return value_.version;
}

void DripNode::broadcast_value() {
  if (value_.version == 0) return;  // nothing to advertise yet
  if (broadcasting_) {
    // An LPL broadcast op is already in flight; remember to go again with
    // the (possibly newer) value once it completes.
    rebroadcast_queued_ = true;
    return;
  }
  broadcasting_ = true;
  Frame frame;
  frame.dst = kBroadcastNode;
  msg::DripMsg out = value_;
  out.hops_so_far = field::u8(value_.hops_so_far + 1);
  frame.payload = out;
  mac_->send(std::move(frame), [this](const SendResult&) {
    broadcasting_ = false;
    if (rebroadcast_queued_) {
      rebroadcast_queued_ = false;
      broadcast_value();
    }
  });
}

AckDecision DripNode::handle_msg(NodeId from, const msg::DripMsg& msg) {
  (void)from;
  if (msg.version > value_.version) {
    // Newer value: adopt, deliver if addressed to us, and propagate fast
    // (inconsistency resets Trickle to Imin; the reset timer transmits —
    // an additional immediate broadcast here would double the flood cost).
    value_ = msg;
    trickle_.hear_inconsistent();
    if (on_adopted) on_adopted(msg);
    if (msg.dest == mac_->id() && on_delivered) on_delivered(msg);
  } else if (msg.version < value_.version) {
    // The sender is behind: reset so we re-advertise promptly.
    trickle_.hear_inconsistent();
  } else {
    trickle_.hear_consistent();
  }
  return AckDecision::kAccept;
}

}  // namespace telea
