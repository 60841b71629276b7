#include "core/group_control.hpp"

#include "util/field.hpp"

#include <algorithm>
#include <map>

#include "util/logging.hpp"

namespace telea {

namespace {
/// Anycast send operations per sub-packet before falling back to
/// per-destination unicast control via the ordinary forwarding plane.
constexpr unsigned kRetries = 2;
}  // namespace

GroupControl::GroupControl(Simulator& sim, LplMac& mac, CtpNode& ctp,
                           Addressing& addressing, Forwarding& forwarding)
    : sim_(&sim),
      mac_(&mac),
      ctp_(&ctp),
      addressing_(&addressing),
      forwarding_(&forwarding) {}

std::uint32_t GroupControl::send_group(const std::vector<msg::GroupDest>& dests,
                                       std::uint16_t command) {
  const std::uint32_t group = next_group_seqno_++;
  ++stats_.groups_sent;
  std::vector<msg::GroupDest> live;
  for (const auto& d : dests) {
    if (!d.code.empty()) live.push_back(d);
  }
  dispatch(group, command, /*hops=*/0, std::move(live));
  return group;
}

AckDecision GroupControl::handle(NodeId from, const msg::GroupControlPacket& packet,
                                 bool for_me) {
  (void)for_me;  // group packets are always anycast
  (void)from;
  if (packet.dests.empty()) return AckDecision::kIgnore;
  GroupState& st = groups_[packet.group_seqno];

  // Is there anything in this sub-packet we have not already handled here?
  const bool lists_me = std::any_of(
      packet.dests.begin(), packet.dests.end(),
      [this](const msg::GroupDest& d) { return d.dest == mac_->id(); });
  std::vector<msg::GroupDest> fresh;
  for (const auto& d : packet.dests) {
    if (!st.processed_dests.contains(d.dest)) fresh.push_back(d);
  }
  if (fresh.empty()) {
    // Everything in this sub-packet was already handled here. Do NOT ack:
    // literal retransmissions are re-acked by the MAC's copy filter, so this
    // is a *different* operation (e.g. a downstream branch flowing past us)
    // — claiming it would strand the branch with a node that won't forward.
    return AckDecision::kIgnore;
  }

  // Claim conditions, evaluated against the lead destination (the group
  // analogue of Sec. III-C): expected relay, on-path improvement, or local
  // membership.
  const PathCode& lead = fresh.front().code;
  const std::size_t mine = forwarding_->own_match_toward(lead);
  const bool claim = lists_me || packet.expected_relay == mac_->id() ||
                     mine > packet.expected_relay_code_len;
  if (!claim) return AckDecision::kIgnore;

  ++stats_.claims;
  for (const auto& d : fresh) st.processed_dests.insert(d.dest);
  const auto hops = field::u8(packet.hops_so_far + 1);
  const std::uint32_t group = packet.group_seqno;
  const std::uint16_t command = packet.command;
  // Defer like the unicast plane: stay receptive while the upstream sender
  // finishes.
  sim_->schedule_in(
      kClaimDefer,
      [this, group, command, hops, dests = std::move(fresh)] {
        dispatch(group, command, hops, dests);
      },
      "group.defer");
  return AckDecision::kAcceptAndAck;
}

void GroupControl::dispatch(std::uint32_t group_seqno, std::uint16_t command,
                            std::uint8_t hops,
                            std::vector<msg::GroupDest> dests) {
  GroupState& st = groups_[group_seqno];

  // Local delivery.
  std::erase_if(dests, [&](const msg::GroupDest& d) {
    if (d.dest != mac_->id()) return false;
    if (!st.delivered_here) {
      st.delivered_here = true;
      ++stats_.deliveries;
      if (on_delivered) on_delivered(command, group_seqno);
    }
    return true;
  });
  if (dests.empty()) return;

  // Partition the remaining destinations by their next expected relay: one
  // sub-packet per divergent branch, unicast fallback for orphans.
  std::map<NodeId, std::pair<Forwarding::Candidate, std::vector<msg::GroupDest>>>
      branches;
  std::vector<msg::GroupDest> orphans;
  for (const auto& d : dests) {
    const std::size_t floor = forwarding_->own_match_toward(d.code);
    const auto relay = forwarding_->pick_relay(d.code, floor);
    if (!relay.has_value()) {
      orphans.push_back(d);
      continue;
    }
    auto& slot = branches[relay->id];
    slot.first = *relay;
    slot.second.push_back(d);
  }
  if (branches.size() > 1) ++stats_.splits;

  for (auto& [relay_id, branch] : branches) {
    send_branch(group_seqno, command, hops, branch.first,
                std::move(branch.second), /*attempt=*/0);
  }
  if (!orphans.empty()) fallback_unicast(orphans, command);
}

void GroupControl::send_branch(std::uint32_t group_seqno, std::uint16_t command,
                               std::uint8_t hops,
                               const Forwarding::Candidate& relay,
                               std::vector<msg::GroupDest> dests,
                               unsigned attempt) {
  // Chunk branches that would exceed the 802.15.4 MPDU (greedy fill; the
  // tail recurses as its own sub-packet).
  {
    msg::GroupControlPacket probe;
    probe.dests = dests;
    Frame sizing;
    sizing.payload = probe;
    while (dests.size() > 1 && wire_size_bytes(sizing) > kMaxMpduBytes) {
      std::vector<msg::GroupDest> tail;
      tail.push_back(std::move(dests.back()));
      dests.pop_back();
      // Move one destination out at a time; send the single-dest tail as
      // its own branch (it shares the same expected relay).
      send_branch(group_seqno, command, hops, relay, std::move(tail),
                  attempt);
      probe.dests = dests;
      sizing.payload = probe;
    }
  }

  msg::GroupControlPacket packet;
  packet.dests = dests;
  packet.expected_relay = relay.id;
  packet.expected_relay_code_len =
      field::u8(std::min<std::size_t>(relay.code_len, 0xFF));
  packet.group_seqno = group_seqno;
  packet.command = command;
  packet.hops_so_far = hops;

  Frame frame;
  frame.dst = kBroadcastNode;  // anycast
  frame.payload = packet;
  ++stats_.subpackets_sent;
  const bool queued = mac_->send(
      std::move(frame),
      [this, group_seqno, command, hops, relay, dests,
       attempt](const SendResult& result) {
        if (result.success) return;
        if (attempt + 1 < kRetries) {
          send_branch(group_seqno, command, hops, relay, dests, attempt + 1);
          return;
        }
        // The branch is unreachable as a group: hand each destination to
        // the (backtracking, Re-Tele-capable) unicast plane.
        fallback_unicast(dests, command);
      });
  if (!queued) {
    sim_->schedule_in(
        kSecond,
        [this, group_seqno, command, hops, relay, dests, attempt] {
          send_branch(group_seqno, command, hops, relay, dests, attempt);
        },
        "group.retry");
  }
}

void GroupControl::fallback_unicast(const std::vector<msg::GroupDest>& dests,
                                    std::uint16_t command) {
  for (const auto& d : dests) {
    ++stats_.unicast_fallbacks;
    forwarding_->send_control(d.dest, d.code, command);
  }
}

}  // namespace telea
