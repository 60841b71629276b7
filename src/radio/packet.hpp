#pragma once

#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/bitstring.hpp"
#include "util/bloom.hpp"
#include "util/ids.hpp"

namespace telea {

/// 802.15.4 frame budget. The MPDU caps a frame at 127 bytes; the MAC
/// header (FCF + seq + addressing) and FCS footer leave 114 bytes of
/// payload for any single frame. Protocols that batch variable-length
/// content (allocation tables, group-control destination lists) must chunk
/// against kMaxPayloadBytes (a static_assert pins the allocation-table
/// chunk in core/addressing.cpp); WireSizeProperty.AllFramesFitTheMpdu
/// checks real frame sizes against kMaxMpduBytes.
inline constexpr std::size_t kMacHeaderBytes = 11;
inline constexpr std::size_t kMacFooterBytes = 2;
inline constexpr std::size_t kMaxMpduBytes = 127;
inline constexpr std::size_t kMaxPayloadBytes =
    kMaxMpduBytes - kMacHeaderBytes - kMacFooterBytes;

/// Wire formats for every protocol in the stack. These are pure data — the
/// protocol logic lives in src/net (CTP, Trickle), src/core (TeleAdjusting)
/// and src/proto (Drip, RPL). Keeping them together gives the radio medium a
/// single Frame type to carry and lets `wire_size_bytes` account airtime for
/// all of them consistently.
namespace msg {

/// CTP routing beacon (broadcast). Carries the TinyOS CTP routing frame plus
/// the TeleAdjusting piggyback the paper attaches to routing beacons: the
/// child's currently-claimed position under its parent, used for position
/// maintenance (Sec. III-B5) and allocation confirmation.
struct CtpBeacon {
  NodeId parent = kInvalidNode;
  std::uint16_t etx = 0xFFFF;  // path ETX to the sink, in 1/10 units
  std::uint8_t hops = 0xFF;    // hop distance to the sink
  std::uint8_t seqno = 0;
  bool pull = false;  // CTP "P" bit: request immediate beacons from neighbors

  // --- TeleAdjusting piggyback ---
  bool has_position_claim = false;
  std::uint32_t claimed_position = 0;  // position under `parent`
  std::uint8_t claimed_code_len = 0;   // valid bits of this node's path code
};

/// Compact in-band node health report, piggybacked on upward CTP traffic
/// (data and e2e acks) so the sink can maintain a staleness-aware picture of
/// the network without any dedicated telemetry packets. Exactly 8 bytes on
/// the wire (kHealthReportBytes); every field is pre-quantized to its wire
/// width so the struct *is* the wire format. See docs/OBSERVABILITY.md for
/// the byte layout and quantization rules.
struct HealthReport {
  std::uint8_t seqno = 0;         // wraps; freshest-wins via signed u8 delta
  std::uint8_t duty_permille = 0; // radio duty cycle, 0.1% units, sat. 25.5%
  std::uint8_t etx10 = 0xFF;      // link ETX to CTP parent, 1/10 units, sat.
  std::uint8_t code_len = 0;      // valid bits of this node's path code
  std::uint8_t queue_hwm = 0;     // hi nibble: MAC TX queue high-water mark,
                                  // lo nibble: CTP forward queue, each sat. 15
  std::uint8_t parent_epoch = 0;  // parent-change count mod 256
  std::uint16_t energy_mj = 0;    // estimated energy spent, mJ, saturating
};

/// Wire size of one piggybacked HealthReport.
inline constexpr std::size_t kHealthReportBytes = 8;
static_assert(sizeof(HealthReport) == kHealthReportBytes,
              "HealthReport is its own wire format: fields must sum to "
              "kHealthReportBytes");
static_assert(std::has_unique_object_representations_v<HealthReport>,
              "HealthReport must have no padding bytes");

/// CTP data frame (unicast, hop-by-hop to the current parent). Also carries
/// TeleAdjusting end-to-end acknowledgements, which the paper transmits "as a
/// data packet" (Sec. III-C5).
struct CtpData {
  NodeId origin = kInvalidNode;
  std::uint8_t origin_seqno = 0;
  std::uint8_t thl = 0;        // time-has-lived (hop counter)
  std::uint16_t etx = 0xFFFF;  // sender's path ETX, for datapath validation
  bool is_control_ack = false;  // TeleAdjusting e2e ack riding the data plane
  std::uint32_t control_seqno = 0;  // which control packet is acknowledged
  // --- in-band code report (Sec. III-A: "such code will be reported to the
  // remote controller") — piggybacked on collection traffic when enabled.
  bool has_code_report = false;
  BitString reported_code;
  // --- in-band health telemetry — piggybacked by the origin only (never
  // attached or rewritten on forwarding hops), rate-limited per node.
  bool has_health = false;
  HealthReport health;
};

/// One child-table entry carried in a TeleAdjusting beacon: the deterministic
/// position allocation broadcast of Algorithm 1 / Table I.
struct AllocationEntry {
  NodeId child = kInvalidNode;
  std::uint32_t position = 0;
  bool confirmed = false;
};

/// TeleAdjusting beacon (broadcast): a parent publishes its own path code,
/// the size of the bit space it provides for children, and the full
/// <child, position, flag> allocation table (Algorithm 1, line 10).
struct TeleBeacon {
  BitString parent_code;             // the sender's (parent's) valid path code
  std::uint8_t space_bits = 0;       // π: bits provided for child positions
  bool space_extended = false;       // notification of a space extension
  std::vector<AllocationEntry> entries;
};

/// Position request (unicast child → parent, Sec. III-B4): sent when a node
/// was never allocated a position or missed its parent's TeleAdjusting beacon.
struct PositionRequest {
  std::uint8_t dummy = 0;
};

/// Allocation acknowledgement (unicast parent → child, Sec. III-B4): the
/// parent answers a position request or repairs an inconsistent claim.
struct AllocationAck {
  std::uint32_t position = 0;
  std::uint8_t space_bits = 0;
  BitString parent_code;
};

/// Confirmation frame (unicast child → parent, Algorithm 3 lines 4/6):
/// confirms receipt of an allocated position.
struct ConfirmFrame {
  std::uint32_t position = 0;
};

/// How a TeleAdjusting control packet is being moved on this hop.
enum class ControlMode : std::uint8_t {
  kOpportunistic,  // link-layer anycast along the encoded path (Sec. III-C1/2)
  kDirect,         // deterministic unicast (Re-Tele detour final hop, III-C4)
};

/// The remote-control packet itself (Sec. III-C). Overhearing nodes decide
/// whether to relay by prefix-matching `dest_code` against their own code and
/// comparing progress with (`expected_relay`, `expected_relay_code_len`).
struct ControlPacket {
  NodeId dest = kInvalidNode;
  BitString dest_code;
  NodeId expected_relay = kInvalidNode;
  std::uint8_t expected_relay_code_len = 0;
  std::uint32_t seqno = 0;        // sink-assigned, identifies the command
  std::uint16_t command = 0;      // opaque control parameter block id
  ControlMode mode = ControlMode::kOpportunistic;
  // Re-Tele detour (Sec. III-C4): when set, the packet is first routed to
  // `detour_via` (a neighbor of the destination) which then delivers directly.
  NodeId detour_via = kInvalidNode;
  BitString detour_code;
  std::uint8_t hops_so_far = 0;   // accumulated transmission hops (for Fig. 8)
};

/// Backtracking feedback (Sec. III-C3): a relay that cannot make downward
/// progress returns the control packet to its upstream relay.
struct FeedbackPacket {
  ControlPacket packet;
  NodeId unreachable_via = kInvalidNode;  // the neighbor that proved dead
};

/// One destination of a group (one-to-many) control packet.
struct GroupDest {
  NodeId dest = kInvalidNode;
  BitString code;
};

/// One-to-many control packet — the extension the paper claims TeleAdjusting
/// "can be easily extended to" (Sec. I). A single packet carries every
/// destination whose encoded path still shares the current segment; relays
/// split it into per-branch sub-packets where the paths diverge, so shared
/// segments are paid for once. Claiming/anycast semantics follow the lead
/// destination (`dests[0]`).
struct GroupControlPacket {
  std::vector<GroupDest> dests;
  NodeId expected_relay = kInvalidNode;
  std::uint8_t expected_relay_code_len = 0;
  std::uint32_t group_seqno = 0;
  std::uint16_t command = 0;
  std::uint8_t hops_so_far = 0;
};

/// Drip dissemination message (broadcast, Trickle-paced). `key`/`version`
/// implement the standard Drip consistency model; the control payload is the
/// same command a TeleAdjusting ControlPacket would carry, addressed to
/// `dest` (every node rebroadcasts, only `dest` consumes).
struct DripMsg {
  std::uint16_t key = 0;
  std::uint32_t version = 0;
  NodeId dest = kInvalidNode;
  std::uint16_t command = 0;
  std::uint8_t hops_so_far = 0;
};

/// RPL DAO, storing mode (the paper's baseline): unicast child → preferred
/// parent, advertising the sender plus every destination in the sender's
/// downward table so ancestors install routes.
struct RplDao {
  std::uint8_t dao_seqno = 0;
  std::vector<NodeId> targets;
};

/// ORPL sub-DODAG announcement (broadcast): the sender's Bloom filter over
/// itself plus all its descendants, with the sender's routing cost so
/// receivers know the direction (Duquennoy et al., SenSys'13 — the
/// related-work baseline the paper critiques for bloom false positives).
struct OrplAnnounce {
  OrplBloom members;
  std::uint16_t etx10 = 0xFFFF;  // the sender's upward routing cost
  std::uint8_t seqno = 0;
};

/// ORPL downward data packet: link-layer anycast; any deeper neighbor whose
/// member filter contains the destination claims it.
struct OrplData {
  NodeId dest = kInvalidNode;
  std::uint32_t seqno = 0;
  std::uint16_t command = 0;
  std::uint16_t sender_etx10 = 0xFFFF;  // claimants must be deeper than this
  std::uint8_t hops_so_far = 0;
};

/// RPL downward data packet: unicast hop-by-hop via stored routes.
struct RplData {
  NodeId dest = kInvalidNode;
  std::uint32_t seqno = 0;
  std::uint16_t command = 0;
  std::uint8_t hops_so_far = 0;
};

using Payload = std::variant<CtpBeacon, CtpData, TeleBeacon, PositionRequest,
                             AllocationAck, ConfirmFrame, ControlPacket,
                             FeedbackPacket, GroupControlPacket, DripMsg,
                             RplDao, RplData, OrplAnnounce, OrplData>;

}  // namespace msg

/// A link-layer frame: source, link destination (kBroadcastNode for
/// broadcast / anycast), and one protocol payload.
struct Frame {
  NodeId src = kInvalidNode;
  NodeId dst = kBroadcastNode;
  /// Per-send-operation sequence number stamped by the sending MAC. All LPL
  /// copies of one logical frame share it, so receivers can suppress
  /// duplicates while still re-acknowledging them.
  std::uint32_t link_seq = 0;
  msg::Payload payload;

  [[nodiscard]] bool is_broadcast() const noexcept {
    return dst == kBroadcastNode;
  }
};

/// Serialized size of a frame in bytes, used for airtime and PRR-vs-length.
/// Counts the 802.15.4 MPDU (11-byte header + payload + 2-byte FCS); the
/// PHY adds its synchronization header separately.
[[nodiscard]] std::size_t wire_size_bytes(const Frame& frame) noexcept;

}  // namespace telea
