#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/text_file.hpp"

namespace telea {

class JsonValue;
class Simulator;

/// Structured event kinds a deployment would log over serial — the
/// simulator-side equivalent of the paper's testbed instrumentation
/// (Sec. IV-B1: "each node records ... and periodically sends these
/// counters to the controller through serial port").
///
/// For the control-plane decision events (kForwardDecision and below) the
/// operand convention is uniform: `a` is always the control packet seqno so
/// one filter reconstructs a packet's full trajectory; `b` is the peer node
/// the decision concerns (expected relay, suppressing transmitter, backtrack
/// target, detour relay, or ack next-hop).
enum class TraceEvent : std::uint8_t {
  kControlTx,        // a = control seqno, b = expected relay
  kParentChange,     // a = old parent, b = new parent
  kCodeChange,       // a = new code length
  kKill,
  kRevive,
  kForwardDecision,  // node claims the forwarding task; reason = which claim
                     // condition fired; b = expected relay it advertises
  kSuppress,         // node abandons a pending/active relay; b = transmitter
                     // that made it redundant (0 when giving up on its own)
  kBacktrack,        // node hands the task back upstream; b = upstream node
  kRedirect,         // Re-Tele detour around a dead region; b = detour relay
  kAckPath,          // delivery ack hop toward the controller; b = next hop
  kCommandRetry,     // controller re-sends an unacked command; b = destination
  kCommandResolve,   // controller closes a command's lifecycle; b = destination
  kLinkFault,        // injected link perturbation; a = |extra loss| in dB,
                     // b = the other endpoint (node = this endpoint)
  kNoiseBurst,       // injected channel noise at this node; a = |dBm| level
  kReboot,           // node rebooted with all protocol state wiped
  kInvariantViolation,  // protocol invariant broke at this node; a = rule id
                        // (InvariantRule), b = the peer/seqno the rule names
  kControlTxDone,    // sender's LPL sweep for a control frame ended with an
                     // ack; a = seqno, b = the acking node. The gap between
                     // the first kControlTx copy and this marks LPL wakeup
                     // wait + retransmission airtime at this hop.
  kControlDelivered,  // control packet consumed at its destination;
                      // a = seqno, b = the node it arrived from (0 when the
                      // destination was the origin itself). Closes the
                      // command span in the span engine.
  kFlightDump,       // a node's flight-recorder ring was dumped; a = events
                     // in the dump, b = the dump's index in Network storage
  kAlertFired,       // a timeline alert rule's condition held for its full
                     // `for` window; a = rule index in the loaded rule set,
                     // b = the node the rule's series labels (0 = network-wide)
  kAlertResolved,    // a previously fired alert's condition went false;
                     // a = rule index, b = same node convention as kAlertFired
  kAckTimeout,       // a forwarding send sweep drew no ack; a = seqno,
                     // b = the intended next hop
  kGiveUp,           // the origin spent its retry budget on a control packet;
                     // a = seqno, b = origin retries taken
};

/// Why a decision event fired. kNone for events that carry no reason.
enum class TraceReason : std::uint8_t {
  kNone,
  kExpectedRelay,        // claim condition 1: named as the expected relay
  kLongerPrefix,         // claim condition 2: own code extends the target code
  kNeighborPrefix,       // claim condition 3: a neighbor's code can progress
  kRetryExhausted,       // gave up after the retransmission budget
  kNeighborUnreachable,  // no live candidate neighbor to hand the task to
  kAckTimeout,           // controller: no e2e ack within the timeout window
  kEscalated,            // controller: retry went through the Re-Tele detour
  kBudgetExhausted,      // controller: retry budget spent, command abandoned
};

[[nodiscard]] const char* trace_event_name(TraceEvent e) noexcept;
[[nodiscard]] const char* trace_reason_name(TraceReason r) noexcept;
/// Reverse lookups for re-loading exported traces; nullopt on unknown names.
[[nodiscard]] std::optional<TraceEvent> trace_event_from_name(
    std::string_view name) noexcept;
[[nodiscard]] std::optional<TraceReason> trace_reason_from_name(
    std::string_view name) noexcept;

struct TraceRecord {
  SimTime time = 0;
  NodeId node = kInvalidNode;
  TraceEvent event{};
  TraceReason reason = TraceReason::kNone;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Where a TraceRouter keeps an event: the network trace, the recording
/// node's flight ring, or both.
enum class TraceSink : std::uint8_t { kTrace, kRing, kBoth };

/// The routing table, one entry per TraceEvent (the "kept in" column of
/// docs/OBSERVABILITY.md's event table).
[[nodiscard]] TraceSink trace_event_sink(TraceEvent e) noexcept;

/// Bounded in-memory event trace with JSONL export and simple analysis.
/// Recording is cheap (append to a preallocated ring); when the capacity is
/// exceeded the oldest records are dropped and `dropped()` counts them.
///
/// The same class is each node's flight-recorder ring (TraceRouter): a
/// small Tracer that only that node's records enter.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 16);

  void record(SimTime time, NodeId node, TraceEvent event, std::uint64_t a = 0,
              std::uint64_t b = 0, TraceReason reason = TraceReason::kNone);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Records in chronological order (oldest retained first).
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  /// Records of one event type, chronological.
  [[nodiscard]] std::vector<TraceRecord> by_event(TraceEvent event) const;

  /// Number of records of one event type (cheaper than by_event).
  [[nodiscard]] std::size_t count(TraceEvent event) const;

  /// Human-readable reconstruction of one control packet's trajectory
  /// (relays, suppressions, backtracks, redirects, ack path) with reasons.
  [[nodiscard]] std::string explain(std::uint32_t seqno) const;

  /// JSONL export: one {"t","node","event","a","b","reason"} object per line.
  [[nodiscard]] std::string render_jsonl() const;
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

  void clear();

 private:
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  // next write slot
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Appends one record as a {"t","node","event","a","b","reason"} JSON
/// object (no newline): the line format of render_jsonl and the element
/// format of a flight dump's "events" array.
void append_trace_record_json(std::string& out, const TraceRecord& r);

/// Reads one record back from a JSON object written by
/// append_trace_record_json; nullopt when it is not a trace object.
[[nodiscard]] std::optional<TraceRecord> trace_record_from_json(
    const JsonValue& doc);

/// Parses records back from JSONL text (as produced by render_jsonl). Lines
/// that are not valid trace objects are skipped; the count of skipped lines
/// is reported through `skipped` when non-null.
[[nodiscard]] std::vector<TraceRecord> parse_trace_jsonl(
    std::string_view text, std::size_t* skipped = nullptr);

/// Loads a JSONL trace file; nullopt when the file cannot be read.
[[nodiscard]] std::optional<std::vector<TraceRecord>> load_trace_jsonl(
    const std::string& path, std::size_t* skipped = nullptr);

/// One dumped flight ring with its trigger context — produced when an
/// invariant fires, a command is given up on, a node reboots, or a timeline
/// alert rule fires against a series this node labels.
struct FlightDump {
  SimTime time = 0;           // when the dump was taken
  NodeId node = kInvalidNode;
  std::string trigger;        // "invariant:<rule>" | "command_give_up" |
                              // "reboot" | "alert:<rule>"
  std::uint64_t dropped = 0;  // records the ring had already evicted
  std::vector<TraceRecord> events;
};

/// One JSONL line per dump: {"t","node","trigger","dropped","events"}, each
/// event written by append_trace_record_json (tools/telea_top flightrec=).
[[nodiscard]] std::string render_flight_dump_json(const FlightDump& dump);

/// One per Network: the single place an event is recorded. Every layer
/// calls record() once per event; trace_event_sink decides whether the
/// network trace, the node's flight ring, or both keep it. Both start off,
/// so until one is turned on a record costs one predictable branch.
class TraceRouter {
 public:
  static constexpr std::size_t kRingCapacity = 128;

  explicit TraceRouter(const Simulator& sim) noexcept : sim_(&sim) {}
  TraceRouter(const TraceRouter&) = delete;
  TraceRouter& operator=(const TraceRouter&) = delete;

  /// Records `event` at `node`, stamped with the simulator's time.
  void record(NodeId node, TraceEvent event, std::uint64_t a = 0,
              std::uint64_t b = 0, TraceReason reason = TraceReason::kNone) {
    if (on_) route(node, event, a, b, reason);
  }

  /// Turns the network trace on with a ring of `capacity` records.
  /// Idempotent: a second call returns the existing trace.
  Tracer& enable_trace(std::size_t capacity);
  [[nodiscard]] Tracer* trace() noexcept { return trace_.get(); }
  [[nodiscard]] const Tracer* trace() const noexcept { return trace_.get(); }

  /// Arms a flight ring of kRingCapacity records for each of `nodes` nodes,
  /// and streams every dump to `jsonl` when it is non-empty. Idempotent.
  /// False when the stream cannot be opened (the rings are armed anyway).
  bool arm_rings(std::size_t nodes, const std::string& jsonl);
  [[nodiscard]] bool rings_armed() const noexcept { return !rings_.empty(); }
  /// `node`'s ring; nullptr while unarmed or for a node outside the network.
  [[nodiscard]] const Tracer* ring(NodeId node) const noexcept {
    return node < rings_.size() ? &rings_[node] : nullptr;
  }
  /// Records ever entered into the rings, evicted ones included.
  [[nodiscard]] std::uint64_t ring_records() const noexcept;

  /// Snapshots `node`'s ring into a FlightDump tagged with `trigger`, and
  /// records a kFlightDump event. Does nothing while the rings are unarmed
  /// or for a node outside the network.
  void dump(NodeId node, std::string trigger);
  /// The newest dumps, bounded.
  [[nodiscard]] const std::vector<FlightDump>& dumps() const noexcept {
    return dumps_;
  }
  [[nodiscard]] std::uint64_t dumps_taken() const noexcept {
    return dumps_taken_;
  }

 private:
  void route(NodeId node, TraceEvent event, std::uint64_t a, std::uint64_t b,
             TraceReason reason);

  const Simulator* sim_;
  bool on_ = false;  // the trace or the rings are on
  std::unique_ptr<Tracer> trace_;
  std::vector<Tracer> rings_;  // one per node, empty until armed
  std::vector<FlightDump> dumps_;  // bounded, newest kept
  std::uint64_t dumps_taken_ = 0;  // monotone, for metrics
  LineWriter dump_jsonl_;
};

/// Rendering filters for explain_control (telea_explain's node=/path-only=/
/// deltas= options map straight onto these fields).
struct ExplainOptions {
  std::optional<NodeId> node;  // only decision lines from this node
  bool path_only = false;      // suppress decision lines, keep the path summary
  bool deltas = false;         // elapsed time since the previous printed line
                               // instead of absolute timestamps
};

/// The realized relay sequence of a control packet: every node that
/// transmitted it (kControlTx), in transmission order. Only *adjacent*
/// repeats are collapsed — a node that re-transmits later (e.g. after a
/// backtrack returned the task to it) appears again, so the trajectory keeps
/// its loops: A,A,B,A collapses to A,B,A, not A,B.
[[nodiscard]] std::vector<NodeId> relay_path(
    const std::vector<TraceRecord>& records, std::uint32_t seqno);

/// The engine behind Tracer::explain, usable on records re-loaded from a
/// JSONL export (tools reconstruct trajectories without the live Tracer).
[[nodiscard]] std::string explain_control(
    const std::vector<TraceRecord>& records, std::uint32_t seqno);
[[nodiscard]] std::string explain_control(
    const std::vector<TraceRecord>& records, std::uint32_t seqno,
    const ExplainOptions& opts);

}  // namespace telea
