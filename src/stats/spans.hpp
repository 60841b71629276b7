#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "stats/energy.hpp"
#include "stats/table.hpp"
#include "stats/trace.hpp"
#include "util/ids.hpp"

namespace telea {

/// Causal span engine: turns the flat per-node trace-event stream into one
/// *command span* per control seqno — a cross-node timeline with per-hop
/// relay spans and a latency decomposition answering "where did the time
/// go" for every command (the axis the paper's Figs. 7-10 evaluate).
///
/// The decomposition is a *partition* of the span: consecutive trace events
/// bound half-open segments, each labeled with one SegmentKind, so segment
/// durations sum to the end-to-end latency by construction. telea_report
/// re-checks that invariant on every load and fails loudly if a trace is
/// too mangled (e.g. ring eviction) to reconcile.

/// What a slice of a command's lifetime was spent on.
enum class SegmentKind : std::uint8_t {
  kLplWait,    // carrier sweeping LPL copies, waiting for a wake-up + claim
  kAirtime,    // on-air time of the copy that produced the next claim
  kBacktrack,  // task handed back upstream, not yet re-forwarded
  kDetour,     // Re-Tele detour leg in flight
};
inline constexpr std::size_t kSegmentKinds = 4;

[[nodiscard]] const char* segment_kind_name(SegmentKind k) noexcept;

struct SpanSegment {
  SimTime start = 0;
  SimTime end = 0;
  SegmentKind kind{};
  NodeId node = kInvalidNode;  // the node whose radio owns this interval
  std::uint32_t copies = 0;    // kControlTx copies recorded in [start, end)
};

/// One relay's tenure of the forwarding task: from its claim (or the
/// origin's first transmission) until the next claim or final delivery.
struct HopSpan {
  NodeId node = kInvalidNode;
  SimTime start = 0;
  SimTime end = 0;
  std::uint32_t copies = 0;  // LPL copies this node transmitted in tenure
};

struct CommandSpan {
  std::uint32_t seqno = 0;
  NodeId origin = kInvalidNode;
  NodeId dest = kInvalidNode;  // known once delivered, else kInvalidNode
  SimTime start = 0;
  SimTime end = 0;
  bool delivered = false;
  std::vector<HopSpan> hops;
  std::vector<SpanSegment> segments;  // chronological partition of the span

  [[nodiscard]] SimTime latency() const noexcept { return end - start; }
  /// Sum of segment durations (== latency() when the trace is complete).
  [[nodiscard]] SimTime segment_total() const noexcept;
  /// Total seconds spent in one segment kind.
  [[nodiscard]] double segment_seconds(SegmentKind k) const noexcept;
  /// The invariant: |latency - segment_total| <= tolerance (one tick).
  [[nodiscard]] bool reconciles(SimTime tolerance = 1) const noexcept;
  /// The kind holding the largest share of the span (kLplWait when empty).
  [[nodiscard]] SegmentKind dominant_segment() const noexcept;
};

/// Reconstructs one span per control seqno from trace records (live
/// snapshot or re-loaded JSONL). Records need not be sorted. Seqnos whose
/// early records were evicted from the ring degrade gracefully: the span
/// starts at the first surviving record.
[[nodiscard]] std::vector<CommandSpan> build_command_spans(
    const std::vector<TraceRecord>& records);

/// Spans failing the segment-sum invariant, for reporting.
[[nodiscard]] std::size_t count_reconcile_failures(
    const std::vector<CommandSpan>& spans, SimTime tolerance = 1);

/// Radio-state energy model for span attribution. Defaults follow the
/// CC2420 datasheet at 3 V / 0 dBm; the harness overrides copy_airtime_s
/// with the exact PHY airtime of the control frame it simulates.
struct SpanEnergyConfig {
  double supply_volts = kSupplyVolts;
  double tx_current_ma = kTxCurrentMa0Dbm;
  double rx_current_ma = kRxCurrentMa;
  double copy_airtime_s = 0.002;  // one LPL copy's on-air time
};

/// Energy attributed to one command: the carrier's radio is on for the
/// whole span (LPL sweep = listen between copies), with the TX-over-RX
/// delta added for each recorded copy's airtime.
struct CommandEnergy {
  double total_uj = 0.0;
  double tx_uj = 0.0;      // TX-current delta over the copies' airtime
  double listen_uj = 0.0;  // RX/listen floor over the span duration
  std::map<NodeId, double> per_node_uj;
};

[[nodiscard]] CommandEnergy attribute_energy(const CommandSpan& span,
                                             const SpanEnergyConfig& cfg);

/// Per-command critical-path table: latency decomposition, energy, and the
/// dominant segment for every span.
[[nodiscard]] TextTable render_critical_path_table(
    const std::vector<CommandSpan>& spans, const SpanEnergyConfig& cfg);

/// Aggregate report JSON (parseable by JsonValue): command counts,
/// p50/p90/p99 latency + energy, segment shares, and per-command rows.
[[nodiscard]] std::string render_report_json(
    const std::vector<CommandSpan>& spans, const SpanEnergyConfig& cfg,
    const std::string& name);

/// Chrome trace-event JSON (load in Perfetto / chrome://tracing): pid 0
/// tracks one thread per node carrying hop spans; pid 1 tracks one thread
/// per command carrying the command slice and its segment partition.
[[nodiscard]] std::string render_perfetto_json(
    const std::vector<CommandSpan>& spans);

}  // namespace telea
