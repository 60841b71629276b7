#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "radio/packet.hpp"
#include "sim/time.hpp"
#include "stats/metrics.hpp"
#include "util/ids.hpp"

namespace telea {

/// In-band health telemetry (docs/OBSERVABILITY.md, "Health telemetry &
/// flight recorder"). Two halves:
///
///  * node side — `HealthReporter` piggybacks an 8-byte `msg::HealthReport`
///    onto locally-originated upward CTP traffic (data and e2e acks) through
///    `CtpNode::set_origin_hook`. No dedicated packets, rate-limited to one
///    report per telemetry period.
///  * sink side — `NetworkHealthModel` assembles the reports into a
///    staleness-aware per-node picture: last-seen state with age tracking,
///    freshest-wins acceptance on out-of-order arrivals, coverage and
///    distribution aggregates, metrics export (`telea_health_*`) and a JSONL
///    snapshot line `tools/telea_top` renders.

/// What a node samples locally, in natural units, to build one report.
/// `encode_health_report` quantizes to the wire widths.
struct HealthSample {
  double duty_cycle = 0.0;         // radio duty cycle in [0,1]
  std::uint32_t etx10 = 0xFFFF;    // link ETX to CTP parent, 1/10 units
  std::size_t code_len = 0;        // valid bits of the node's path code
  std::size_t mac_queue_hwm = 0;   // TX (MAC send) queue high-water mark
  std::size_t ctp_queue_hwm = 0;   // CTP forward queue high-water mark
  std::uint64_t parent_changes = 0;
  double energy_mj = 0.0;          // estimated energy spent, mJ
};

/// Quantizes `sample` into the 8-byte wire report. Saturating fields clamp
/// (duty at 25.5%, ETX at 25.5, queues at 15, energy at 65535 mJ); the
/// parent epoch wraps mod 256 by design.
[[nodiscard]] msg::HealthReport encode_health_report(const HealthSample& sample,
                                                     std::uint8_t seqno) noexcept;

/// True when `candidate` is newer than `current` under wrapping u8 sequence
/// arithmetic (the freshest-wins rule for out-of-order piggybacks).
[[nodiscard]] bool health_seqno_newer(std::uint8_t candidate,
                                      std::uint8_t current) noexcept;

/// Node-side attach policy. Owns the rate limiter and the wrapping report
/// sequence number; the host stack supplies a sampling callback so the
/// (cheap but not free) sample is only taken when a report actually goes out.
class HealthReporter {
 public:
  /// At most one report is attached per `period`, the telemetry period.
  explicit HealthReporter(SimTime period) : period_(period) {}

  /// Offers an origin frame to the reporter: attaches a freshly sampled
  /// report when the rate limiter allows, otherwise leaves the frame alone.
  void maybe_attach(SimTime now, msg::CtpData& data,
                    const std::function<HealthSample()>& sample);

  struct Stats {
    std::uint64_t reports_attached = 0;
    std::uint64_t bytes_attached = 0;   // 8 per attached report
    std::uint64_t suppressed = 0;       // origin frames left bare (rate limit)
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  SimTime period_;
  Stats stats_;
  std::uint8_t next_seqno_ = 0;
  bool attached_once_ = false;
  SimTime last_attach_ = 0;
};

/// The sink's staleness-aware view of network health, assembled purely from
/// in-band reports — no simulator omniscience.
class NetworkHealthModel {
 public:
  /// `period` is the telemetry period the reporters use. A report older
  /// than two periods is stale (excluded from coverage).
  explicit NetworkHealthModel(SimTime period = 60 * kSecond)
      : period_(period) {}

  /// Node-id universe for coverage/unseen accounting: ids 1..n are expected
  /// to report (the sink itself never does).
  void set_expected_nodes(std::size_t n) { expected_nodes_ = n; }
  [[nodiscard]] std::size_t expected_nodes() const noexcept {
    return expected_nodes_;
  }

  /// Ingests one piggybacked report delivered at the sink. Freshest-wins:
  /// a report not newer (wrapping seqno) than the stored one is dropped as
  /// an out-of-order straggler. All arrivals count toward byte overhead.
  void on_report(SimTime now, NodeId node, const msg::HealthReport& report);

  struct Entry {
    msg::HealthReport report;
    SimTime updated = 0;        // sink arrival time of the freshest report
    std::uint64_t updates = 0;  // accepted reports from this node
  };
  /// Last accepted state for `node`, or nullptr when never seen.
  [[nodiscard]] const Entry* entry(NodeId node) const;
  [[nodiscard]] std::size_t tracked() const noexcept { return entries_.size(); }

  [[nodiscard]] bool is_fresh(SimTime now, NodeId node) const;
  /// Fraction of expected nodes with a fresh (non-stale) report.
  [[nodiscard]] double coverage(SimTime now) const;
  /// Tracked nodes whose report has gone stale, ascending id.
  [[nodiscard]] std::vector<NodeId> stale_nodes(SimTime now) const;
  /// Expected nodes with no tracked report at all, ascending id.
  [[nodiscard]] std::vector<NodeId> unseen_nodes() const;

  struct Stats {
    std::uint64_t reports = 0;        // accepted (freshest) reports
    std::uint64_t stale_dropped = 0;  // out-of-order arrivals ignored
    std::uint64_t bytes = 0;          // piggyback bytes seen at the sink
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Mirrors the model into `registry` (all `telea_health_*` names are
  /// documented in docs/OBSERVABILITY.md). Collector-style: refreshes on
  /// every call.
  void collect_metrics(MetricsRegistry& registry, SimTime now) const;

  /// One JSONL line: aggregates plus a per-node array, newest state only.
  /// The input format of `tools/telea_top`.
  [[nodiscard]] std::string render_snapshot_json(SimTime now) const;

 private:
  [[nodiscard]] SimTime stale_after() const noexcept { return 2 * period_; }

  SimTime period_;
  std::size_t expected_nodes_ = 0;
  std::map<NodeId, Entry> entries_;  // sorted: deterministic export order
  Stats stats_;
};

}  // namespace telea
