#pragma once

// Timeline engine (docs/OBSERVABILITY.md, "Timeline & alerts"): in-sim
// metric time-series with bounded memory, derived windowed signals, and a
// declarative alert-rule pipeline.
//
// End-of-run aggregates average away exactly the transients worth debugging
// (count-to-infinity repair, retry storms under churn, outage-silenced
// origination). The engine samples a MetricsRegistry on a simulated-time
// cadence, stores every sample in a fixed-capacity raw ring (telea_timeline
// rebuilds two downsampled tiers from the stream, see TimelineTiers), and
// evaluates operator-style alert rules — threshold, absence, burn-rate —
// each sample, firing trace events and flight-recorder dumps with node-level
// context. Counters are delta-encoded per interval (with counter-reset
// clamping across state-loss reboots), so a 2-hour soak stays bounded no
// matter how large the underlying totals grow.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "stats/metrics.hpp"
#include "stats/trace.hpp"
#include "util/ids.hpp"
#include "util/text_file.hpp"

namespace telea {

/// One downsampled bucket: the aggregate of `count` finer-grained points.
struct TimelineBucket {
  SimTime start = 0;  // sim time of the first folded point
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// One raw sample point.
struct TimelinePoint {
  SimTime time = 0;
  double value = 0.0;
};

// The fixed retention and signal layout of every timeline
// (docs/OBSERVABILITY.md, "Retention"); durations at the default 10 s
// cadence.
/// Raw ring capacity (samples): 720 x 10 s = 2 h of raw history.
inline constexpr std::size_t kTimelineRawCapacity = 720;
/// Mid tier: raw points folded 6:1 (1-minute buckets), 240 kept (4 h).
inline constexpr std::size_t kTimelineMidFold = 6;
inline constexpr std::size_t kTimelineMidCapacity = 240;
/// Coarse tier: mid buckets folded 10:1 (10-minute buckets), 288 kept (2 d).
inline constexpr std::size_t kTimelineCoarseFold = 10;
inline constexpr std::size_t kTimelineCoarseCapacity = 288;
/// Sliding windows (raw samples) for rates and for gauge quantiles.
inline constexpr std::size_t kTimelineRateWindow = 6;
inline constexpr std::size_t kTimelineQuantileWindow = 30;
/// EWMA smoothing factor.
inline constexpr double kTimelineEwmaAlpha = 0.3;

struct TimelineConfig {
  /// Sampling cadence in simulated time.
  SimTime interval = 10 * kSecond;
};

/// One metric sample's series: the raw ring plus its smoothed value.
/// Counter (and histogram `_sum`/`_count`) samples are appended as
/// per-interval deltas, gauges as absolute values.
class MetricSeries {
 public:
  /// `interval` is the sampling cadence window_rate divides by.
  explicit MetricSeries(SimTime interval) : interval_(interval) {}

  void append(SimTime t, double value);

  [[nodiscard]] const std::deque<TimelinePoint>& raw() const noexcept {
    return raw_;
  }
  /// Points ever appended (evicted ones included).
  [[nodiscard]] std::uint64_t total_points() const noexcept { return total_; }
  [[nodiscard]] double last() const noexcept {
    return raw_.empty() ? 0.0 : raw_.back().value;
  }
  /// Exponentially weighted moving average over all appended points.
  [[nodiscard]] double ewma() const noexcept { return ewma_; }
  /// Sum of the most recent `n` raw points (for delta-encoded counters:
  /// the event count inside the window).
  [[nodiscard]] double window_sum(std::size_t n) const noexcept;
  /// Per-second rate over the most recent `n` raw points, using the
  /// sampling interval. 0 until at least one point exists.
  [[nodiscard]] double window_rate(std::size_t n) const noexcept;
  /// Sliding-window quantile (nearest-rank with interpolation) over the
  /// most recent kTimelineQuantileWindow raw points. 0 when empty.
  [[nodiscard]] double window_quantile(double q) const noexcept;

 private:
  SimTime interval_;
  std::deque<TimelinePoint> raw_;
  double ewma_ = 0.0;
  std::uint64_t total_ = 0;
};

/// The two downsampled tiers of one series, with min/max/sum/count per
/// bucket: every kTimelineMidFold appended points become one mid bucket,
/// every kTimelineCoarseFold completed mid buckets one coarse bucket, and
/// each tier keeps its newest buckets up to its capacity. For a
/// delta-encoded counter a bucket's sum is its event count. The engine does
/// not keep tiers; telea_timeline folds them from the stream on demand.
class TimelineTiers {
 public:
  void append(SimTime t, double value);

  [[nodiscard]] const std::deque<TimelineBucket>& mid() const noexcept {
    return mid_;
  }
  [[nodiscard]] const std::deque<TimelineBucket>& coarse() const noexcept {
    return coarse_;
  }

 private:
  std::deque<TimelineBucket> mid_;
  std::deque<TimelineBucket> coarse_;
  TimelineBucket mid_pending_{};
  TimelineBucket coarse_pending_{};
  std::size_t coarse_folded_ = 0;  // completed mid buckets in coarse_pending_
};

// --- alert rules ------------------------------------------------------------

/// What a rule evaluates each sampling window.
enum class AlertSignal : std::uint8_t {
  kValue,     // value(series): the latest raw sample
  kRate,      // rate(series): per-second rate over the sliding window
  kEwma,      // ewma(series): smoothed value
  kQuantile,  // p50/p90/p99(series): sliding-window quantile
  kAbsent,    // absent(series): series produced no sample this window
  kBurnRate,  // burn_rate(series, budget): rate / budget-per-second
};

enum class AlertOp : std::uint8_t { kGt, kGe, kLt, kLe };

[[nodiscard]] const char* alert_signal_name(AlertSignal s) noexcept;
[[nodiscard]] const char* alert_op_name(AlertOp o) noexcept;

/// One parsed rule. Grammar (one rule per line, `#` comments):
///
///   <name>: <signal>(<series>) <op> <threshold> for <N>
///   <name>: burn_rate(<series>, <budget_per_s>) <op> <mult> for <N>
///   <name>: absent(<series>) for <N>
///
/// signal = value | rate | ewma | p50 | p90 | p99; op = > | >= | < | <=.
/// `for <N>` (default 1) requires the condition to hold for N consecutive
/// sampling windows before the alert fires.
struct AlertRule {
  std::string name;
  std::string series;  // exact sample name, labels included
  AlertSignal signal = AlertSignal::kValue;
  AlertOp op = AlertOp::kGt;
  double threshold = 0.0;
  double quantile = 0.0;      // kQuantile
  double budget_per_s = 0.0;  // kBurnRate denominator
  std::size_t for_windows = 1;
};

struct AlertParseError {
  std::size_t line = 0;  // 1-based
  std::string message;
};

/// Parses a rules file body. Returns nullopt when any line is malformed;
/// every error is reported through `errors` (when non-null) so a typo'd
/// rules file fails loudly instead of silently watching nothing.
[[nodiscard]] std::optional<std::vector<AlertRule>> parse_alert_rules(
    std::string_view text, std::vector<AlertParseError>* errors = nullptr);

/// Loads + parses a rules file; nullopt when unreadable or malformed.
[[nodiscard]] std::optional<std::vector<AlertRule>> load_alert_rules(
    const std::string& path, std::vector<AlertParseError>* errors = nullptr);

/// Renders one rule back to its grammar line (round-trips parse).
[[nodiscard]] std::string render_alert_rule(const AlertRule& rule);

/// Live state of one rule inside the engine.
struct AlertState {
  AlertRule rule;
  std::size_t index = 0;  // position in the loaded rule set (trace `a` field)
  bool active = false;
  std::size_t consecutive = 0;  // windows the condition has held
  std::uint64_t fired = 0;
  std::uint64_t resolved = 0;
  SimTime last_fired = 0;
  SimTime last_resolved = 0;
  double last_signal = 0.0;  // most recent evaluated signal value
};

/// Node a rule's series names through its `node="N"` label, if any.
[[nodiscard]] std::optional<NodeId> series_node_label(std::string_view name);

// --- engine -----------------------------------------------------------------

/// Samples a metric source on a simulated-time cadence into MetricSeries
/// raw rings, evaluates alert rules each sample, and optionally streams every
/// sample (and alert transition) as JSONL. The source is a collector
/// callback so the engine stays below the harness layer; `Network` wires it
/// to `collect_metrics`. Per-le histogram `_bucket{...}` samples are not
/// kept: the `_sum`/`_count` samples carry the trend at a fraction of the
/// series count, and sliding-window quantiles come from gauges.
class TimelineEngine {
 public:
  /// Alert transitions are recorded into `router` as `alert_fired` /
  /// `alert_resolved` events (a = rule index, b = node the rule's series
  /// labels, or 0), and a firing dumps that node's flight ring (the sink's
  /// for a network-wide rule) with trigger `alert:<rule>`.
  TimelineEngine(Simulator& sim, TraceRouter& router, TimelineConfig cfg = {});
  TimelineEngine(const TimelineEngine&) = delete;
  TimelineEngine& operator=(const TimelineEngine&) = delete;

  void set_collector(std::function<void(MetricsRegistry&)> collector) {
    collector_ = std::move(collector);
  }
  void set_rules(std::vector<AlertRule> rules);
  /// Streams one JSONL line per sample (plus alert-transition lines) to
  /// `path`. The first line is a meta object with the sampling interval and
  /// the rendered rules. The file is truncated here and each line is
  /// flushed as it is written.
  bool set_jsonl(const std::string& path);

  /// Arms the periodic sampling timer (tag "timeline"). Idempotent.
  void start();

  /// One sampling pass right now — the timer body, public so harnesses can
  /// flush a final sample at end of run and tests can drive the engine
  /// without a simulator loop.
  void sample_now();

  [[nodiscard]] const MetricSeries* series(std::string_view name) const;
  [[nodiscard]] std::size_t series_count() const noexcept {
    return series_.size();
  }
  [[nodiscard]] const std::vector<AlertState>& alerts() const noexcept {
    return alerts_;
  }
  [[nodiscard]] std::uint64_t samples_taken() const noexcept {
    return samples_;
  }
  /// Negative counter deltas clamped to zero (post-reboot counter resets).
  [[nodiscard]] std::uint64_t counter_resets() const noexcept {
    return counter_resets_;
  }
  [[nodiscard]] std::uint64_t alerts_fired_total() const noexcept;
  [[nodiscard]] std::uint64_t alerts_resolved_total() const noexcept;
  /// Host wall-clock spent inside sample_now() — the soak harness gates
  /// timeline overhead on this (< 5 % of the run's wall-clock).
  [[nodiscard]] double sampling_wall_seconds() const noexcept {
    return wall_seconds_;
  }

  /// Mirrors the engine's own state as `telea_timeline_*` / `telea_alert_*`
  /// metrics (collector-style, like every other subsystem).
  void collect_metrics(MetricsRegistry& registry) const;

 private:
  /// Per-series sampling state kept alongside the rings so the hot path
  /// resolves one map entry per sample, not three (series + previous
  /// absolute + appeared-this-sample used to live in separate maps).
  struct SeriesEntry {
    MetricSeries series;
    std::string json_key;        // `"escaped-name":` — built once, reused
    double prev_absolute = 0.0;  // last absolute cumulative value seen
    std::uint64_t last_sample = 0;  // 1-based sample number of last append

    SeriesEntry(SimTime interval, const std::string& name);
  };

  void evaluate_alerts(SimTime now);
  [[nodiscard]] double eval_signal(const AlertRule& rule,
                                   const MetricSeries* s) const;
  [[nodiscard]] const SeriesEntry* entry(std::string_view name) const;
  void write_meta_line();

  Simulator* sim_;
  TraceRouter* router_;
  SimTime interval_;
  Timer timer_;
  std::function<void(MetricsRegistry&)> collector_;
  MetricsRegistry scratch_;  // refreshed by the collector each sample
  std::map<std::string, SeriesEntry, std::less<>> series_;
  // What each position of the previous sample's visit resolved to. The
  // scratch registry emits the same samples in the same order every pass,
  // so sample_now matches a position by name address before walking
  // series_. `entry` is null for a skipped histogram bucket sample.
  struct VisitSlot {
    const std::string* name = nullptr;
    SeriesEntry* entry = nullptr;
  };
  std::vector<VisitSlot> visit_order_;
  // series_ in its (name) order, for the JSONL line: a vector walk instead
  // of a tree walk. Kept in step where sample_now adds a series.
  std::vector<const SeriesEntry*> json_order_;
  std::vector<AlertState> alerts_;
  LineWriter jsonl_;
  std::size_t jsonl_line_hint_ = 256;  // reserve size for the next line
  bool meta_written_ = false;
  std::uint64_t samples_ = 0;
  std::uint64_t counter_resets_ = 0;
  double wall_seconds_ = 0.0;
};

}  // namespace telea
