#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace telea {

/// Label set attached to a metric instance (e.g. {{"node","3"},{"sub","lpl"}}).
/// Kept sorted by key so the identity of a (name, labels) pair is canonical.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotone counter. `set_total` exists for collector-style use where a
/// component keeps its own cumulative tally and the registry mirrors it.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  void set_total(std::uint64_t total) noexcept { value_ = total; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram (Prometheus semantics: cumulative bucket counts,
/// an implicit +Inf bucket, plus sum and count).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;
  /// Zeroes all counts (for collector-style re-population each scrape).
  void reset() noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket (non-cumulative) observation counts; size = bounds+1, the
  /// last slot is the overflow (+Inf) bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts()
      const noexcept {
    return counts_;
  }
  /// Cumulative count of observations <= bounds()[i].
  [[nodiscard]] std::uint64_t cumulative(std::size_t i) const noexcept;
  /// Estimated value at quantile q in [0,1] (Prometheus histogram_quantile
  /// semantics: linear interpolation inside the bucket holding the rank;
  /// ranks landing in the +Inf bucket clamp to the highest finite bound).
  /// Returns 0 when the histogram is empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::vector<double> bounds_;          // strictly increasing
  std::vector<std::uint64_t> counts_;   // bounds_.size() + 1 (last = +Inf)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Flattened-sample semantics, for consumers that must treat cumulative
/// samples differently from instantaneous ones (the timeline engine
/// delta-encodes counters but stores gauges as-is). Histogram samples are
/// all cumulative (`_bucket`/`_sum`/`_count` only ever grow).
enum class SampleKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// A named registry of counters, gauges and histograms. Metric instances are
/// identified by (name, labels); lookups return stable references (instances
/// live as long as the registry), so hot paths can resolve once and hold the
/// pointer. Single-threaded, like everything else in the simulator.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, const MetricLabels& labels = {});
  Gauge& gauge(std::string_view name, const MetricLabels& labels = {});
  /// `upper_bounds` is only consulted on first creation of the instance.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& upper_bounds,
                       const MetricLabels& labels = {});

  /// Optional one-line help text rendered as "# HELP" in Prometheus output.
  void describe(std::string_view name, std::string_view help);

  /// Live (visible) instrument count — see clear().
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  /// Logically empties the registry while retaining instrument storage:
  /// existing instances become invisible to size()/visit/render
  /// until the next counter()/gauge()/histogram() lookup, which resets them
  /// to pristine values. Collector-style scrape loops (the timeline engine
  /// clears and re-collects every sample) therefore pay no re-allocation
  /// after the first pass, and "absent this pass" stays observable.
  void clear() noexcept {
    ++epoch_;
    live_ = 0;
    replay_pos_ = 0;
  }

  /// Prometheus text exposition format (deterministic ordering).
  [[nodiscard]] std::string render_prometheus() const;
  /// JSON export: {"metrics":[{name,labels,type,...}]}. Parseable by
  /// JsonValue::parse — the unit tests round-trip it.
  [[nodiscard]] std::string render_json() const;
  [[nodiscard]] bool write_prometheus(const std::string& path) const;
  [[nodiscard]] bool write_json(const std::string& path) const;

  /// Visits every live sample at Prometheus sample granularity
  /// ("name{labels}" or "name_bucket{...,le=\"x\"}" / "_sum" / "_count")
  /// with its kind. Each name string is owned by the registry and keeps its
  /// address for the registry's lifetime (clear() included), so scrape
  /// loops may key a per-sample cache by address.
  void visit_samples(
      const std::function<void(const std::string&, double, SampleKind)>& fn)
      const;

 private:
  using Kind = SampleKind;

  struct Metric {
    std::string name;
    MetricLabels labels;
    Kind kind;
    std::uint64_t touched = 0;  // epoch of the last lookup; stale = invisible
    /// Flattened sample names, built lazily on first flatten and reused —
    /// identity is immutable, and scrape loops re-flatten every pass.
    /// Counter/gauge: one entry. Histogram: buckets..., +Inf, _sum, _count.
    mutable std::vector<std::string> flat;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Metric& upsert(std::string_view name, const MetricLabels& labels,
                 Kind kind);
  /// True when the instance is visible (touched in the current epoch).
  [[nodiscard]] bool live(const Metric& m) const noexcept {
    return m.touched == epoch_;
  }
  /// "name{a="x",b="y"}" with `extra` appended inside the braces.
  static std::string sample_name(const Metric& m, const std::string& suffix,
                                 const std::string& extra = {});
  void flatten(
      const Metric& m,
      const std::function<void(const std::string&, double, Kind)>& emit) const;

  std::map<std::string, Metric, std::less<>> metrics_;  // key -> instance
  std::map<std::string, std::string, std::less<>> help_;
  std::string key_buf_;       // reused instance-key scratch (hot-path lookups)
  std::uint64_t epoch_ = 0;   // bumped by clear()
  std::size_t live_ = 0;      // instruments touched in the current epoch
  // Lookup order of the previous scrape pass. A collector re-resolves the
  // same instruments in the same order every pass, so upsert first checks
  // the entry at replay_pos_ and walks the map only on a mismatch. Never
  // longer than metrics_ (map iterators stay valid: nothing is erased).
  std::vector<std::map<std::string, Metric, std::less<>>::iterator> replay_;
  std::size_t replay_pos_ = 0;
};

}  // namespace telea
