#include "stats/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string_view>

#include "util/json.hpp"
#include "util/text_file.hpp"

namespace telea {

namespace {

/// %g-style shortest faithful rendering; Prometheus and JSON share it.
std::string fmt_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shorter %g form when it round-trips.
  char shorter[64];
  std::snprintf(shorter, sizeof(shorter), "%g", v);
  double back = 0;
  if (std::sscanf(shorter, "%lf", &back) == 1 && back == v) {
    return shorter;
  }
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

void Histogram::reset() noexcept {
  counts_.assign(counts_.size(), 0);
  count_ = 0;
  sum_ = 0.0;
}

std::uint64_t Histogram::cumulative(std::size_t i) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < counts_.size(); ++b) {
    total += counts_[b];
  }
  return total;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Degenerate cases where interpolation has nothing to interpolate: a
  // single sample (p50 of one observe(7) on bounds {0,100} used to come out
  // 50, a value never observed — the sample itself is the exact answer for
  // every q), and a histogram with no finite bucket (everything lands in
  // +Inf, which used to report 0).
  if (count_ == 1 || bounds_.empty()) {
    return sum_ / static_cast<double>(count_);
  }
  const double rank = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    const std::uint64_t in_bucket = counts_[i];
    if (static_cast<double>(cum + in_bucket) >= rank && in_bucket > 0) {
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      const double into =
          (rank - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(into, 0.0, 1.0);
    }
    cum += in_bucket;
  }
  // Rank fell in the +Inf overflow bucket: the best bounded answer.
  return bounds_.empty() ? 0.0 : bounds_.back();
}

MetricsRegistry::Metric& MetricsRegistry::upsert(std::string_view name,
                                                 const MetricLabels& labels,
                                                 Kind kind) {
  // Callers overwhelmingly pass already-sorted label sets; only copy when
  // they do not. The key is built into a reused buffer so the steady-state
  // lookup (collector loops re-resolving every scrape) allocates nothing.
  MetricLabels sorted;
  const MetricLabels* use = &labels;
  if (!std::is_sorted(labels.begin(), labels.end())) {
    sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    use = &sorted;
  }
  key_buf_.clear();
  key_buf_ += name;
  key_buf_.push_back('\x1f');
  for (const auto& [k, v] : *use) {
    key_buf_ += k;
    key_buf_.push_back('=');
    key_buf_ += v;
    key_buf_.push_back('\x1f');
  }
  auto it = replay_pos_ < replay_.size() &&
                    replay_[replay_pos_]->first == key_buf_
                ? replay_[replay_pos_]
                : metrics_.find(std::string_view(key_buf_));
  if (it == metrics_.end()) {
    Metric m;
    m.name = name;
    m.labels = *use;
    m.kind = kind;
    m.touched = epoch_;
    ++live_;
    it = metrics_.emplace(key_buf_, std::move(m)).first;
  }
  if (replay_pos_ < replay_.size()) {
    replay_[replay_pos_++] = it;
  } else if (replay_.size() < metrics_.size()) {
    replay_.push_back(it);
    ++replay_pos_;
  }
  Metric& m = it->second;
  if (!live(m)) {
    // First touch since clear(): same identity, pristine values.
    m.touched = epoch_;
    ++live_;
    m.counter.set_total(0);
    m.gauge.set(0.0);
    if (m.histogram) m.histogram->reset();
  }
  return m;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  const MetricLabels& labels) {
  return upsert(name, labels, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              const MetricLabels& labels) {
  return upsert(name, labels, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& upper_bounds,
                                      const MetricLabels& labels) {
  Metric& m = upsert(name, labels, Kind::kHistogram);
  if (m.histogram == nullptr) {
    m.histogram = std::make_unique<Histogram>(upper_bounds);
  }
  return *m.histogram;
}

void MetricsRegistry::describe(std::string_view name, std::string_view help) {
  // Collectors re-describe every scrape; leave an unchanged entry alone.
  const auto it = help_.find(name);
  if (it == help_.end()) {
    help_.emplace(name, help);
  } else if (it->second != help) {
    it->second.assign(help);
  }
}

std::string MetricsRegistry::sample_name(const Metric& m,
                                         const std::string& suffix,
                                         const std::string& extra) {
  std::string out = m.name + suffix;
  if (m.labels.empty() && extra.empty()) return out;
  out.push_back('{');
  bool first = true;
  for (const auto& [k, v] : m.labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += "\"";
  }
  if (!extra.empty()) {
    if (!first) out.push_back(',');
    out += extra;
  }
  out.push_back('}');
  return out;
}

void MetricsRegistry::flatten(
    const Metric& m,
    const std::function<void(const std::string&, double, Kind)>& emit) const {
  if (m.flat.empty()) {
    // Sample identities never change once the instrument exists; build the
    // strings once so scrape loops (the timeline engine re-flattens every
    // sample) pay no per-pass formatting.
    switch (m.kind) {
      case Kind::kCounter:
      case Kind::kGauge:
        m.flat.push_back(sample_name(m, ""));
        break;
      case Kind::kHistogram: {
        const Histogram& h = *m.histogram;
        for (const double bound : h.bounds()) {
          m.flat.push_back(
              sample_name(m, "_bucket", "le=\"" + fmt_double(bound) + "\""));
        }
        m.flat.push_back(sample_name(m, "_bucket", "le=\"+Inf\""));
        m.flat.push_back(sample_name(m, "_sum"));
        m.flat.push_back(sample_name(m, "_count"));
        break;
      }
    }
  }
  switch (m.kind) {
    case Kind::kCounter:
      emit(m.flat[0], static_cast<double>(m.counter.value()), Kind::kCounter);
      break;
    case Kind::kGauge:
      emit(m.flat[0], m.gauge.value(), Kind::kGauge);
      break;
    case Kind::kHistogram: {
      const Histogram& h = *m.histogram;
      const std::size_t buckets = h.bounds().size();
      for (std::size_t i = 0; i < buckets; ++i) {
        emit(m.flat[i], static_cast<double>(h.cumulative(i)),
             Kind::kHistogram);
      }
      emit(m.flat[buckets], static_cast<double>(h.count()), Kind::kHistogram);
      emit(m.flat[buckets + 1], h.sum(), Kind::kHistogram);
      emit(m.flat[buckets + 2], static_cast<double>(h.count()),
           Kind::kHistogram);
      break;
    }
  }
}

std::string MetricsRegistry::render_prometheus() const {
  std::string out;
  std::string last_name;
  for (const auto& [key, m] : metrics_) {
    (void)key;
    if (!live(m)) continue;
    if (m.name != last_name) {
      last_name = m.name;
      const auto help = help_.find(m.name);
      if (help != help_.end()) {
        out += "# HELP " + m.name + " " + help->second + "\n";
      }
      out += "# TYPE " + m.name + " ";
      switch (m.kind) {
        case Kind::kCounter: out += "counter"; break;
        case Kind::kGauge: out += "gauge"; break;
        case Kind::kHistogram: out += "histogram"; break;
      }
      out += "\n";
    }
    flatten(m, [&out](const std::string& name, double value, Kind) {
      out += name;
      out.push_back(' ');
      out += fmt_double(value);
      out.push_back('\n');
    });
  }
  return out;
}

std::string MetricsRegistry::render_json() const {
  std::string out = "{\"metrics\":[";
  bool first_metric = true;
  for (const auto& [key, m] : metrics_) {
    (void)key;
    if (!live(m)) continue;
    if (!first_metric) out.push_back(',');
    first_metric = false;
    out += "{\"name\":\"" + JsonValue::escape(m.name) + "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [k, v] : m.labels) {
      if (!first_label) out.push_back(',');
      first_label = false;
      out += "\"" + JsonValue::escape(k) + "\":\"" + JsonValue::escape(v) + "\"";
    }
    out += "},\"type\":\"";
    switch (m.kind) {
      case Kind::kCounter:
        out += "counter\",\"value\":" +
               fmt_double(static_cast<double>(m.counter.value()));
        break;
      case Kind::kGauge:
        out += "gauge\",\"value\":" + fmt_double(m.gauge.value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *m.histogram;
        out += "histogram\",\"buckets\":[";
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          if (i > 0) out.push_back(',');
          out += "{\"le\":" + fmt_double(h.bounds()[i]) + ",\"count\":" +
                 fmt_double(static_cast<double>(h.bucket_counts()[i])) + "}";
        }
        out += "],\"overflow\":" +
               fmt_double(static_cast<double>(h.bucket_counts().back())) +
               ",\"sum\":" + fmt_double(h.sum()) +
               ",\"count\":" + fmt_double(static_cast<double>(h.count()));
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

bool MetricsRegistry::write_prometheus(const std::string& path) const {
  return write_text_file(path, render_prometheus());
}

bool MetricsRegistry::write_json(const std::string& path) const {
  return write_text_file(path, render_json());
}

void MetricsRegistry::visit_samples(
    const std::function<void(const std::string&, double, SampleKind)>& fn)
    const {
  for (const auto& [key, m] : metrics_) {
    (void)key;
    if (!live(m)) continue;
    flatten(m, fn);
  }
}

}  // namespace telea
