#include "stats/timeline.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "util/json.hpp"
#include "util/text_file.hpp"

namespace telea {

namespace {

// Shortest representation that parses back to the same double — to_chars
// gives exactly that, without the snprintf/round-trip dance, and it is on
// the per-sample JSONL hot path (one call per live series).
void append_double(std::string& out, double v) {
  if (std::isinf(v)) {
    out += v > 0 ? "1e308" : "-1e308";  // JSON has no Inf
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

std::string fmt_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

void accumulate(TimelineBucket& b, SimTime t, double v) {
  if (b.count == 0) {
    b = TimelineBucket{t, v, v, v, 1};
    return;
  }
  b.min = std::min(b.min, v);
  b.max = std::max(b.max, v);
  b.sum += v;
  ++b.count;
}

void merge(TimelineBucket& into, const TimelineBucket& from) {
  if (from.count == 0) return;
  if (into.count == 0) {
    into = from;
    return;
  }
  into.min = std::min(into.min, from.min);
  into.max = std::max(into.max, from.max);
  into.sum += from.sum;
  into.count += from.count;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Histogram per-le detail sample ("..._bucket{...le=\"x\"...}").
bool is_bucket_sample(const std::string& name) {
  const auto brace = name.find("_bucket{");
  return brace != std::string::npos &&
         name.find("le=\"", brace) != std::string::npos;
}

}  // namespace

// --- MetricSeries -----------------------------------------------------------

void MetricSeries::append(SimTime t, double value) {
  raw_.push_back(TimelinePoint{t, value});
  if (raw_.size() > kTimelineRawCapacity) raw_.pop_front();
  ewma_ = total_ == 0 ? value
                      : kTimelineEwmaAlpha * value +
                            (1.0 - kTimelineEwmaAlpha) * ewma_;
  ++total_;
}

double MetricSeries::window_sum(std::size_t n) const noexcept {
  double sum = 0.0;
  const std::size_t take = std::min(n, raw_.size());
  for (std::size_t i = raw_.size() - take; i < raw_.size(); ++i) {
    sum += raw_[i].value;
  }
  return sum;
}

double MetricSeries::window_rate(std::size_t n) const noexcept {
  const std::size_t take = std::min(n, raw_.size());
  if (take == 0 || interval_ == 0) return 0.0;
  const double window_s =
      static_cast<double>(take) * static_cast<double>(interval_) /
      static_cast<double>(kSecond);
  return window_sum(n) / window_s;
}

double MetricSeries::window_quantile(double q) const noexcept {
  const std::size_t take = std::min(kTimelineQuantileWindow, raw_.size());
  if (take == 0) return 0.0;
  std::vector<double> vals;
  vals.reserve(take);
  for (std::size_t i = raw_.size() - take; i < raw_.size(); ++i) {
    vals.push_back(raw_[i].value);
  }
  std::sort(vals.begin(), vals.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(vals.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, vals.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return vals[lo] + (vals[hi] - vals[lo]) * frac;
}

// --- TimelineTiers ----------------------------------------------------------

void TimelineTiers::append(SimTime t, double value) {
  accumulate(mid_pending_, t, value);
  if (mid_pending_.count < kTimelineMidFold) return;
  // A mid bucket completed; it cascades into the coarse pending bucket
  // (coarse folds are counted in completed mid buckets, not raw points).
  mid_.push_back(mid_pending_);
  if (mid_.size() > kTimelineMidCapacity) mid_.pop_front();
  merge(coarse_pending_, mid_pending_);
  ++coarse_folded_;
  mid_pending_ = TimelineBucket{};
  if (coarse_folded_ < kTimelineCoarseFold) return;
  coarse_.push_back(coarse_pending_);
  if (coarse_.size() > kTimelineCoarseCapacity) coarse_.pop_front();
  coarse_pending_ = TimelineBucket{};
  coarse_folded_ = 0;
}

// --- alert rules ------------------------------------------------------------

const char* alert_signal_name(AlertSignal s) noexcept {
  switch (s) {
    case AlertSignal::kValue: return "value";
    case AlertSignal::kRate: return "rate";
    case AlertSignal::kEwma: return "ewma";
    case AlertSignal::kQuantile: return "quantile";
    case AlertSignal::kAbsent: return "absent";
    case AlertSignal::kBurnRate: return "burn_rate";
  }
  return "?";
}

const char* alert_op_name(AlertOp o) noexcept {
  switch (o) {
    case AlertOp::kGt: return ">";
    case AlertOp::kGe: return ">=";
    case AlertOp::kLt: return "<";
    case AlertOp::kLe: return "<=";
  }
  return "?";
}

namespace {

bool parse_number(std::string_view text, double* out) {
  const std::string buf(text);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool parse_size(std::string_view text, std::size_t* out) {
  double v = 0;
  if (!parse_number(text, &v) || v < 1 || v != std::floor(v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

void add_error(std::vector<AlertParseError>* errors, std::size_t line,
               std::string message) {
  if (errors != nullptr) {
    errors->push_back(AlertParseError{line, std::move(message)});
  }
}

/// Parses "<signal>(<args>)" off the front of `rest`; on success `rest` is
/// advanced past the closing paren. Series names carry Prometheus label
/// blocks, so the argument split for burn_rate happens at the last comma
/// outside `{}` (labels contain commas too).
bool parse_signal_call(std::string_view* rest, AlertRule* rule,
                       std::string* error) {
  const auto open = rest->find('(');
  if (open == std::string_view::npos) {
    *error = "expected <signal>(<series>)";
    return false;
  }
  const std::string_view fn = trim(rest->substr(0, open));
  // The series argument may contain '{...}' but never parens, so the first
  // ')' closes the call.
  const auto close = rest->find(')', open);
  if (close == std::string_view::npos) {
    *error = "missing ')'";
    return false;
  }
  std::string_view args = trim(rest->substr(open + 1, close - open - 1));
  rest->remove_prefix(close + 1);

  if (fn == "value") {
    rule->signal = AlertSignal::kValue;
  } else if (fn == "rate") {
    rule->signal = AlertSignal::kRate;
  } else if (fn == "ewma") {
    rule->signal = AlertSignal::kEwma;
  } else if (fn == "absent") {
    rule->signal = AlertSignal::kAbsent;
  } else if (fn == "burn_rate") {
    rule->signal = AlertSignal::kBurnRate;
  } else if (fn == "p50" || fn == "p90" || fn == "p99") {
    rule->signal = AlertSignal::kQuantile;
    rule->quantile = fn == "p50" ? 0.5 : fn == "p90" ? 0.9 : 0.99;
  } else {
    *error = "unknown signal '" + std::string(fn) +
             "' (value|rate|ewma|p50|p90|p99|absent|burn_rate)";
    return false;
  }

  if (rule->signal == AlertSignal::kBurnRate) {
    std::size_t split = std::string_view::npos;
    int depth = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == '{') ++depth;
      else if (args[i] == '}') --depth;
      else if (args[i] == ',' && depth == 0) split = i;
    }
    if (split == std::string_view::npos) {
      *error = "burn_rate needs (series, budget_per_s)";
      return false;
    }
    rule->series = std::string(trim(args.substr(0, split)));
    if (!parse_number(trim(args.substr(split + 1)), &rule->budget_per_s) ||
        rule->budget_per_s <= 0) {
      *error = "burn_rate budget must be a positive number";
      return false;
    }
  } else {
    rule->series = std::string(args);
  }
  if (rule->series.empty()) {
    *error = "empty series name";
    return false;
  }
  return true;
}

}  // namespace

std::optional<std::vector<AlertRule>> parse_alert_rules(
    std::string_view text, std::vector<AlertParseError>* errors) {
  std::vector<AlertRule> rules;
  bool ok = true;
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const auto nl = text.find('\n');
    std::string_view line = trim(text.substr(0, nl));
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (line.empty() || line.front() == '#') continue;

    const auto colon = line.find(':');
    if (colon == std::string_view::npos) {
      add_error(errors, line_no, "expected '<name>: <expr>'");
      ok = false;
      continue;
    }
    AlertRule rule;
    rule.name = std::string(trim(line.substr(0, colon)));
    if (rule.name.empty() ||
        rule.name.find_first_of(" \t\"{}") != std::string::npos) {
      add_error(errors, line_no, "rule name must be a bare token");
      ok = false;
      continue;
    }

    std::string_view rest = trim(line.substr(colon + 1));
    std::string error;
    if (!parse_signal_call(&rest, &rule, &error)) {
      add_error(errors, line_no, error);
      ok = false;
      continue;
    }
    rest = trim(rest);

    if (rule.signal != AlertSignal::kAbsent) {
      if (rest.rfind(">=", 0) == 0) {
        rule.op = AlertOp::kGe;
        rest = trim(rest.substr(2));
      } else if (rest.rfind("<=", 0) == 0) {
        rule.op = AlertOp::kLe;
        rest = trim(rest.substr(2));
      } else if (rest.rfind('>', 0) == 0) {
        rule.op = AlertOp::kGt;
        rest = trim(rest.substr(1));
      } else if (rest.rfind('<', 0) == 0) {
        rule.op = AlertOp::kLt;
        rest = trim(rest.substr(1));
      } else {
        add_error(errors, line_no, "expected comparison (> >= < <=)");
        ok = false;
        continue;
      }
      const auto for_pos = rest.find(" for ");
      std::string_view num =
          for_pos == std::string_view::npos ? rest : rest.substr(0, for_pos);
      if (!parse_number(trim(num), &rule.threshold)) {
        add_error(errors, line_no, "threshold is not a number");
        ok = false;
        continue;
      }
      rest = for_pos == std::string_view::npos
                 ? std::string_view{}
                 : trim(rest.substr(for_pos + 1));
    }

    if (!rest.empty()) {
      if (rest.rfind("for ", 0) != 0 ||
          !parse_size(trim(rest.substr(4)), &rule.for_windows)) {
        add_error(errors, line_no,
                  "trailing text (expected 'for <windows>=1>')");
        ok = false;
        continue;
      }
    }
    rules.push_back(std::move(rule));
  }
  if (!ok) return std::nullopt;
  return rules;
}

std::optional<std::vector<AlertRule>> load_alert_rules(
    const std::string& path, std::vector<AlertParseError>* errors) {
  const auto body = read_text_file(path);
  if (!body.has_value()) {
    add_error(errors, 0, "cannot open " + path);
    return std::nullopt;
  }
  return parse_alert_rules(*body, errors);
}

std::string render_alert_rule(const AlertRule& rule) {
  std::string out = rule.name + ": ";
  switch (rule.signal) {
    case AlertSignal::kQuantile:
      out += rule.quantile >= 0.99 ? "p99" : rule.quantile >= 0.9 ? "p90"
                                                                  : "p50";
      out += "(" + rule.series + ")";
      break;
    case AlertSignal::kBurnRate:
      out += "burn_rate(" + rule.series + ", " +
             fmt_double(rule.budget_per_s) + ")";
      break;
    default:
      out += std::string(alert_signal_name(rule.signal)) + "(" + rule.series +
             ")";
      break;
  }
  if (rule.signal != AlertSignal::kAbsent) {
    out += " " + std::string(alert_op_name(rule.op)) + " " +
           fmt_double(rule.threshold);
  }
  out += " for " + std::to_string(rule.for_windows);
  return out;
}

std::optional<NodeId> series_node_label(std::string_view name) {
  const auto pos = name.find("node=\"");
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view digits = name.substr(pos + 6);
  const auto end = digits.find('"');
  if (end == std::string_view::npos || end == 0) return std::nullopt;
  digits = digits.substr(0, end);
  std::uint32_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
    if (value > kInvalidNode) return std::nullopt;
  }
  return static_cast<NodeId>(value);
}

// --- TimelineEngine ---------------------------------------------------------

TimelineEngine::TimelineEngine(Simulator& sim, TraceRouter& router,
                               TimelineConfig cfg)
    : sim_(&sim),
      router_(&router),
      interval_(std::max<SimTime>(cfg.interval, 1)),
      timer_(sim) {
  timer_.set_tag("timeline");
  timer_.set_callback([this] { sample_now(); });
}

void TimelineEngine::set_rules(std::vector<AlertRule> rules) {
  alerts_.clear();
  alerts_.reserve(rules.size());
  for (auto& rule : rules) {
    AlertState state;
    state.rule = std::move(rule);
    state.index = alerts_.size();
    alerts_.push_back(std::move(state));
  }
}

bool TimelineEngine::set_jsonl(const std::string& path) {
  meta_written_ = false;
  return jsonl_.open(path);
}

void TimelineEngine::start() {
  if (!timer_.running()) timer_.start_periodic(interval_);
}

TimelineEngine::SeriesEntry::SeriesEntry(SimTime interval,
                                         const std::string& name)
    : series(interval) {
  json_key.push_back('"');
  json_key += JsonValue::escape(name);
  json_key += "\":";
}

const TimelineEngine::SeriesEntry* TimelineEngine::entry(
    std::string_view name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

const MetricSeries* TimelineEngine::series(std::string_view name) const {
  const SeriesEntry* e = entry(name);
  return e == nullptr ? nullptr : &e->series;
}

std::uint64_t TimelineEngine::alerts_fired_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& a : alerts_) total += a.fired;
  return total;
}

std::uint64_t TimelineEngine::alerts_resolved_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& a : alerts_) total += a.resolved;
  return total;
}

void TimelineEngine::write_meta_line() {
  std::string line = "{\"meta\":{\"interval_us\":" +
                     std::to_string(interval_) + ",\"rules\":[";
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    if (i > 0) line.push_back(',');
    line.push_back('"');
    line += JsonValue::escape(render_alert_rule(alerts_[i].rule));
    line.push_back('"');
  }
  line += "]}}";
  jsonl_.write_line(line);
}

void TimelineEngine::sample_now() {
  const auto wall_start = std::chrono::steady_clock::now();
  const SimTime now = sim_->now();

  scratch_.clear();
  if (collector_) collector_(scratch_);

  ++samples_;
  std::size_t pos = 0;
  scratch_.visit_samples([this, now, &pos](const std::string& name,
                                           double value, SampleKind kind) {
    // Sample names keep their address for the registry's lifetime, so a
    // matching address at the same position is the same series as last
    // pass: no string is read and no map is walked.
    if (pos == visit_order_.size()) visit_order_.push_back({});
    VisitSlot& slot = visit_order_[pos++];
    if (slot.name != &name) {
      slot.name = &name;
      slot.entry = nullptr;
      if (!is_bucket_sample(name)) {
        auto sit = series_.find(name);
        if (sit == series_.end()) {
          sit = series_
                    .emplace(name, SeriesEntry(interval_, name))
                    .first;
          json_order_.insert(
              json_order_.begin() + std::distance(series_.begin(), sit),
              &sit->second);
        }
        slot.entry = &sit->second;
      }
    }
    if (slot.entry == nullptr) return;  // histogram bucket detail, skipped
    const bool cumulative = kind != SampleKind::kGauge;
    SeriesEntry& entry = *slot.entry;
    double v = value;
    if (cumulative) {
      // Delta-encode against the previous absolute value; a shrinking
      // cumulative sample means its owner reset (state-loss reboot), and
      // the honest bounded answer for that interval is "no progress seen".
      v = value - entry.prev_absolute;
      if (v < 0.0) {
        v = 0.0;
        ++counter_resets_;
      }
      entry.prev_absolute = value;
    }
    entry.series.append(now, v);
    entry.last_sample = samples_;
  });

  if (jsonl_.is_open()) {
    if (!meta_written_) {
      write_meta_line();
      meta_written_ = true;
    }
    std::string line;
    line.reserve(jsonl_line_hint_);
    line += "{\"t\":";
    append_double(line,
                  static_cast<double>(now) / static_cast<double>(kSecond));
    line += ",\"v\":{";
    bool first = true;
    for (const SeriesEntry* entry : json_order_) {
      if (entry->last_sample != samples_) continue;  // no sample this pass
      if (!first) line.push_back(',');
      first = false;
      line += entry->json_key;
      append_double(line, entry->series.last());
    }
    line += "}}";
    jsonl_line_hint_ = std::max(jsonl_line_hint_, line.size() + 64);
    jsonl_.write_line(line);
  }

  evaluate_alerts(now);

  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
}

double TimelineEngine::eval_signal(const AlertRule& rule,
                                   const MetricSeries* s) const {
  if (s == nullptr) return 0.0;
  switch (rule.signal) {
    case AlertSignal::kValue: return s->last();
    case AlertSignal::kRate: return s->window_rate(kTimelineRateWindow);
    case AlertSignal::kEwma: return s->ewma();
    case AlertSignal::kQuantile: return s->window_quantile(rule.quantile);
    case AlertSignal::kBurnRate:
      return s->window_rate(kTimelineRateWindow) / rule.budget_per_s;
    case AlertSignal::kAbsent: return 0.0;  // handled by the caller
  }
  return 0.0;
}

void TimelineEngine::evaluate_alerts(SimTime now) {
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    AlertState& alert = alerts_[i];
    const AlertRule& rule = alert.rule;
    bool condition = false;
    if (rule.signal == AlertSignal::kAbsent) {
      // Absent means "not reported in this sampling pass", not "never seen":
      // a series that existed and then stopped is exactly the case to page on.
      const SeriesEntry* e = entry(rule.series);
      condition = e == nullptr || e->last_sample != samples_;
      alert.last_signal = condition ? 1.0 : 0.0;
    } else {
      const double v = eval_signal(rule, series(rule.series));
      alert.last_signal = v;
      switch (rule.op) {
        case AlertOp::kGt: condition = v > rule.threshold; break;
        case AlertOp::kGe: condition = v >= rule.threshold; break;
        case AlertOp::kLt: condition = v < rule.threshold; break;
        case AlertOp::kLe: condition = v <= rule.threshold; break;
      }
    }

    const std::optional<NodeId> node = series_node_label(rule.series);
    if (condition) {
      ++alert.consecutive;
      if (!alert.active && alert.consecutive >= rule.for_windows) {
        alert.active = true;
        ++alert.fired;
        alert.last_fired = now;
        router_->record(node.value_or(kSinkNode), TraceEvent::kAlertFired, i,
                        node.value_or(0));
        jsonl_.write_line(
            "{\"t\":" +
            fmt_double(static_cast<double>(now) /
                       static_cast<double>(kSecond)) +
            ",\"alert\":\"" + JsonValue::escape(rule.name) +
            "\",\"state\":\"fired\",\"signal\":" +
            fmt_double(alert.last_signal) + ",\"rule\":\"" +
            JsonValue::escape(render_alert_rule(rule)) + "\"}");
        router_->dump(node.value_or(kSinkNode), "alert:" + rule.name);
      }
    } else {
      alert.consecutive = 0;
      if (alert.active) {
        alert.active = false;
        ++alert.resolved;
        alert.last_resolved = now;
        router_->record(node.value_or(kSinkNode), TraceEvent::kAlertResolved,
                        i, node.value_or(0));
        jsonl_.write_line(
            "{\"t\":" +
            fmt_double(static_cast<double>(now) /
                       static_cast<double>(kSecond)) +
            ",\"alert\":\"" + JsonValue::escape(rule.name) +
            "\",\"state\":\"resolved\",\"signal\":" +
            fmt_double(alert.last_signal) + ",\"rule\":\"" +
            JsonValue::escape(render_alert_rule(rule)) + "\"}");
      }
    }
  }
}

void TimelineEngine::collect_metrics(MetricsRegistry& registry) const {
  registry.describe("telea_timeline_samples_total",
                    "Timeline sampling passes taken");
  registry.counter("telea_timeline_samples_total").set_total(samples_);
  registry.describe("telea_timeline_series",
                    "Distinct metric series the timeline engine tracks");
  registry.gauge("telea_timeline_series")
      .set(static_cast<double>(series_.size()));
  registry.describe(
      "telea_timeline_counter_resets_total",
      "Negative counter deltas clamped to zero (owner reset between samples)");
  registry.counter("telea_timeline_counter_resets_total")
      .set_total(counter_resets_);
  for (const auto& alert : alerts_) {
    const MetricLabels labels = {{"rule", alert.rule.name}};
    registry.describe("telea_alert_fired_total",
                      "Alert-rule firings (per rule)");
    registry.counter("telea_alert_fired_total", labels).set_total(alert.fired);
    registry.describe("telea_alert_resolved_total",
                      "Alert-rule resolutions (per rule)");
    registry.counter("telea_alert_resolved_total", labels)
        .set_total(alert.resolved);
    registry.describe("telea_alert_active",
                      "1 while the alert rule is currently firing");
    registry.gauge("telea_alert_active", labels)
        .set(alert.active ? 1.0 : 0.0);
  }
}

}  // namespace telea
