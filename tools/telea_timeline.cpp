// telea_timeline — renders, summarizes, and diffs the timeline JSONL that
// `telea_sim timeline=FILE` (or the churn soak's timeline arm) streams: one
// meta line (sampling interval and rules), one {"t","v":{series:value}} line
// per sample, and one {"t","alert",...} line per alert transition.
//
// The tool rebuilds each series from the stream with the engine's own code
// (src/stats/timeline.*): the raw ring the in-sim engine held, plus the mid
// and coarse tiers folded at the fixed layout, which only this tool builds.
//
//   $ ./telea_timeline timeline=run.timeline.jsonl
//   $ ./telea_timeline timeline=run.timeline.jsonl series=telea_duty_cycle
//   $ ./telea_timeline timeline=a.jsonl diff=b.jsonl tolerance=0.01
//
// Options (key=value):
//   timeline=FILE    the timeline JSONL to read (required)
//   series=NAME      render one series: exact sample name, or a substring
//                    matching exactly one series
//   tier=raw         raw | mid | coarse — which resolution to render
//   format=table     table | csv | json
//   spark=true       table format: append an ASCII sparkline line
//   limit=0          summary: list only the first N series (0 = all)
//   diff=FILE2       point-by-point comparison against a second timeline;
//                    prints per-series divergences and alert deltas
//   tolerance=0      diff: relative tolerance before a value counts as
//                    different (0 = exact)
//
// Exit codes: 0 ok / timelines identical; 1 no data or differences found;
// 2 usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "stats/table.hpp"
#include "stats/timeline.hpp"
#include "util/config.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

namespace {

using telea::AlertRule;
using telea::JsonlObjects;
using telea::JsonValue;
using telea::MetricSeries;
using telea::SimTime;
using telea::TextTable;
using telea::TimelineBucket;
using telea::TimelinePoint;
using telea::TimelineTiers;
using telea::kSecond;
using telea::read_text_file;

int usage() {
  std::fprintf(
      stderr,
      "usage: telea_timeline timeline=FILE [series=NAME] [tier=raw|mid|coarse]\n"
      "                      [format=table|csv|json] [spark=BOOL] [limit=N]\n"
      "       telea_timeline timeline=FILE diff=FILE2 [tolerance=X]\n");
  return 2;
}

struct AlertEvent {
  double t = 0.0;
  std::string name;
  std::string state;  // "fired" | "resolved"
  double signal = 0.0;
};

/// One rebuilt series: the engine's raw ring plus the downsampled tiers.
struct Series {
  MetricSeries ring;
  TimelineTiers tiers;
};

/// One parsed timeline stream: the meta interval and rules plus every
/// sample appended into a rebuilt Series.
struct Timeline {
  SimTime interval = 10 * kSecond;
  std::map<std::string, Series> series;
  std::vector<std::string> rules;  // rendered rule lines from the meta
  std::vector<AlertEvent> alerts;
  std::size_t samples = 0;
};

void apply_meta(const JsonValue& meta, Timeline* tl) {
  tl->interval =
      static_cast<SimTime>(meta.number_or("interval_us", 10.0 * kSecond));
  if (const JsonValue* rules = meta.find("rules");
      rules != nullptr && rules->type() == JsonValue::Type::kArray) {
    for (const JsonValue& r : rules->as_array()) {
      if (r.type() == JsonValue::Type::kString) {
        tl->rules.push_back(r.as_string());
      }
    }
  }
}

std::optional<Timeline> load_timeline(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text.has_value()) return std::nullopt;
  Timeline tl;
  JsonlObjects lines(*text);
  while (const auto v = lines.next()) {
    if (const JsonValue* meta = v->find("meta")) {
      apply_meta(*meta, &tl);
      continue;
    }
    if (v->find("alert") != nullptr) {
      AlertEvent ev;
      ev.t = v->number_or("t", 0.0);
      ev.name = v->string_or("alert", "?");
      ev.state = v->string_or("state", "?");
      ev.signal = v->number_or("signal", 0.0);
      tl.alerts.push_back(std::move(ev));
      continue;
    }
    const JsonValue* values = v->find("v");
    if (values == nullptr || values->type() != JsonValue::Type::kObject) {
      continue;
    }
    const auto t =
        static_cast<SimTime>(v->number_or("t", 0.0) * static_cast<double>(kSecond));
    ++tl.samples;
    for (const auto& [name, value] : values->as_object()) {
      if (value.type() != JsonValue::Type::kNumber) continue;
      auto it = tl.series.find(name);
      if (it == tl.series.end()) {
        // The stream stores counters already delta-encoded, so rebuilt
        // series take every value as-is, as the engine stored it.
        it = tl.series.emplace(name, Series{MetricSeries(tl.interval), {}})
                 .first;
      }
      it->second.ring.append(t, value.as_number());
      it->second.tiers.append(t, value.as_number());
    }
  }
  return tl;
}

std::vector<double> raw_values(const MetricSeries& s) {
  std::vector<double> out;
  out.reserve(s.raw().size());
  for (const TimelinePoint& p : s.raw()) out.push_back(p.value);
  return out;
}

/// series= resolution: exact name first, then unique substring.
const Series* resolve_series(const Timeline& tl, const std::string& key,
                             std::string* resolved) {
  if (const auto it = tl.series.find(key); it != tl.series.end()) {
    *resolved = it->first;
    return &it->second;
  }
  const Series* match = nullptr;
  std::size_t matches = 0;
  for (const auto& [name, s] : tl.series) {
    if (name.find(key) == std::string::npos) continue;
    ++matches;
    if (match == nullptr) {
      match = &s;
      *resolved = name;
    }
  }
  if (matches == 1) return match;
  if (matches > 1) {
    std::fprintf(stderr,
                 "telea_timeline: '%s' matches %zu series; candidates:\n",
                 key.c_str(), matches);
    for (const auto& [name, s] : tl.series) {
      (void)s;
      if (name.find(key) != std::string::npos) {
        std::fprintf(stderr, "  %s\n", name.c_str());
      }
    }
  }
  return nullptr;
}

double to_s(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

int render_series(const std::string& name, const Series& series,
                  const std::string& tier, const std::string& format,
                  bool spark) {
  const MetricSeries& s = series.ring;
  const bool raw = tier == "raw";
  const std::deque<TimelineBucket>& buckets =
      tier == "mid" ? series.tiers.mid() : series.tiers.coarse();
  if ((raw && s.raw().empty()) || (!raw && buckets.empty())) {
    std::fprintf(stderr, "telea_timeline: no %s-tier data for %s\n",
                 tier.c_str(), name.c_str());
    return 1;
  }

  if (format == "json") {
    std::ostringstream out;
    out << "{\"series\":\"" << JsonValue::escape(name) << "\",\"tier\":\""
        << tier << "\",\"points\":[";
    bool first = true;
    if (raw) {
      for (const TimelinePoint& p : s.raw()) {
        out << (first ? "" : ",") << "{\"t\":" << to_s(p.time)
            << ",\"value\":" << p.value << "}";
        first = false;
      }
    } else {
      for (const TimelineBucket& b : buckets) {
        out << (first ? "" : ",") << "{\"t\":" << to_s(b.start)
            << ",\"min\":" << b.min << ",\"mean\":" << b.mean()
            << ",\"max\":" << b.max << ",\"sum\":" << b.sum
            << ",\"count\":" << b.count << "}";
        first = false;
      }
    }
    out << "]}";
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  TextTable table(raw ? std::vector<std::string>{"t s", "value"}
                      : std::vector<std::string>{"t s", "min", "mean", "max",
                                                 "sum", "count"});
  if (raw) {
    for (const TimelinePoint& p : s.raw()) {
      table.row({TextTable::fmt(to_s(p.time), 0), TextTable::fmt(p.value, 4)});
    }
  } else {
    for (const TimelineBucket& b : buckets) {
      table.row({TextTable::fmt(to_s(b.start), 0), TextTable::fmt(b.min, 4),
                 TextTable::fmt(b.mean(), 4), TextTable::fmt(b.max, 4),
                 TextTable::fmt(b.sum, 4),
                 TextTable::fmt(static_cast<double>(b.count), 0)});
    }
  }
  if (format == "csv") {
    std::printf("%s", table.render_csv().c_str());
    return 0;
  }
  std::printf("%s (%s tier)\n%s", name.c_str(), tier.c_str(),
              table.render().c_str());
  if (spark && raw) {
    std::printf("spark: %s  (last %s, ewma %s)\n",
                telea::sparkline(raw_values(s), 60).c_str(),
                TextTable::fmt(s.last(), 4).c_str(),
                TextTable::fmt(s.ewma(), 4).c_str());
  }
  return 0;
}

int render_summary(const Timeline& tl, const std::string& path,
                   std::size_t limit) {
  std::printf("%s: %zu samples every %.0f s, %zu series, %zu alert "
              "transition(s)\n",
              path.c_str(), tl.samples, to_s(tl.interval),
              tl.series.size(), tl.alerts.size());
  for (const std::string& rule : tl.rules) {
    std::printf("rule: %s\n", rule.c_str());
  }
  for (const AlertEvent& ev : tl.alerts) {
    std::printf("alert: t=%.0fs %s %s (signal %s)\n", ev.t, ev.name.c_str(),
                ev.state.c_str(), TextTable::fmt(ev.signal, 4).c_str());
  }
  if (tl.series.empty()) {
    std::fprintf(stderr, "telea_timeline: no samples in %s\n", path.c_str());
    return 1;
  }
  TextTable table({"series", "points", "last", "ewma", "spark"});
  std::size_t shown = 0;
  for (const auto& [name, series] : tl.series) {
    if (limit > 0 && shown >= limit) break;
    ++shown;
    const MetricSeries& s = series.ring;
    table.row({name, std::to_string(s.total_points()),
               TextTable::fmt(s.last(), 4), TextTable::fmt(s.ewma(), 4),
               telea::sparkline(raw_values(s), 24)});
  }
  table.print();
  if (limit > 0 && tl.series.size() > limit) {
    std::printf("(%zu more series; series=NAME to inspect one)\n",
                tl.series.size() - shown);
  }
  return 0;
}

/// Point-by-point regression hunt between two runs' timelines.
int diff_timelines(const Timeline& a, const Timeline& b, double tolerance) {
  std::size_t differing_series = 0;
  std::size_t reported = 0;
  constexpr std::size_t kMaxReports = 20;

  const auto report = [&reported](const char* fmt, const std::string& name,
                                  const std::string& detail) {
    if (reported < kMaxReports) std::printf(fmt, name.c_str(), detail.c_str());
    ++reported;
  };

  for (const auto& [name, sa] : a.series) {
    const auto itb = b.series.find(name);
    if (itb == b.series.end()) {
      report("- %s: only in first timeline%s\n", name, "");
      ++differing_series;
      continue;
    }
    const auto& ra = sa.ring.raw();
    const auto& rb = itb->second.ring.raw();
    const std::size_t n = std::min(ra.size(), rb.size());
    bool differs = ra.size() != rb.size();
    std::string detail;
    if (differs) {
      detail = ": " + std::to_string(ra.size()) + " vs " +
               std::to_string(rb.size()) + " points";
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double va = ra[i].value;
      const double vb = rb[i].value;
      const double scale = std::max(std::fabs(va), std::fabs(vb));
      if (ra[i].time != rb[i].time ||
          std::fabs(va - vb) > tolerance * scale + 1e-12) {
        differs = true;
        detail = ": first divergence at t=" +
                 TextTable::fmt(to_s(ra[i].time), 0) + "s (" +
                 TextTable::fmt(va, 6) + " vs " + TextTable::fmt(vb, 6) + ")";
        break;
      }
    }
    if (differs) {
      report("~ %s%s\n", name, detail);
      ++differing_series;
    }
  }
  for (const auto& [name, sb] : b.series) {
    (void)sb;
    if (!a.series.contains(name)) {
      report("+ %s: only in second timeline%s\n", name, "");
      ++differing_series;
    }
  }
  if (reported > kMaxReports) {
    std::printf("... %zu more differing series\n", reported - kMaxReports);
  }

  // Alert transitions compare as ordered (name, state) sequences.
  const auto alert_key = [](const AlertEvent& ev) {
    return ev.name + "/" + ev.state;
  };
  bool alerts_differ = a.alerts.size() != b.alerts.size();
  for (std::size_t i = 0; !alerts_differ && i < a.alerts.size(); ++i) {
    alerts_differ = alert_key(a.alerts[i]) != alert_key(b.alerts[i]);
  }
  if (alerts_differ) {
    std::printf("~ alert transitions differ: %zu vs %zu\n", a.alerts.size(),
                b.alerts.size());
  }

  if (differing_series == 0 && !alerts_differ) {
    std::printf("timelines identical: %zu series, %zu samples\n",
                a.series.size(), a.samples);
    return 0;
  }
  std::printf("%zu of %zu series differ%s\n", differing_series,
              std::max(a.series.size(), b.series.size()),
              alerts_differ ? " (and alert transitions differ)" : "");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const telea::Config cfg = telea::Config::from_args(argc - 1, argv + 1);
  if (!cfg.positional().empty()) {
    std::fprintf(stderr, "telea_timeline: unexpected argument '%s'\n",
                 cfg.positional().front().c_str());
    return usage();
  }
  const std::string timeline_path = cfg.get_string("timeline");
  const std::string series_key = cfg.get_string("series");
  const std::string tier = cfg.get_string("tier", "raw");
  const std::string format = cfg.get_string("format", "table");
  const bool spark = cfg.get_bool("spark", true);
  const auto limit = static_cast<std::size_t>(cfg.get_int("limit", 0));
  const std::string diff_path = cfg.get_string("diff");
  const double tolerance = cfg.get_double("tolerance", 0.0);
  if (!cfg.unused_keys().empty() || timeline_path.empty()) {
    for (const auto& key : cfg.unused_keys()) {
      std::fprintf(stderr, "telea_timeline: unknown option '%s'\n",
                   key.c_str());
    }
    return usage();
  }
  if (tier != "raw" && tier != "mid" && tier != "coarse") {
    std::fprintf(stderr, "telea_timeline: unknown tier '%s'\n", tier.c_str());
    return usage();
  }
  if (format != "table" && format != "csv" && format != "json") {
    std::fprintf(stderr, "telea_timeline: unknown format '%s'\n",
                 format.c_str());
    return usage();
  }

  const auto tl = load_timeline(timeline_path);
  if (!tl.has_value()) {
    std::fprintf(stderr, "telea_timeline: cannot read %s\n",
                 timeline_path.c_str());
    return 2;
  }

  if (!diff_path.empty()) {
    const auto other = load_timeline(diff_path);
    if (!other.has_value()) {
      std::fprintf(stderr, "telea_timeline: cannot read %s\n",
                   diff_path.c_str());
      return 2;
    }
    return diff_timelines(*tl, *other, tolerance);
  }

  if (!series_key.empty()) {
    std::string resolved;
    const Series* s = resolve_series(*tl, series_key, &resolved);
    if (s == nullptr) {
      std::fprintf(stderr, "telea_timeline: no series matches '%s'\n",
                   series_key.c_str());
      return 1;
    }
    return render_series(resolved, *s, tier, format, spark);
  }

  return render_summary(*tl, timeline_path, limit);
}
