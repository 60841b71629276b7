// telea_top — operator's view of the network's in-band health telemetry.
// Consumes the snapshot JSONL that `telea_sim health=FILE` (or
// Network::append_health_snapshot) appends one line per period, renders the
// *latest* snapshot as a per-node table plus aggregate summary, and can
// follow a growing file. Also renders flight-recorder dump JSONL
// (`telea_sim flightrec=FILE`) for post-mortem reading.
//
//   $ ./telea_top health=run.health.jsonl
//   $ ./telea_top health=run.health.jsonl watch=true interval=2
//   $ ./telea_top health=run.health.jsonl timeline=run.timeline.jsonl
//   $ ./telea_top flightrec=run.flight.jsonl
//
// Options (key=value):
//   health=FILE       health snapshot JSONL; the last parsable line is shown
//   flightrec=FILE    flight dump JSONL; every dump is rendered in order
//   timeline=FILE     timeline JSONL (telea_sim timeline=FILE): adds a
//                     per-node sparkline column of `spark_metric`'s history
//   spark_metric=NAME metric family for the sparkline column
//                     (default telea_duty_cycle)
//   watch=false       health only: poll FILE and re-render when it grows
//   interval=2        watch poll interval in seconds
//   limit=0           show only the N stalest nodes (0 = all, sorted by id)
//
// Exit codes: 0 ok; 1 no parsable snapshot/dump in the input; 2 usage error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "stats/table.hpp"
#include "stats/trace.hpp"
#include "util/config.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

namespace {

using telea::JsonlObjects;
using telea::JsonValue;
using telea::TextTable;
using telea::read_text_file;

int usage() {
  std::fprintf(stderr,
               "usage: telea_top health=FILE [watch=BOOL] [interval=S] "
               "[limit=N]\n"
               "                 [timeline=FILE] [spark_metric=NAME]\n"
               "       telea_top flightrec=FILE\n");
  return 2;
}

/// Last parsable JSON object line of a JSONL file — the newest snapshot.
std::optional<JsonValue> last_json_line(const std::string& text) {
  std::optional<JsonValue> last;
  JsonlObjects lines(text);
  while (auto v = lines.next()) last = std::move(v);
  return last;
}

/// Per-node value history of one metric family, keyed by node id, pulled
/// from the timeline JSONL's sample lines. A series contributes when its
/// name contains `metric` and carries a `node="N"` label.
std::map<double, std::vector<double>> load_sparks(const std::string& text,
                                                  const std::string& metric) {
  std::map<double, std::vector<double>> by_node;
  JsonlObjects lines(text);
  while (const auto v = lines.next()) {
    const JsonValue* values = v->find("v");
    if (values == nullptr || values->type() != JsonValue::Type::kObject) {
      continue;
    }
    for (const auto& [name, value] : values->as_object()) {
      if (value.type() != JsonValue::Type::kNumber) continue;
      if (name.find(metric) == std::string::npos) continue;
      const std::size_t label = name.find("node=\"");
      if (label == std::string::npos) continue;
      char* parsed_end = nullptr;
      const double id = std::strtod(name.c_str() + label + 6, &parsed_end);
      if (parsed_end == name.c_str() + label + 6) continue;
      by_node[id].push_back(value.as_number());
    }
  }
  return by_node;
}

void render_snapshot(const JsonValue& snap, std::size_t limit,
                     const std::map<double, std::vector<double>>& sparks,
                     const std::string& spark_metric) {
  const double now_s = snap.number_or("t", 0.0);
  const double period_s = snap.number_or("period_s", 0.0);
  const double stale_after_s = snap.number_or("stale_after_s", 0.0);
  std::printf("t=%.0fs  period=%.0fs  stale-after=%.0fs\n", now_s, period_s,
              stale_after_s);
  std::printf(
      "coverage %s  fresh %.0f / tracked %.0f / expected %.0f   "
      "reports %.0f (%.0f stale-dropped)  in-band bytes %.0f\n",
      TextTable::fmt_pct(snap.number_or("coverage", 0.0), 1).c_str(),
      snap.number_or("fresh", 0.0), snap.number_or("tracked", 0.0),
      snap.number_or("expected", 0.0), snap.number_or("reports", 0.0),
      snap.number_or("stale_dropped", 0.0), snap.number_or("bytes", 0.0));

  const JsonValue* nodes = snap.find("nodes");
  if (nodes == nullptr || nodes->type() != JsonValue::Type::kArray) return;
  std::vector<const JsonValue*> rows;
  rows.reserve(nodes->as_array().size());
  for (const JsonValue& n : nodes->as_array()) {
    if (n.type() == JsonValue::Type::kObject) rows.push_back(&n);
  }
  if (limit > 0 && rows.size() > limit) {
    // Operator triage: the stalest nodes are the interesting ones.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const JsonValue* a, const JsonValue* b) {
                       return a->number_or("age_s", 0.0) >
                              b->number_or("age_s", 0.0);
                     });
    rows.resize(limit);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const JsonValue* a, const JsonValue* b) {
                       return a->number_or("id", 0.0) < b->number_or("id", 0.0);
                     });
  }

  std::vector<std::string> headers{"node", "age s", "state", "duty", "etx",
                                   "code len", "txq hwm", "fwdq hwm",
                                   "parent epoch", "energy mJ", "updates"};
  if (!sparks.empty()) headers.push_back(spark_metric);
  TextTable table(std::move(headers));
  for (const JsonValue* n : rows) {
    const double age = n->number_or("age_s", 0.0);
    const bool fresh = stale_after_s <= 0.0 || age <= stale_after_s;
    std::vector<std::string> cells{
        TextTable::fmt(n->number_or("id", 0.0), 0), TextTable::fmt(age, 0),
        fresh ? "fresh" : "STALE",
        TextTable::fmt_pct(n->number_or("duty", 0.0), 1),
        TextTable::fmt(n->number_or("etx10", 0.0) / 10.0, 1),
        TextTable::fmt(n->number_or("code_len", 0.0), 0),
        TextTable::fmt(n->number_or("txq_hwm", 0.0), 0),
        TextTable::fmt(n->number_or("fwdq_hwm", 0.0), 0),
        TextTable::fmt(n->number_or("parent_epoch", 0.0), 0),
        TextTable::fmt(n->number_or("energy_mj", 0.0), 0),
        TextTable::fmt(n->number_or("updates", 0.0), 0)};
    if (!sparks.empty()) {
      const auto it = sparks.find(n->number_or("id", -1.0));
      cells.push_back(it == sparks.end()
                          ? std::string{}
                          : telea::sparkline(it->second, 24));
    }
    table.row(std::move(cells));
  }
  table.print();
}

int render_flight_file(const std::string& text) {
  std::size_t dumps = 0;
  JsonlObjects lines(text);
  while (const auto v = lines.next()) {
    ++dumps;
    std::printf("flight dump #%zu: node %.0f at t=%.3fs trigger=%s "
                "(%.0f earlier events dropped)\n",
                dumps, v->number_or("node", 0.0), v->number_or("t", 0.0),
                v->string_or("trigger", "?").c_str(),
                v->number_or("dropped", 0.0));
    const JsonValue* events = v->find("events");
    if (events == nullptr || events->type() != JsonValue::Type::kArray) {
      continue;
    }
    for (const JsonValue& e : events->as_array()) {
      const auto r = telea::trace_record_from_json(e);
      if (!r.has_value()) continue;
      std::printf("  %10.3fs  %-16s a=%-6llu b=%llu",
                  telea::to_seconds(r->time), telea::trace_event_name(r->event),
                  static_cast<unsigned long long>(r->a),
                  static_cast<unsigned long long>(r->b));
      if (r->reason != telea::TraceReason::kNone) {
        std::printf("  [%s]", telea::trace_reason_name(r->reason));
      }
      std::printf("\n");
    }
  }
  if (dumps == 0) {
    std::fprintf(stderr, "telea_top: no parsable flight dumps\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const telea::Config cfg = telea::Config::from_args(argc - 1, argv + 1);
  if (!cfg.positional().empty()) {
    std::fprintf(stderr, "telea_top: unexpected argument '%s'\n",
                 cfg.positional().front().c_str());
    return usage();
  }
  const std::string health_path = cfg.get_string("health");
  const std::string flight_path = cfg.get_string("flightrec");
  const std::string timeline_path = cfg.get_string("timeline");
  const std::string spark_metric =
      cfg.get_string("spark_metric", "telea_duty_cycle");
  const bool watch = cfg.get_bool("watch", false);
  const double interval_s = cfg.get_double("interval", 2.0);
  const auto limit = static_cast<std::size_t>(cfg.get_int("limit", 0));
  if (!cfg.unused_keys().empty() ||
      (health_path.empty() && flight_path.empty())) {
    for (const auto& key : cfg.unused_keys()) {
      std::fprintf(stderr, "telea_top: unknown option '%s'\n", key.c_str());
    }
    return usage();
  }

  if (!flight_path.empty()) {
    const auto text = read_text_file(flight_path);
    if (!text.has_value()) {
      std::fprintf(stderr, "telea_top: cannot read %s\n", flight_path.c_str());
      return 2;
    }
    const int rc = render_flight_file(*text);
    if (rc != 0 || health_path.empty()) return rc;
    std::printf("\n");
  }

  auto render_once = [&]() -> int {
    const auto text = read_text_file(health_path);
    if (!text.has_value()) {
      std::fprintf(stderr, "telea_top: cannot read %s\n", health_path.c_str());
      return 2;
    }
    const auto snap = last_json_line(*text);
    if (!snap.has_value()) {
      std::fprintf(stderr, "telea_top: no parsable snapshot in %s\n",
                   health_path.c_str());
      return 1;
    }
    std::map<double, std::vector<double>> sparks;
    if (!timeline_path.empty()) {
      const auto timeline_text = read_text_file(timeline_path);
      if (!timeline_text.has_value()) {
        std::fprintf(stderr, "telea_top: cannot read %s\n",
                     timeline_path.c_str());
        return 2;
      }
      sparks = load_sparks(*timeline_text, spark_metric);
      if (sparks.empty()) {
        std::fprintf(stderr,
                     "telea_top: no node-labeled '%s' series in %s\n",
                     spark_metric.c_str(), timeline_path.c_str());
      }
    }
    render_snapshot(*snap, limit, sparks, spark_metric);
    return 0;
  };

  int rc = render_once();
  if (!watch || rc == 2) return rc;

  // Follow mode: re-render whenever the file grows. Uses file size, not
  // wall-clock content timestamps, so it stays within the repo's
  // no-wall-clock-entropy lint discipline.
  std::error_code ec;
  auto last_size = std::filesystem::file_size(health_path, ec);
  for (;;) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(interval_s * 1000.0)));
    const auto size = std::filesystem::file_size(health_path, ec);
    if (ec || size == last_size) continue;
    last_size = size;
    std::printf("\n");
    rc = render_once();
    if (rc == 2) return rc;
  }
}
