#include "stats/spans.hpp"

#include <algorithm>
#include <cstdio>

#include "stats/summary.hpp"

namespace telea {
namespace {

/// Events that participate in span reconstruction for a given seqno.
bool span_relevant(TraceEvent e) noexcept {
  switch (e) {
    case TraceEvent::kControlTx:
    case TraceEvent::kForwardDecision:
    case TraceEvent::kBacktrack:
    case TraceEvent::kRedirect:
    case TraceEvent::kControlTxDone:
    case TraceEvent::kControlDelivered:
      return true;
    default:
      return false;
  }
}

void append_segment(std::vector<SpanSegment>& segments, SimTime start,
                    SimTime end, SegmentKind kind, NodeId node) {
  if (end <= start) return;
  if (!segments.empty() && segments.back().kind == kind &&
      segments.back().node == node && segments.back().end == start) {
    segments.back().end = end;
    return;
  }
  segments.push_back(SpanSegment{start, end, kind, node, 0});
}

CommandSpan build_one(std::uint32_t seqno,
                      const std::vector<TraceRecord>& events) {
  CommandSpan span;
  span.seqno = seqno;
  span.start = events.front().time;
  span.origin = events.front().node;
  for (const auto& e : events) {
    if (e.event == TraceEvent::kControlTx) {
      // The command properly starts at the origin's first transmission;
      // earlier stray records (possible after partial ring eviction) are
      // kept as the start only when no transmission survived at all.
      span.origin = e.node;
      span.start = e.time;
      break;
    }
  }
  span.end = events.back().time;
  for (const auto& e : events) {
    if (e.event == TraceEvent::kControlDelivered && e.time >= span.start) {
      span.delivered = true;
      span.dest = e.node;
      span.end = e.time;
      break;
    }
  }
  if (span.end < span.start) span.end = span.start;

  // --- segment partition ---------------------------------------------------
  // Walk events in [start, end]; each gap between consecutive events becomes
  // one segment labeled by the carrier's current activity. The gap ending at
  // a claim (or delivery) whose predecessor is another node's transmission is
  // that copy's airtime; everything else inherits the running mode.
  SegmentKind mode = SegmentKind::kLplWait;
  NodeId holder = span.origin;
  const TraceRecord* prev = nullptr;
  for (const auto& e : events) {
    if (e.time < span.start || e.time > span.end) continue;
    if (prev != nullptr) {
      SegmentKind kind = mode;
      NodeId node = holder;
      const bool arrival = e.event == TraceEvent::kForwardDecision ||
                           e.event == TraceEvent::kControlDelivered;
      if (arrival && prev->event == TraceEvent::kControlTx &&
          prev->node != e.node) {
        kind = SegmentKind::kAirtime;
        node = prev->node;
      }
      append_segment(span.segments, prev->time, e.time, kind, node);
    }
    switch (e.event) {
      case TraceEvent::kControlTx:
        holder = e.node;
        mode = SegmentKind::kLplWait;
        break;
      case TraceEvent::kBacktrack:
        mode = SegmentKind::kBacktrack;
        holder = e.node;
        break;
      case TraceEvent::kRedirect:
        mode = SegmentKind::kDetour;
        break;
      default:
        break;
    }
    prev = &e;
  }

  // --- per-segment copy counts --------------------------------------------
  for (auto& seg : span.segments) {
    for (const auto& e : events) {
      if (e.event == TraceEvent::kControlTx && e.time >= seg.start &&
          e.time < seg.end) {
        ++seg.copies;
      }
    }
  }

  // --- hop spans -----------------------------------------------------------
  // Tenure boundaries: the origin's first transmission plus every claim, in
  // timeline order (concurrent opportunistic claims resolve by time).
  std::vector<std::pair<SimTime, NodeId>> starts;
  starts.emplace_back(span.start, span.origin);
  for (const auto& e : events) {
    if (e.event != TraceEvent::kForwardDecision) continue;
    if (e.time < span.start || e.time > span.end) continue;
    if (starts.back().second != e.node) starts.emplace_back(e.time, e.node);
  }
  for (std::size_t i = 0; i < starts.size(); ++i) {
    HopSpan hop;
    hop.node = starts[i].second;
    hop.start = starts[i].first;
    hop.end = i + 1 < starts.size() ? starts[i + 1].first : span.end;
    for (const auto& e : events) {
      if (e.event == TraceEvent::kControlTx && e.node == hop.node &&
          e.time >= hop.start && e.time < hop.end) {
        ++hop.copies;
      }
    }
    span.hops.push_back(hop);
  }
  return span;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

const char* segment_kind_name(SegmentKind k) noexcept {
  switch (k) {
    case SegmentKind::kLplWait: return "lpl_wait";
    case SegmentKind::kAirtime: return "airtime";
    case SegmentKind::kBacktrack: return "backtrack";
    case SegmentKind::kDetour: return "detour";
  }
  return "?";
}

SimTime CommandSpan::segment_total() const noexcept {
  SimTime total = 0;
  for (const auto& s : segments) total += s.end - s.start;
  return total;
}

double CommandSpan::segment_seconds(SegmentKind k) const noexcept {
  SimTime total = 0;
  for (const auto& s : segments) {
    if (s.kind == k) total += s.end - s.start;
  }
  return to_seconds(total);
}

bool CommandSpan::reconciles(SimTime tolerance) const noexcept {
  const SimTime lat = latency();
  const SimTime sum = segment_total();
  const SimTime gap = lat > sum ? lat - sum : sum - lat;
  return gap <= tolerance;
}

SegmentKind CommandSpan::dominant_segment() const noexcept {
  SimTime by_kind[kSegmentKinds] = {};
  for (const auto& s : segments) {
    by_kind[static_cast<std::size_t>(s.kind)] += s.end - s.start;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < kSegmentKinds; ++i) {
    if (by_kind[i] > by_kind[best]) best = i;
  }
  return static_cast<SegmentKind>(best);
}

std::vector<CommandSpan> build_command_spans(
    const std::vector<TraceRecord>& records) {
  std::map<std::uint32_t, std::vector<TraceRecord>> by_seqno;
  for (const auto& r : records) {
    if (!span_relevant(r.event)) continue;
    by_seqno[static_cast<std::uint32_t>(r.a)].push_back(r);
  }
  std::vector<CommandSpan> spans;
  spans.reserve(by_seqno.size());
  for (auto& [seqno, events] : by_seqno) {
    // Stable: simultaneous records keep their causal (insertion) order.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceRecord& x, const TraceRecord& y) {
                       return x.time < y.time;
                     });
    spans.push_back(build_one(seqno, events));
  }
  return spans;
}

std::size_t count_reconcile_failures(const std::vector<CommandSpan>& spans,
                                     SimTime tolerance) {
  std::size_t failures = 0;
  for (const auto& s : spans) {
    if (s.delivered && !s.reconciles(tolerance)) ++failures;
  }
  return failures;
}

CommandEnergy attribute_energy(const CommandSpan& span,
                               const SpanEnergyConfig& cfg) {
  CommandEnergy e;
  const double tx_delta_ma =
      std::max(0.0, cfg.tx_current_ma - cfg.rx_current_ma);
  for (const auto& seg : span.segments) {
    const double dur_s = to_seconds(seg.end - seg.start);
    const double listen_mj = dur_s * cfg.rx_current_ma * cfg.supply_volts;
    const double tx_mj = static_cast<double>(seg.copies) * cfg.copy_airtime_s *
                         tx_delta_ma * cfg.supply_volts;
    e.listen_uj += listen_mj * 1000.0;
    e.tx_uj += tx_mj * 1000.0;
    e.per_node_uj[seg.node] += (listen_mj + tx_mj) * 1000.0;
  }
  e.total_uj = e.listen_uj + e.tx_uj;
  return e;
}

TextTable render_critical_path_table(const std::vector<CommandSpan>& spans,
                                     const SpanEnergyConfig& cfg) {
  TextTable table({"seqno", "dest", "hops", "latency_s", "lpl_wait_s",
                   "airtime_s", "backtrack_s", "detour_s", "energy_uj",
                   "dominant"});
  for (const auto& span : spans) {
    const CommandEnergy e = attribute_energy(span, cfg);
    table.row({std::to_string(span.seqno),
               span.dest == kInvalidNode ? "?" : std::to_string(span.dest),
               std::to_string(span.hops.size()),
               TextTable::fmt(to_seconds(span.latency()), 6),
               TextTable::fmt(span.segment_seconds(SegmentKind::kLplWait), 6),
               TextTable::fmt(span.segment_seconds(SegmentKind::kAirtime), 6),
               TextTable::fmt(span.segment_seconds(SegmentKind::kBacktrack), 6),
               TextTable::fmt(span.segment_seconds(SegmentKind::kDetour), 6),
               TextTable::fmt(e.total_uj, 1),
               span.delivered ? segment_kind_name(span.dominant_segment())
                              : "(unresolved)"});
  }
  return table;
}

std::string render_report_json(const std::vector<CommandSpan>& spans,
                               const SpanEnergyConfig& cfg,
                               const std::string& name) {
  Cdf latency;
  Cdf energy;
  double seg_totals[kSegmentKinds] = {};
  double span_total_s = 0.0;
  std::size_t delivered = 0;
  for (const auto& span : spans) {
    if (!span.delivered) continue;
    ++delivered;
    latency.add(to_seconds(span.latency()));
    energy.add(attribute_energy(span, cfg).total_uj);
    span_total_s += to_seconds(span.latency());
    for (std::size_t i = 0; i < kSegmentKinds; ++i) {
      seg_totals[i] += span.segment_seconds(static_cast<SegmentKind>(i));
    }
  }

  std::string out = "{\n  \"name\": \"";
  json_escape_into(out, name);
  out += "\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"commands\": %zu,\n  \"delivered\": %zu,\n"
                "  \"reconcile_failures\": %zu,\n",
                spans.size(), delivered, count_reconcile_failures(spans));
  out += buf;
  const auto quantiles = [&](const Cdf& c) {
    char q[192];
    std::snprintf(q, sizeof(q),
                  "{\"p50\": %.6f, \"p90\": %.6f, \"p99\": %.6f, "
                  "\"max\": %.6f}",
                  c.quantile(0.5), c.quantile(0.9), c.quantile(0.99),
                  c.quantile(1.0));
    return std::string(q);
  };
  out += "  \"latency_s\": " + quantiles(latency) + ",\n";
  out += "  \"energy_uj\": " + quantiles(energy) + ",\n";
  out += "  \"segment_share\": {";
  for (std::size_t i = 0; i < kSegmentKinds; ++i) {
    const double share = span_total_s > 0.0 ? seg_totals[i] / span_total_s : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.4f", i == 0 ? "" : ", ",
                  segment_kind_name(static_cast<SegmentKind>(i)), share);
    out += buf;
  }
  out += "},\n  \"per_command\": [";
  bool first = true;
  for (const auto& span : spans) {
    const CommandEnergy e = attribute_energy(span, cfg);
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"seqno\": %u, \"dest\": %lld, \"hops\": %zu, "
        "\"delivered\": %s, \"reconciled\": %s, \"latency_s\": %.6f, "
        "\"energy_uj\": %.1f, \"dominant\": \"%s\",",
        first ? "" : ",", span.seqno,
        span.dest == kInvalidNode ? -1LL : static_cast<long long>(span.dest),
        span.hops.size(), span.delivered ? "true" : "false",
        span.reconciles() ? "true" : "false", to_seconds(span.latency()),
        e.total_uj, segment_kind_name(span.dominant_segment()));
    out += buf;
    out += " \"segments\": {";
    for (std::size_t i = 0; i < kSegmentKinds; ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6f", i == 0 ? "" : ", ",
                    segment_kind_name(static_cast<SegmentKind>(i)),
                    span.segment_seconds(static_cast<SegmentKind>(i)));
      out += buf;
    }
    out += "}}";
    first = false;
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string render_perfetto_json(const std::vector<CommandSpan>& spans) {
  std::string out = "{\"traceEvents\":[\n";
  char buf[320];
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"nodes\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"commands\"}}";

  std::vector<NodeId> nodes;
  for (const auto& span : spans) {
    for (const auto& hop : span.hops) {
      if (std::find(nodes.begin(), nodes.end(), hop.node) == nodes.end()) {
        nodes.push_back(hop.node);
      }
    }
  }
  std::sort(nodes.begin(), nodes.end());
  for (const NodeId n : nodes) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%u,\"args\":{\"name\":\"node %u\"}}",
                  n, n);
    out += buf;
  }
  for (const auto& span : spans) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"cmd %u\"}}",
                  span.seqno, span.seqno);
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        ",\n{\"name\":\"cmd %u -> node %lld\",\"cat\":\"command\","
        "\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,\"pid\":1,\"tid\":%u,"
        "\"args\":{\"delivered\":%s,\"hops\":%zu}}",
        span.seqno,
        span.dest == kInvalidNode ? -1LL : static_cast<long long>(span.dest),
        static_cast<unsigned long long>(span.start),
        static_cast<unsigned long long>(span.latency()), span.seqno,
        span.delivered ? "true" : "false", span.hops.size());
    out += buf;
    for (const auto& seg : span.segments) {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"cat\":\"segment\",\"ph\":\"X\","
                    "\"ts\":%llu,\"dur\":%llu,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"node\":%u,\"copies\":%u}}",
                    segment_kind_name(seg.kind),
                    static_cast<unsigned long long>(seg.start),
                    static_cast<unsigned long long>(seg.end - seg.start),
                    span.seqno, seg.node, seg.copies);
      out += buf;
    }
    for (const auto& hop : span.hops) {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"relay cmd %u\",\"cat\":\"hop\","
                    "\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,\"pid\":0,"
                    "\"tid\":%u,\"args\":{\"seqno\":%u,\"copies\":%u}}",
                    span.seqno, static_cast<unsigned long long>(hop.start),
                    static_cast<unsigned long long>(hop.end - hop.start),
                    hop.node, span.seqno, hop.copies);
      out += buf;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace telea
