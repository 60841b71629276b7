#include "stats/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/simulator.hpp"
#include "util/enum_name.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

namespace telea {

const char* trace_event_name(TraceEvent e) noexcept {
  switch (e) {
    case TraceEvent::kControlTx: return "control_tx";
    case TraceEvent::kParentChange: return "parent_change";
    case TraceEvent::kCodeChange: return "code_change";
    case TraceEvent::kKill: return "kill";
    case TraceEvent::kRevive: return "revive";
    case TraceEvent::kForwardDecision: return "forward_decision";
    case TraceEvent::kSuppress: return "suppress";
    case TraceEvent::kBacktrack: return "backtrack";
    case TraceEvent::kRedirect: return "redirect";
    case TraceEvent::kAckPath: return "ack_path";
    case TraceEvent::kCommandRetry: return "command_retry";
    case TraceEvent::kCommandResolve: return "command_resolve";
    case TraceEvent::kLinkFault: return "link_fault";
    case TraceEvent::kNoiseBurst: return "noise_burst";
    case TraceEvent::kReboot: return "reboot";
    case TraceEvent::kInvariantViolation: return "invariant_violation";
    case TraceEvent::kControlTxDone: return "control_tx_done";
    case TraceEvent::kControlDelivered: return "control_delivered";
    case TraceEvent::kFlightDump: return "flight_dump";
    case TraceEvent::kAlertFired: return "alert_fired";
    case TraceEvent::kAlertResolved: return "alert_resolved";
    case TraceEvent::kAckTimeout: return "ack_timeout";
    case TraceEvent::kGiveUp: return "give_up";
  }
  return "?";
}

const char* trace_reason_name(TraceReason r) noexcept {
  switch (r) {
    case TraceReason::kNone: return "none";
    case TraceReason::kExpectedRelay: return "expected_relay";
    case TraceReason::kLongerPrefix: return "longer_prefix";
    case TraceReason::kNeighborPrefix: return "neighbor_prefix";
    case TraceReason::kRetryExhausted: return "retry_exhausted";
    case TraceReason::kNeighborUnreachable: return "neighbor_unreachable";
    case TraceReason::kAckTimeout: return "ack_timeout";
    case TraceReason::kEscalated: return "escalated";
    case TraceReason::kBudgetExhausted: return "budget_exhausted";
  }
  return "?";
}

TraceSink trace_event_sink(TraceEvent e) noexcept {
  switch (e) {
    case TraceEvent::kControlTx: return TraceSink::kTrace;
    case TraceEvent::kParentChange: return TraceSink::kBoth;
    case TraceEvent::kCodeChange: return TraceSink::kBoth;
    case TraceEvent::kKill: return TraceSink::kTrace;
    case TraceEvent::kRevive: return TraceSink::kTrace;
    case TraceEvent::kForwardDecision: return TraceSink::kBoth;
    case TraceEvent::kSuppress: return TraceSink::kBoth;
    case TraceEvent::kBacktrack: return TraceSink::kBoth;
    case TraceEvent::kRedirect: return TraceSink::kTrace;
    case TraceEvent::kAckPath: return TraceSink::kTrace;
    case TraceEvent::kCommandRetry: return TraceSink::kTrace;
    case TraceEvent::kCommandResolve: return TraceSink::kTrace;
    case TraceEvent::kLinkFault: return TraceSink::kTrace;
    case TraceEvent::kNoiseBurst: return TraceSink::kTrace;
    case TraceEvent::kReboot: return TraceSink::kBoth;
    case TraceEvent::kInvariantViolation: return TraceSink::kTrace;
    case TraceEvent::kControlTxDone: return TraceSink::kTrace;
    case TraceEvent::kControlDelivered: return TraceSink::kTrace;
    case TraceEvent::kFlightDump: return TraceSink::kTrace;
    case TraceEvent::kAlertFired: return TraceSink::kBoth;
    case TraceEvent::kAlertResolved: return TraceSink::kTrace;
    case TraceEvent::kAckTimeout: return TraceSink::kRing;
    case TraceEvent::kGiveUp: return TraceSink::kRing;
  }
  return TraceSink::kTrace;
}

std::optional<TraceEvent> trace_event_from_name(std::string_view name) noexcept {
  return enum_from_name(name, trace_event_name);
}

std::optional<TraceReason> trace_reason_from_name(
    std::string_view name) noexcept {
  return enum_from_name(name, trace_reason_name);
}

Tracer::Tracer(std::size_t capacity) : ring_(std::max<std::size_t>(capacity, 1)) {}

void Tracer::record(SimTime time, NodeId node, TraceEvent event,
                    std::uint64_t a, std::uint64_t b, TraceReason reason) {
  ring_[head_] = TraceRecord{time, node, event, reason, a, b};
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) {
    ++size_;
  } else {
    ++dropped_;
  }
}

std::vector<TraceRecord> Tracer::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceRecord> Tracer::by_event(TraceEvent event) const {
  std::vector<TraceRecord> out;
  for (const auto& r : snapshot()) {
    if (r.event == event) out.push_back(r);
  }
  return out;
}

std::size_t Tracer::count(TraceEvent event) const {
  std::size_t n = 0;
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    if (ring_[(start + i) % ring_.size()].event == event) ++n;
  }
  return n;
}

std::string Tracer::explain(std::uint32_t seqno) const {
  return explain_control(snapshot(), seqno);
}

std::string Tracer::render_jsonl() const {
  std::string out;
  for (const auto& r : snapshot()) {
    append_trace_record_json(out, r);
    out += '\n';
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  return write_text_file(path, render_jsonl());
}

void Tracer::clear() {
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

void append_trace_record_json(std::string& out, const TraceRecord& r) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"t\":%.6f,\"node\":%u,\"event\":\"%s\",\"a\":%llu,"
                "\"b\":%llu,\"reason\":\"%s\"}",
                to_seconds(r.time), r.node, trace_event_name(r.event),
                static_cast<unsigned long long>(r.a),
                static_cast<unsigned long long>(r.b),
                trace_reason_name(r.reason));
  out += buf;
}

std::optional<TraceRecord> trace_record_from_json(const JsonValue& doc) {
  if (doc.type() != JsonValue::Type::kObject) return std::nullopt;
  const auto event = trace_event_from_name(doc.string_or("event", ""));
  if (!event.has_value()) return std::nullopt;
  TraceRecord r;
  // from_seconds truncates; round so "%.6f"-printed microsecond stamps
  // survive the text round trip exactly.
  r.time = static_cast<SimTime>(
      doc.number_or("t", 0.0) * static_cast<double>(kSecond) + 0.5);
  r.node = static_cast<NodeId>(doc.number_or("node", kInvalidNode));
  r.event = *event;
  r.reason = trace_reason_from_name(doc.string_or("reason", "none"))
                 .value_or(TraceReason::kNone);
  r.a = static_cast<std::uint64_t>(doc.number_or("a", 0.0));
  r.b = static_cast<std::uint64_t>(doc.number_or("b", 0.0));
  return r;
}

std::vector<TraceRecord> parse_trace_jsonl(std::string_view text,
                                           std::size_t* skipped) {
  std::vector<TraceRecord> out;
  std::size_t bad = 0;
  JsonlObjects lines(text);
  while (const auto doc = lines.next()) {
    if (const auto record = trace_record_from_json(*doc)) {
      out.push_back(*record);
    } else {
      ++bad;
    }
  }
  if (skipped != nullptr) *skipped = bad + lines.skipped();
  return out;
}

std::optional<std::vector<TraceRecord>> load_trace_jsonl(
    const std::string& path, std::size_t* skipped) {
  const auto text = read_text_file(path);
  if (!text.has_value()) return std::nullopt;
  return parse_trace_jsonl(*text, skipped);
}

std::string render_flight_dump_json(const FlightDump& dump) {
  std::string out = "{\"t\":" + std::to_string(to_seconds(dump.time)) +
                    ",\"node\":" + std::to_string(dump.node) +
                    ",\"trigger\":\"" + JsonValue::escape(dump.trigger) +
                    "\",\"dropped\":" + std::to_string(dump.dropped) +
                    ",\"events\":[";
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    if (i > 0) out += ',';
    append_trace_record_json(out, dump.events[i]);
  }
  out += "]}";
  return out;
}

Tracer& TraceRouter::enable_trace(std::size_t capacity) {
  if (trace_ == nullptr) trace_ = std::make_unique<Tracer>(capacity);
  on_ = true;
  return *trace_;
}

bool TraceRouter::arm_rings(std::size_t nodes, const std::string& jsonl) {
  if (rings_armed()) return true;
  rings_.assign(nodes, Tracer(kRingCapacity));
  on_ = true;
  return jsonl.empty() || dump_jsonl_.open(jsonl);
}

std::uint64_t TraceRouter::ring_records() const noexcept {
  std::uint64_t n = 0;
  for (const Tracer& ring : rings_) n += ring.size() + ring.dropped();
  return n;
}

void TraceRouter::route(NodeId node, TraceEvent event, std::uint64_t a,
                        std::uint64_t b, TraceReason reason) {
  const SimTime now = sim_->now();
  const TraceSink sink = trace_event_sink(event);
  if (trace_ != nullptr && sink != TraceSink::kRing) {
    trace_->record(now, node, event, a, b, reason);
  }
  if (node < rings_.size() && sink != TraceSink::kTrace) {
    rings_[node].record(now, node, event, a, b, reason);
  }
}

void TraceRouter::dump(NodeId node, std::string trigger) {
  const Tracer* ring = this->ring(node);
  if (ring == nullptr) return;
  FlightDump dump;
  dump.time = sim_->now();
  dump.node = node;
  dump.trigger = std::move(trigger);
  dump.events = ring->snapshot();
  dump.dropped = ring->dropped();
  record(node, TraceEvent::kFlightDump, dump.events.size(), dumps_taken_);
  ++dumps_taken_;
  constexpr std::size_t kMaxStoredDumps = 256;
  if (dumps_.size() >= kMaxStoredDumps) dumps_.erase(dumps_.begin());
  dumps_.push_back(std::move(dump));
  if (dump_jsonl_.is_open()) {
    dump_jsonl_.write_line(render_flight_dump_json(dumps_.back()));
  }
}

std::vector<NodeId> relay_path(const std::vector<TraceRecord>& records,
                               std::uint32_t seqno) {
  std::vector<NodeId> path;
  for (const auto& r : records) {
    if (r.event != TraceEvent::kControlTx || r.a != seqno) continue;
    if (path.empty() || path.back() != r.node) path.push_back(r.node);
  }
  return path;
}

std::string explain_control(const std::vector<TraceRecord>& records,
                            std::uint32_t seqno) {
  return explain_control(records, seqno, ExplainOptions{});
}

std::string explain_control(const std::vector<TraceRecord>& records,
                            std::uint32_t seqno, const ExplainOptions& opts) {
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "control seqno %u\n", seqno);
  out += buf;

  // LPL broadcasts the same control frame once per wake-up slot, so a single
  // send operation records dozens of identical transmissions; collapse each
  // run of same-(node, event, peer, reason) records into one line with a
  // repeat count to keep the trajectory readable.
  std::vector<TraceRecord> relevant;
  for (const auto& r : records) {
    if (r.a != seqno) continue;
    switch (r.event) {
      case TraceEvent::kControlTx:
      case TraceEvent::kForwardDecision:
      case TraceEvent::kSuppress:
      case TraceEvent::kBacktrack:
      case TraceEvent::kRedirect:
      case TraceEvent::kAckPath:
      case TraceEvent::kControlTxDone:
      case TraceEvent::kControlDelivered:
        relevant.push_back(r);
        break;
      default:
        break;
    }
  }
  const bool any_for_seqno = !relevant.empty();
  if (opts.node.has_value()) {
    std::erase_if(relevant,
                  [&](const TraceRecord& r) { return r.node != *opts.node; });
  }
  if (opts.path_only) relevant.clear();
  SimTime prev_time = relevant.empty() ? 0 : relevant.front().time;
  for (std::size_t i = 0; i < relevant.size();) {
    const TraceRecord& r = relevant[i];
    std::size_t run = 1;
    while (i + run < relevant.size()) {
      const TraceRecord& n = relevant[i + run];
      if (n.node != r.node || n.event != r.event || n.b != r.b ||
          n.reason != r.reason) {
        break;
      }
      ++run;
    }
    const char* verb = nullptr;
    switch (r.event) {
      case TraceEvent::kControlTx: verb = "transmit, expecting relay"; break;
      case TraceEvent::kForwardDecision: verb = "claim forwarding, advertise"; break;
      case TraceEvent::kSuppress: verb = "suppress, yielded to"; break;
      case TraceEvent::kBacktrack: verb = "backtrack, hand task to"; break;
      case TraceEvent::kRedirect: verb = "redirect, detour via"; break;
      case TraceEvent::kAckPath: verb = "ack hop, next"; break;
      case TraceEvent::kControlTxDone: verb = "sweep done, acked by"; break;
      case TraceEvent::kControlDelivered: verb = "delivered, arrived from"; break;
      default: verb = "?"; break;
    }
    if (opts.deltas) {
      std::snprintf(buf, sizeof(buf), "  +%9.6fs  node %-4u %s %llu",
                    to_seconds(r.time - prev_time), r.node, verb,
                    static_cast<unsigned long long>(r.b));
      prev_time = r.time;
    } else {
      std::snprintf(buf, sizeof(buf), "  %10.6fs  node %-4u %s %llu",
                    to_seconds(r.time), r.node, verb,
                    static_cast<unsigned long long>(r.b));
    }
    out += buf;
    if (run > 1) {
      std::snprintf(buf, sizeof(buf), "  (x%zu)", run);
      out += buf;
    }
    if (r.reason != TraceReason::kNone) {
      out += "  [";
      out += trace_reason_name(r.reason);
      out += "]";
    }
    out += "\n";
    i += run;
  }
  if (!any_for_seqno) {
    out += "  (no records for this seqno)\n";
    return out;
  }
  if (relevant.empty() && !opts.path_only) {
    out += "  (no records for this seqno at the selected node)\n";
  }

  const std::vector<NodeId> path = relay_path(records, seqno);
  if (!path.empty()) {
    out += "  relay path:";
    for (const NodeId n : path) {
      std::snprintf(buf, sizeof(buf), " %u", n);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

}  // namespace telea
