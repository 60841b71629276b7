#include "stats/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace telea {

namespace {

/// Saturating quantization without the debug-assert of field::u8 — health
/// fields are *expected* to clamp under load (that is the signal).
std::uint8_t sat_u8(double v) noexcept {
  if (!(v > 0.0)) return 0;
  const long r = std::lround(v);
  return r >= 255 ? 255 : static_cast<std::uint8_t>(r);
}

std::uint8_t sat_u8(std::uint64_t v) noexcept {
  return v > 255 ? 255 : static_cast<std::uint8_t>(v);
}

std::uint8_t nibble(std::size_t v) noexcept {
  return v > 15 ? 15 : static_cast<std::uint8_t>(v);
}

}  // namespace

msg::HealthReport encode_health_report(const HealthSample& sample,
                                       std::uint8_t seqno) noexcept {
  msg::HealthReport r;
  r.seqno = seqno;
  r.duty_permille = sat_u8(sample.duty_cycle * 1000.0);
  r.etx10 = sat_u8(static_cast<std::uint64_t>(sample.etx10));
  r.code_len = sat_u8(static_cast<std::uint64_t>(sample.code_len));
  r.queue_hwm = static_cast<std::uint8_t>(
      (nibble(sample.mac_queue_hwm) << 4) | nibble(sample.ctp_queue_hwm));
  r.parent_epoch = static_cast<std::uint8_t>(sample.parent_changes & 0xFFu);
  const double mj = std::max(0.0, sample.energy_mj);
  r.energy_mj = mj >= 65535.0 ? 65535
                              : static_cast<std::uint16_t>(std::lround(mj));
  return r;
}

bool health_seqno_newer(std::uint8_t candidate, std::uint8_t current) noexcept {
  // Wrapping window: candidate is newer when it is 1..127 ahead mod 256.
  const std::uint8_t ahead =
      static_cast<std::uint8_t>(candidate - current);
  return ahead != 0 && ahead < 128;
}

void HealthReporter::maybe_attach(SimTime now, msg::CtpData& data,
                                  const std::function<HealthSample()>& sample) {
  if (data.has_health) return;  // never overwrite (defensive; origins only)
  if (attached_once_ && now < last_attach_ + period_) {
    ++stats_.suppressed;
    return;
  }
  data.has_health = true;
  data.health = encode_health_report(sample(), next_seqno_);
  ++next_seqno_;
  attached_once_ = true;
  last_attach_ = now;
  ++stats_.reports_attached;
  stats_.bytes_attached += msg::kHealthReportBytes;
}

void NetworkHealthModel::on_report(SimTime now, NodeId node,
                                   const msg::HealthReport& report) {
  stats_.bytes += msg::kHealthReportBytes;
  auto it = entries_.find(node);
  if (it != entries_.end() &&
      !health_seqno_newer(report.seqno, it->second.report.seqno)) {
    ++stats_.stale_dropped;  // out-of-order straggler: freshest wins
    return;
  }
  Entry& e = it != entries_.end() ? it->second : entries_[node];
  e.report = report;
  e.updated = now;
  ++e.updates;
  ++stats_.reports;
}

const NetworkHealthModel::Entry* NetworkHealthModel::entry(NodeId node) const {
  const auto it = entries_.find(node);
  return it == entries_.end() ? nullptr : &it->second;
}

bool NetworkHealthModel::is_fresh(SimTime now, NodeId node) const {
  const Entry* e = entry(node);
  return e != nullptr && now < e->updated + stale_after();
}

double NetworkHealthModel::coverage(SimTime now) const {
  if (expected_nodes_ == 0) return 1.0;
  std::size_t fresh = 0;
  for (const auto& [id, e] : entries_) {
    if (now < e.updated + stale_after()) ++fresh;
  }
  return static_cast<double>(fresh) / static_cast<double>(expected_nodes_);
}

std::vector<NodeId> NetworkHealthModel::stale_nodes(SimTime now) const {
  std::vector<NodeId> out;
  for (const auto& [id, e] : entries_) {
    if (now >= e.updated + stale_after()) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> NetworkHealthModel::unseen_nodes() const {
  std::vector<NodeId> out;
  for (std::size_t i = 1; i <= expected_nodes_; ++i) {
    const auto id = static_cast<NodeId>(i);
    if (entries_.find(id) == entries_.end()) out.push_back(id);
  }
  return out;
}

void NetworkHealthModel::collect_metrics(MetricsRegistry& registry,
                                         SimTime now) const {
  registry.describe("telea_health_reports_total",
                    "In-band health reports, by side (origin attach / sink accept)");
  registry.describe("telea_health_stale_reports_total",
                    "Out-of-order health reports dropped by freshest-wins");
  registry.describe("telea_health_overhead_bytes",
                    "Piggyback byte overhead of health telemetry, by side");
  registry.describe("telea_health_nodes",
                    "Sink health-model population by state (tracked/fresh/stale/unseen)");
  registry.describe("telea_health_coverage",
                    "Fraction of expected nodes with a fresh health report");
  registry.describe("telea_health_report_age_seconds",
                    "Distribution of health-report ages at the sink");
  registry.describe("telea_health_duty_cycle",
                    "Distribution of node-reported duty cycles");
  registry.describe("telea_health_etx10",
                    "Distribution of node-reported parent-link ETX (1/10 units)");

  const MetricLabels sink{{"side", "sink"}, {"sub", "health"}};
  registry.counter("telea_health_reports_total", sink).set_total(stats_.reports);
  registry.counter("telea_health_stale_reports_total", sink)
      .set_total(stats_.stale_dropped);
  registry.counter("telea_health_overhead_bytes", sink).set_total(stats_.bytes);

  std::size_t fresh = 0;
  Histogram& age = registry.histogram(
      "telea_health_report_age_seconds",
      {1, 5, 15, 30, 60, 120, 300, 600, 1800, 3600}, sink);
  Histogram& duty = registry.histogram(
      "telea_health_duty_cycle",
      {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.255}, sink);
  Histogram& etx = registry.histogram(
      "telea_health_etx10", {10, 12, 15, 20, 30, 50, 100, 200}, sink);
  age.reset();
  duty.reset();
  etx.reset();
  for (const auto& [id, e] : entries_) {
    const SimTime report_age = now - e.updated;
    if (report_age < stale_after()) ++fresh;
    age.observe(to_seconds(report_age));
    duty.observe(static_cast<double>(e.report.duty_permille) / 1000.0);
    etx.observe(static_cast<double>(e.report.etx10));
  }
  auto state_gauge = [&](const char* state, double v) {
    registry
        .gauge("telea_health_nodes",
               {{"side", "sink"}, {"state", state}, {"sub", "health"}})
        .set(v);
  };
  state_gauge("tracked", static_cast<double>(entries_.size()));
  state_gauge("fresh", static_cast<double>(fresh));
  state_gauge("stale", static_cast<double>(entries_.size() - fresh));
  state_gauge("unseen", static_cast<double>(unseen_nodes().size()));
  registry.gauge("telea_health_coverage", sink).set(coverage(now));
}

std::string NetworkHealthModel::render_snapshot_json(SimTime now) const {
  std::size_t fresh = 0;
  for (const auto& [id, e] : entries_) {
    if (now - e.updated < stale_after()) ++fresh;
  }
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"t\":%.6f,\"period_s\":%.3f,\"stale_after_s\":%.3f,"
                "\"expected\":%zu,\"tracked\":%zu,\"fresh\":%zu,"
                "\"coverage\":%.6f,\"reports\":%llu,\"stale_dropped\":%llu,"
                "\"bytes\":%llu,\"nodes\":[",
                to_seconds(now), to_seconds(period_),
                to_seconds(stale_after()), expected_nodes_, entries_.size(),
                fresh, coverage(now),
                static_cast<unsigned long long>(stats_.reports),
                static_cast<unsigned long long>(stats_.stale_dropped),
                static_cast<unsigned long long>(stats_.bytes));
  out += buf;
  bool first = true;
  for (const auto& [id, e] : entries_) {
    const msg::HealthReport& r = e.report;
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"id\":%u,\"age_s\":%.3f,\"seq\":%u,\"duty\":%.4f,"
        "\"etx10\":%u,\"code_len\":%u,\"txq_hwm\":%u,\"fwdq_hwm\":%u,"
        "\"parent_epoch\":%u,\"energy_mj\":%u,\"updates\":%llu}",
        first ? "" : ",", static_cast<unsigned>(id),
        to_seconds(now - e.updated), static_cast<unsigned>(r.seqno),
        static_cast<double>(r.duty_permille) / 1000.0,
        static_cast<unsigned>(r.etx10), static_cast<unsigned>(r.code_len),
        static_cast<unsigned>(r.queue_hwm >> 4),
        static_cast<unsigned>(r.queue_hwm & 0x0F),
        static_cast<unsigned>(r.parent_epoch),
        static_cast<unsigned>(r.energy_mj),
        static_cast<unsigned long long>(e.updates));
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace telea
