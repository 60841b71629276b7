#include <gtest/gtest.h>

#include "stats/health.hpp"
#include "stats/metrics.hpp"
#include "util/json.hpp"

namespace telea {
namespace {

using namespace telea::time_literals;

msg::HealthReport report_with_seqno(std::uint8_t seqno) {
  HealthSample s;
  s.duty_cycle = 0.01;
  s.etx10 = 15;
  return encode_health_report(s, seqno);
}

TEST(HealthEncode, QuantizesAndSaturates) {
  HealthSample s;
  s.duty_cycle = 0.012;     // 1.2% -> 12 permille
  s.etx10 = 23;             // ETX 2.3
  s.code_len = 9;
  s.mac_queue_hwm = 3;
  s.ctp_queue_hwm = 5;
  s.parent_changes = 258;   // wraps mod 256
  s.energy_mj = 123.6;
  const msg::HealthReport r = encode_health_report(s, 7);
  EXPECT_EQ(r.seqno, 7);
  EXPECT_EQ(r.duty_permille, 12);
  EXPECT_EQ(r.etx10, 23);
  EXPECT_EQ(r.code_len, 9);
  EXPECT_EQ(r.queue_hwm >> 4, 3);
  EXPECT_EQ(r.queue_hwm & 0xF, 5);
  EXPECT_EQ(r.parent_epoch, 2);
  EXPECT_EQ(r.energy_mj, 124);  // rounded

  HealthSample hot;
  hot.duty_cycle = 0.9;       // > 25.5% ceiling
  hot.etx10 = 4000;           // > u8
  hot.code_len = 300;
  hot.mac_queue_hwm = 99;     // > nibble
  hot.ctp_queue_hwm = 99;
  hot.energy_mj = 1e9;        // > u16
  const msg::HealthReport sat = encode_health_report(hot, 0);
  EXPECT_EQ(sat.duty_permille, 255);
  EXPECT_EQ(sat.etx10, 255);
  EXPECT_EQ(sat.code_len, 255);
  EXPECT_EQ(sat.queue_hwm, 0xFF);
  EXPECT_EQ(sat.energy_mj, 65535);
}

TEST(HealthEncode, SeqnoFreshnessWraps) {
  EXPECT_TRUE(health_seqno_newer(1, 0));
  EXPECT_TRUE(health_seqno_newer(127, 0));
  EXPECT_FALSE(health_seqno_newer(128, 0));  // half the ring away: ambiguous
  EXPECT_FALSE(health_seqno_newer(0, 0));
  EXPECT_FALSE(health_seqno_newer(0, 1));
  EXPECT_TRUE(health_seqno_newer(3, 250));  // wrapped past 255
  EXPECT_FALSE(health_seqno_newer(250, 3));
}

TEST(HealthReporter, RateLimitsToOneReportPerPeriod) {
  HealthReporter reporter(60_s);
  std::size_t sampled = 0;
  const auto sample = [&sampled] {
    ++sampled;
    return HealthSample{};
  };

  msg::CtpData first;
  reporter.maybe_attach(0, first, sample);
  EXPECT_TRUE(first.has_health);
  EXPECT_EQ(sampled, 1u);

  msg::CtpData second;  // still inside the interval
  reporter.maybe_attach(30_s, second, sample);
  EXPECT_FALSE(second.has_health);
  EXPECT_EQ(sampled, 1u) << "rate-limited offer must not sample";

  msg::CtpData third;
  reporter.maybe_attach(61_s, third, sample);
  EXPECT_TRUE(third.has_health);
  EXPECT_TRUE(health_seqno_newer(third.health.seqno, first.health.seqno));

  EXPECT_EQ(reporter.stats().reports_attached, 2u);
  EXPECT_EQ(reporter.stats().suppressed, 1u);
  EXPECT_EQ(reporter.stats().bytes_attached, 2 * msg::kHealthReportBytes);

  // A frame that already carries a report (e.g. re-offered) is left alone.
  reporter.maybe_attach(200_s, third, sample);
  EXPECT_EQ(reporter.stats().reports_attached, 2u);
}

TEST(HealthModel, FreshestWinsOnOutOfOrderArrivals) {
  NetworkHealthModel model;
  model.set_expected_nodes(3);
  model.on_report(10_s, 1, report_with_seqno(5));
  model.on_report(11_s, 1, report_with_seqno(4));  // straggler: dropped
  ASSERT_NE(model.entry(1), nullptr);
  EXPECT_EQ(model.entry(1)->report.seqno, 5);
  EXPECT_EQ(model.entry(1)->updated, 10_s) << "straggler must not refresh age";
  EXPECT_EQ(model.stats().reports, 1u);
  EXPECT_EQ(model.stats().stale_dropped, 1u);
  // Every arrival costs bytes on the wire, accepted or not.
  EXPECT_EQ(model.stats().bytes, 2 * msg::kHealthReportBytes);

  model.on_report(12_s, 1, report_with_seqno(6));
  EXPECT_EQ(model.entry(1)->report.seqno, 6);
  EXPECT_EQ(model.entry(1)->updates, 2u);
}

TEST(HealthModel, StalenessAndCoverage) {
  NetworkHealthModel model(60_s);  // stale after two periods
  model.set_expected_nodes(4);
  model.on_report(0, 1, report_with_seqno(0));
  model.on_report(0, 2, report_with_seqno(0));
  model.on_report(100_s, 3, report_with_seqno(0));

  // At t=110 s every entry is younger than the 2x60 s cutoff.
  EXPECT_DOUBLE_EQ(model.coverage(110_s), 0.75);
  // At t=130 s nodes 1 and 2 (age 130 s) have crossed it; node 3 has not.
  EXPECT_TRUE(model.is_fresh(130_s, 3));
  EXPECT_FALSE(model.is_fresh(130_s, 1));
  EXPECT_FALSE(model.is_fresh(130_s, 4));  // never reported
  EXPECT_DOUBLE_EQ(model.coverage(130_s), 0.25);
  EXPECT_EQ(model.stale_nodes(130_s), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(model.unseen_nodes(), (std::vector<NodeId>{4}));
}

TEST(HealthModel, SnapshotJsonParsesAndMetricsExport) {
  NetworkHealthModel model(60_s);
  model.set_expected_nodes(2);
  model.on_report(10_s, 1, report_with_seqno(3));

  const std::string line = model.render_snapshot_json(70_s);
  const auto doc = JsonValue::parse(line);
  ASSERT_TRUE(doc.has_value()) << line;
  EXPECT_DOUBLE_EQ(doc->number_or("expected", 0), 2.0);
  EXPECT_DOUBLE_EQ(doc->number_or("tracked", 0), 1.0);
  EXPECT_DOUBLE_EQ(doc->number_or("coverage", 0), 0.5);
  EXPECT_DOUBLE_EQ(doc->number_or("stale_after_s", 0), 120.0);  // 2 periods
  const JsonValue* nodes = doc->find("nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_EQ(nodes->as_array().size(), 1u);
  const JsonValue& n = nodes->as_array().front();
  EXPECT_DOUBLE_EQ(n.number_or("id", 0), 1.0);
  EXPECT_DOUBLE_EQ(n.number_or("age_s", 0), 60.0);
  EXPECT_DOUBLE_EQ(n.number_or("seq", 0), 3.0);

  MetricsRegistry registry;
  model.collect_metrics(registry, 70_s);
  EXPECT_DOUBLE_EQ(registry
                       .gauge("telea_health_coverage",
                              {{"side", "sink"}, {"sub", "health"}})
                       .value(),
                   0.5);
}

}  // namespace
}  // namespace telea
