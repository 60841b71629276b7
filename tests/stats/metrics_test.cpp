#include "stats/metrics.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "harness/network.hpp"
#include "topo/topology.hpp"
#include "util/json.hpp"

namespace telea {
namespace {

using namespace time_literals;

TEST(Metrics, CounterGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("telea_test_total");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.set_total(42);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = reg.gauge("telea_test_level");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, InstancesAreStableAndLabelOrderCanonical) {
  MetricsRegistry reg;
  Counter& a = reg.counter("telea_x_total", {{"node", "1"}, {"sub", "lpl"}});
  // Same labels in a different order must resolve to the same instance.
  Counter& b = reg.counter("telea_x_total", {{"sub", "lpl"}, {"node", "1"}});
  EXPECT_EQ(&a, &b);
  Counter& other = reg.counter("telea_x_total", {{"node", "2"}, {"sub", "lpl"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, ScrapeInADifferentOrderResolvesTheSameInstruments) {
  // Collector-style passes that change order, gain an instrument and skip
  // one must each resolve to the right instance.
  MetricsRegistry reg;
  reg.counter("telea_a_total", {{"node", "1"}}).set_total(1);
  reg.gauge("telea_b").set(2.0);
  reg.counter("telea_c_total").set_total(3);

  reg.clear();
  reg.counter("telea_c_total").set_total(30);
  reg.gauge("telea_new").set(5.0);
  reg.counter("telea_a_total", {{"node", "1"}}).set_total(10);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.counter("telea_a_total", {{"node", "1"}}).value(), 10u);
  EXPECT_EQ(reg.counter("telea_c_total").value(), 30u);
  EXPECT_DOUBLE_EQ(reg.gauge("telea_new").value(), 5.0);

  reg.clear();
  reg.gauge("telea_b").set(20.0);
  reg.counter("telea_a_total", {{"node", "2"}}).set_total(7);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_DOUBLE_EQ(reg.gauge("telea_b").value(), 20.0);
  EXPECT_EQ(reg.counter("telea_a_total", {{"node", "1"}}).value(), 0u);
  EXPECT_EQ(reg.counter("telea_a_total", {{"node", "2"}}).value(), 7u);
}

TEST(Metrics, HistogramBucketsArePrometheusShaped) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("telea_lat_seconds", {0.1, 0.5, 1.0});
  h.observe(0.05);
  h.observe(0.3);
  h.observe(0.3);
  h.observe(2.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.65);
  EXPECT_EQ(h.cumulative(0), 1u);  // <= 0.1
  EXPECT_EQ(h.cumulative(1), 3u);  // <= 0.5
  EXPECT_EQ(h.cumulative(2), 3u);  // <= 1.0
  EXPECT_EQ(h.bucket_counts().back(), 1u);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.cumulative(2), 0u);
}

TEST(Metrics, HistogramQuantileInterpolatesInsideBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("telea_q_seconds", {1.0, 2.0, 4.0});
  for (int i = 0; i < 8; ++i) h.observe(1.5);  // all in (1, 2]
  // Rank q*8 lands in the (1,2] bucket; interpolation walks it linearly.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);

  h.observe(1.5);
  h.observe(8.0);  // one overflow observation
  // A rank inside +Inf clamps to the highest finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 4.0);

  Histogram& empty = reg.histogram("telea_q_empty", {1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(Metrics, HistogramQuantileSingleSampleReturnsSampleValue) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("telea_q_single", {0.0, 100.0});
  h.observe(7.0);
  // Interpolating the lone sample's bucket used to answer 50 for p50 — a
  // value never observed. One sample IS every quantile.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.0);

  // A histogram with no finite bucket puts everything in +Inf; the mean is
  // the only bounded answer (this used to report 0).
  Histogram& unbounded = reg.histogram("telea_q_unbounded", {});
  unbounded.observe(3.0);
  unbounded.observe(5.0);
  EXPECT_DOUBLE_EQ(unbounded.quantile(0.5), 4.0);
}

TEST(Metrics, HistogramQuantileSpansMultipleBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("telea_q_multi", {1.0, 2.0, 4.0});
  h.observe(0.5);   // (0, 1]
  h.observe(0.5);
  h.observe(1.5);   // (1, 2]
  h.observe(3.0);   // (2, 4]
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.5);  // rank 1 of 2 in the first bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 2.0);  // rank 3 exhausts bucket two
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(Metrics, PrometheusRenderingIsValidExposition) {
  MetricsRegistry reg;
  reg.describe("telea_ops_total", "operations performed");
  reg.counter("telea_ops_total", {{"node", "3"}}).inc(7);
  reg.gauge("telea_depth").set(4);
  Histogram& h = reg.histogram("telea_lat_seconds", {0.5});
  h.observe(0.25);
  h.observe(0.75);

  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# HELP telea_ops_total operations performed\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE telea_ops_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("telea_ops_total{node=\"3\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE telea_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("telea_depth 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE telea_lat_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("telea_lat_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("telea_lat_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("telea_lat_seconds_sum 1\n"), std::string::npos);
  EXPECT_NE(text.find("telea_lat_seconds_count 2\n"), std::string::npos);
}

TEST(Metrics, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.counter("telea_ops_total", {{"node", "3"}, {"sub", "lpl"}}).inc(7);
  reg.gauge("telea_depth").set(4.25);
  Histogram& h = reg.histogram("telea_lat_seconds", {0.5, 1.0});
  h.observe(0.25);
  h.observe(0.75);
  h.observe(5.0);

  const auto doc = JsonValue::parse(reg.render_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->type(), JsonValue::Type::kArray);
  ASSERT_EQ(metrics->as_array().size(), 3u);

  // Entries are ordered by (name, labels); pick each back out and check the
  // values survived the round trip exactly.
  const JsonValue& depth = metrics->as_array()[0];
  EXPECT_EQ(depth.string_or("name", ""), "telea_depth");
  EXPECT_EQ(depth.string_or("type", ""), "gauge");
  EXPECT_DOUBLE_EQ(depth.number_or("value", -1), 4.25);

  const JsonValue& lat = metrics->as_array()[1];
  EXPECT_EQ(lat.string_or("name", ""), "telea_lat_seconds");
  EXPECT_EQ(lat.string_or("type", ""), "histogram");
  EXPECT_DOUBLE_EQ(lat.number_or("sum", -1), 6.0);
  EXPECT_DOUBLE_EQ(lat.number_or("count", -1), 3);
  EXPECT_DOUBLE_EQ(lat.number_or("overflow", -1), 1);
  const JsonValue* buckets = lat.find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(buckets->as_array()[0].number_or("le", -1), 0.5);
  EXPECT_DOUBLE_EQ(buckets->as_array()[0].number_or("count", -1), 1);
  EXPECT_DOUBLE_EQ(buckets->as_array()[1].number_or("count", -1), 1);

  const JsonValue& ops = metrics->as_array()[2];
  EXPECT_EQ(ops.string_or("name", ""), "telea_ops_total");
  EXPECT_EQ(ops.string_or("type", ""), "counter");
  EXPECT_DOUBLE_EQ(ops.number_or("value", -1), 7);
  const JsonValue* labels = ops.find("labels");
  ASSERT_NE(labels, nullptr);
  EXPECT_EQ(labels->string_or("node", ""), "3");
  EXPECT_EQ(labels->string_or("sub", ""), "lpl");
}

TEST(MetricsIntegration, NetworkCollectorRefreshesWithoutDoubleCounting) {
  NetworkConfig cfg;
  cfg.topology = make_line(4, 22.0);
  cfg.seed = 17;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(cfg);
  net.start();
  net.run_for(4_min);

  MetricsRegistry reg;
  const auto samples = [&reg] {
    std::map<std::string, double> out;
    reg.visit_samples([&out](const std::string& name, double value,
                             SampleKind) { out.emplace(name, value); });
    return out;
  };
  const std::string tx = "telea_phy_transmissions_total{sub=\"phy\"}";
  net.collect_metrics(reg);
  const auto first = samples();
  EXPECT_GT(reg.size(), 0u);
  EXPECT_GT(first.at(tx), 0.0);

  // Collecting again without advancing time must be idempotent — the
  // collector mirrors absolute totals, it does not accumulate.
  net.collect_metrics(reg);
  EXPECT_EQ(samples(), first);

  net.run_for(2_min);
  net.collect_metrics(reg);
  EXPECT_GT(samples().at(tx), first.at(tx));

  // The export formats stay parseable with the full live label set.
  EXPECT_TRUE(JsonValue::parse(reg.render_json()).has_value());
  EXPECT_NE(reg.render_prometheus().find("# TYPE telea_duty_cycle gauge"),
            std::string::npos);
}

}  // namespace
}  // namespace telea
