#include "stats/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.hpp"

namespace telea {
namespace {

constexpr std::uint64_t kMidSpan = kTimelineMidFold;
constexpr std::uint64_t kCoarseSpan = kTimelineMidFold * kTimelineCoarseFold;

/// Sum of i for i in [first, last).
double sum_range(std::uint64_t first, std::uint64_t last) {
  return static_cast<double>(last * (last - 1) / 2 - first * (first - 1) / 2);
}

// Point i has value i, so a bucket's min, max and sum name exactly which
// points it folded.
TEST(MetricSeries, TiersFoldAndEvict) {
  MetricSeries s(10 * kSecond);
  TimelineTiers tiers;
  const auto append_up_to = [&](std::uint64_t end) {
    for (std::uint64_t i = s.total_points(); i < end; ++i) {
      s.append(i * 10 * kSecond, static_cast<double>(i));
      tiers.append(i * 10 * kSecond, static_cast<double>(i));
    }
  };

  // 130 points: 21 full mid buckets (126 points, 4 pending) and 2 full
  // coarse buckets (120 points, one mid bucket pending).
  append_up_to(130);
  EXPECT_EQ(s.raw().size(), 130u);
  ASSERT_EQ(tiers.mid().size(), 21u);
  for (std::uint64_t k = 0; k < tiers.mid().size(); ++k) {
    const TimelineBucket& b = tiers.mid()[k];
    EXPECT_EQ(b.start, k * kMidSpan * 10 * kSecond);
    EXPECT_EQ(b.count, kMidSpan);
    EXPECT_DOUBLE_EQ(b.min, static_cast<double>(k * kMidSpan));
    EXPECT_DOUBLE_EQ(b.max, static_cast<double>((k + 1) * kMidSpan - 1));
    EXPECT_DOUBLE_EQ(b.sum, sum_range(k * kMidSpan, (k + 1) * kMidSpan));
  }
  EXPECT_DOUBLE_EQ(tiers.mid().back().mean(), 122.5);  // points 120..125
  ASSERT_EQ(tiers.coarse().size(), 2u);
  for (std::uint64_t k = 0; k < tiers.coarse().size(); ++k) {
    const TimelineBucket& b = tiers.coarse()[k];
    EXPECT_EQ(b.start, k * kCoarseSpan * 10 * kSecond);
    EXPECT_EQ(b.count, kCoarseSpan);
    EXPECT_DOUBLE_EQ(b.min, static_cast<double>(k * kCoarseSpan));
    EXPECT_DOUBLE_EQ(b.max, static_cast<double>((k + 1) * kCoarseSpan - 1));
    EXPECT_DOUBLE_EQ(b.sum, sum_range(k * kCoarseSpan, (k + 1) * kCoarseSpan));
  }

  // Past every capacity: each ring keeps only its newest entries.
  const std::uint64_t total = (kTimelineCoarseCapacity + 2) * kCoarseSpan;
  append_up_to(total);
  EXPECT_EQ(s.total_points(), total);
  ASSERT_EQ(s.raw().size(), kTimelineRawCapacity);
  EXPECT_DOUBLE_EQ(s.raw().front().value,
                   static_cast<double>(total - kTimelineRawCapacity));
  EXPECT_DOUBLE_EQ(s.raw().back().value, static_cast<double>(total - 1));
  ASSERT_EQ(tiers.mid().size(), kTimelineMidCapacity);
  EXPECT_DOUBLE_EQ(tiers.mid().front().min,
                   static_cast<double>(total - kTimelineMidCapacity * kMidSpan));
  EXPECT_DOUBLE_EQ(tiers.mid().back().sum, sum_range(total - kMidSpan, total));
  ASSERT_EQ(tiers.coarse().size(), kTimelineCoarseCapacity);
  EXPECT_DOUBLE_EQ(tiers.coarse().front().min,
                   static_cast<double>(2 * kCoarseSpan));
  EXPECT_DOUBLE_EQ(tiers.coarse().back().max, static_cast<double>(total - 1));
  EXPECT_DOUBLE_EQ(tiers.coarse().back().sum,
                   sum_range(total - kCoarseSpan, total));
}

TEST(MetricSeries, WindowedSignals) {
  MetricSeries s(10 * kSecond);
  // Deltas appended at the 10 s cadence: 0, 3, 6, 9.
  for (std::uint64_t i = 0; i < 4; ++i) {
    s.append(i * 10 * kSecond, static_cast<double>(3 * i));
  }
  EXPECT_DOUBLE_EQ(s.last(), 9.0);
  EXPECT_DOUBLE_EQ(s.window_sum(3), 3.0 + 6.0 + 9.0);
  // Rate over 3 samples x 10 s of window.
  EXPECT_DOUBLE_EQ(s.window_rate(3), 18.0 / 30.0);
  // EWMA over 0,3,6,9, seeded with the first point.
  double ewma = 0.0;
  for (const double v : {3.0, 6.0, 9.0}) {
    ewma = kTimelineEwmaAlpha * v + (1.0 - kTimelineEwmaAlpha) * ewma;
  }
  EXPECT_DOUBLE_EQ(s.ewma(), ewma);
  const double p50 = s.window_quantile(0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LT(p50, 9.0);
  EXPECT_DOUBLE_EQ(s.window_quantile(1.0), 9.0);
  EXPECT_DOUBLE_EQ(s.window_quantile(0.0), 0.0);
}

TEST(AlertRules, ParseAllForms) {
  const char* text =
      "# watch the control plane\n"
      "retry_storm: rate(telea_retries_total{node=\"3\"}) > 0.5 for 3\n"
      "\n"
      "deep_queue: p90(telea_queue_depth) >= 7\n"
      "coverage_low: value(telea_health_coverage) < 0.5 for 2\n"
      "silent: absent(telea_health_coverage) for 2\n"
      "burn: burn_rate(telea_drops_total{a=\"x\",b=\"y\"}, 0.01) > 2 for 4\n";
  std::vector<AlertParseError> errors;
  const auto rules = parse_alert_rules(text, &errors);
  ASSERT_TRUE(rules.has_value()) << (errors.empty() ? "" : errors[0].message);
  ASSERT_EQ(rules->size(), 5u);

  EXPECT_EQ((*rules)[0].name, "retry_storm");
  EXPECT_EQ((*rules)[0].signal, AlertSignal::kRate);
  EXPECT_EQ((*rules)[0].series, "telea_retries_total{node=\"3\"}");
  EXPECT_EQ((*rules)[0].op, AlertOp::kGt);
  EXPECT_DOUBLE_EQ((*rules)[0].threshold, 0.5);
  EXPECT_EQ((*rules)[0].for_windows, 3u);

  EXPECT_EQ((*rules)[1].signal, AlertSignal::kQuantile);
  EXPECT_DOUBLE_EQ((*rules)[1].quantile, 0.9);
  EXPECT_EQ((*rules)[1].op, AlertOp::kGe);
  EXPECT_EQ((*rules)[1].for_windows, 1u);  // default

  EXPECT_EQ((*rules)[3].signal, AlertSignal::kAbsent);

  // burn_rate's comma split must respect the labels' own commas.
  EXPECT_EQ((*rules)[4].signal, AlertSignal::kBurnRate);
  EXPECT_EQ((*rules)[4].series, "telea_drops_total{a=\"x\",b=\"y\"}");
  EXPECT_DOUBLE_EQ((*rules)[4].budget_per_s, 0.01);

  // Every parsed rule round-trips through its rendered grammar line.
  for (const AlertRule& rule : *rules) {
    const auto again = parse_alert_rules(render_alert_rule(rule) + "\n");
    ASSERT_TRUE(again.has_value()) << render_alert_rule(rule);
    ASSERT_EQ(again->size(), 1u);
    EXPECT_EQ(render_alert_rule((*again)[0]), render_alert_rule(rule));
  }
}

TEST(AlertRules, MalformedLinesFailLoudlyWithLineNumbers) {
  std::vector<AlertParseError> errors;
  EXPECT_FALSE(parse_alert_rules("x: frobnicate(a) > 1\n", &errors).has_value());
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].line, 1u);

  errors.clear();
  EXPECT_FALSE(
      parse_alert_rules("# fine\nbad line without colon\n", &errors)
          .has_value());
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].line, 2u);

  EXPECT_FALSE(parse_alert_rules("x: value(a) >> 1\n").has_value());
  EXPECT_FALSE(parse_alert_rules("x: value(a) > nope\n").has_value());
  EXPECT_FALSE(parse_alert_rules("x: value(a) > 1 for zero\n").has_value());
  EXPECT_FALSE(parse_alert_rules("x: burn_rate(a) > 1\n").has_value());
}

TEST(AlertRules, SeriesNodeLabel) {
  EXPECT_EQ(series_node_label("telea_duty_cycle{node=\"7\",sub=\"phy\"}"), 7u);
  EXPECT_EQ(series_node_label("telea_x{a=\"1\",node=\"12\"}"), 12u);
  EXPECT_FALSE(series_node_label("telea_duty_cycle{sub=\"phy\"}").has_value());
  EXPECT_FALSE(series_node_label("telea_plain").has_value());
}

// Test rig: a scripted collector driving the engine through a live
// simulator, the way Network::enable_timeline wires it.
struct EngineRig {
  Simulator sim;
  TraceRouter router{sim};
  TimelineEngine engine{sim, router};
  double gauge_value = 0.0;
  std::uint64_t counter_total = 0;
  bool emit_gauge = true;

  EngineRig() {
    engine.set_collector([this](MetricsRegistry& reg) {
      if (emit_gauge) {
        reg.gauge("telea_test_depth", {{"node", "2"}}).set(gauge_value);
      }
      reg.counter("telea_test_ops_total").set_total(counter_total);
    });
  }
};

TEST(TimelineEngine, SamplesOnCadenceAndDeltaEncodesCounters) {
  EngineRig rig;
  rig.engine.start();
  rig.counter_total = 100;
  rig.gauge_value = 4.0;
  rig.sim.run_until(35 * kSecond);  // samples at t=10,20,30
  EXPECT_EQ(rig.engine.samples_taken(), 3u);
  EXPECT_EQ(rig.engine.series_count(), 2u);

  const MetricSeries* ops = rig.engine.series("telea_test_ops_total");
  ASSERT_NE(ops, nullptr);
  ASSERT_EQ(ops->raw().size(), 3u);
  // First observation of a cumulative series is its baseline: delta 100,
  // then no growth.
  EXPECT_DOUBLE_EQ(ops->raw()[0].value, 100.0);
  EXPECT_DOUBLE_EQ(ops->raw()[1].value, 0.0);

  const MetricSeries* depth =
      rig.engine.series("telea_test_depth{node=\"2\"}");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->last(), 4.0);  // gauges stay absolute

  // Counter reset (state-loss reboot): total drops 100 -> 5. The delta is
  // clamped to zero and counted, never emitted negative.
  rig.counter_total = 5;
  rig.sim.run_until(45 * kSecond);
  EXPECT_DOUBLE_EQ(ops->raw().back().value, 0.0);
  EXPECT_EQ(rig.engine.counter_resets(), 1u);
  // And the next interval's delta is measured against the new baseline.
  rig.counter_total = 8;
  rig.sim.run_until(55 * kSecond);
  EXPECT_DOUBLE_EQ(ops->raw().back().value, 3.0);
}

TEST(TimelineEngine, AlertFiresAfterForWindowsAndResolves) {
  EngineRig rig;
  AlertRule rule;
  rule.name = "deep";
  rule.series = "telea_test_depth{node=\"2\"}";
  rule.signal = AlertSignal::kValue;
  rule.op = AlertOp::kGt;
  rule.threshold = 5.0;
  rule.for_windows = 2;
  rig.engine.set_rules({rule});

  const Tracer& tracer = rig.router.enable_trace(64);
  rig.router.arm_rings(3, "");
  const std::vector<FlightDump>& dumps = rig.router.dumps();

  rig.engine.start();
  rig.gauge_value = 9.0;
  rig.sim.run_until(15 * kSecond);  // one window above threshold: armed only
  EXPECT_FALSE(rig.engine.alerts()[0].active);
  EXPECT_TRUE(dumps.empty());

  rig.sim.run_until(25 * kSecond);  // second consecutive window: fires
  const AlertState& state = rig.engine.alerts()[0];
  EXPECT_TRUE(state.active);
  EXPECT_EQ(state.fired, 1u);
  EXPECT_EQ(state.last_fired, 20 * kSecond);
  ASSERT_EQ(tracer.count(TraceEvent::kAlertFired), 1u);
  const TraceRecord fired_rec = tracer.by_event(TraceEvent::kAlertFired)[0];
  EXPECT_EQ(fired_rec.node, 2u);
  EXPECT_EQ(fired_rec.a, 0u);  // rule index
  // The firing dumps the ring of the rule's node="2" label, whose last
  // record is the same alert_fired record.
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].node, 2u);
  EXPECT_EQ(dumps[0].trigger, "alert:deep");
  ASSERT_FALSE(dumps[0].events.empty());
  EXPECT_EQ(dumps[0].events.back(), fired_rec);

  // Still above threshold: active, no re-fire.
  rig.sim.run_until(35 * kSecond);
  EXPECT_EQ(rig.engine.alerts()[0].fired, 1u);

  rig.gauge_value = 1.0;  // condition clears: resolves on the next sample
  rig.sim.run_until(45 * kSecond);
  EXPECT_FALSE(rig.engine.alerts()[0].active);
  EXPECT_EQ(rig.engine.alerts()[0].resolved, 1u);
  EXPECT_EQ(tracer.count(TraceEvent::kAlertResolved), 1u);
  EXPECT_EQ(rig.engine.alerts_fired_total(), 1u);
  EXPECT_EQ(rig.engine.alerts_resolved_total(), 1u);

  // The engine mirrors alert state as metrics, like every subsystem.
  MetricsRegistry reg;
  rig.engine.collect_metrics(reg);
  EXPECT_EQ(reg.counter("telea_alert_fired_total", {{"rule", "deep"}}).value(),
            1u);
  EXPECT_DOUBLE_EQ(reg.gauge("telea_alert_active", {{"rule", "deep"}}).value(),
                   0.0);
  EXPECT_GT(reg.counter("telea_timeline_samples_total").value(), 0u);
}

TEST(TimelineEngine, AbsentRuleFiresWhenSeriesStopsReporting) {
  EngineRig rig;
  AlertRule rule;
  rule.name = "silent";
  rule.series = "telea_test_depth{node=\"2\"}";
  rule.signal = AlertSignal::kAbsent;
  rule.for_windows = 2;
  rig.engine.set_rules({rule});
  rig.engine.start();

  rig.sim.run_until(25 * kSecond);
  EXPECT_FALSE(rig.engine.alerts()[0].active);  // reporting: no alert

  rig.emit_gauge = false;
  rig.sim.run_until(45 * kSecond);  // two silent windows
  EXPECT_TRUE(rig.engine.alerts()[0].active);

  rig.emit_gauge = true;
  rig.sim.run_until(55 * kSecond);
  EXPECT_FALSE(rig.engine.alerts()[0].active);
  EXPECT_EQ(rig.engine.alerts()[0].resolved, 1u);
}

TEST(TimelineEngine, JsonlStreamIsParseableAndDescribesTiers) {
  const std::string path = "timeline_test_stream.jsonl";
  {
    EngineRig rig;
    AlertRule rule;
    rule.name = "deep";
    rule.series = "telea_test_depth{node=\"2\"}";
    rule.threshold = 5.0;
    rig.engine.set_rules({rule});
    ASSERT_TRUE(rig.engine.set_jsonl(path));
    rig.engine.start();
    rig.gauge_value = 9.0;
    rig.sim.run_until(25 * kSecond);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t meta_lines = 0;
  std::size_t sample_lines = 0;
  std::size_t alert_lines = 0;
  while (std::getline(in, line)) {
    const auto v = JsonValue::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    if (const JsonValue* meta = v->find("meta")) {
      ++meta_lines;
      EXPECT_DOUBLE_EQ(meta->number_or("interval_us", 0.0),
                       static_cast<double>(10 * kSecond));
      // The tier layout is fixed, so the meta carries only these two keys.
      EXPECT_EQ(meta->as_object().size(), 2u);
      const JsonValue* rules = meta->find("rules");
      ASSERT_NE(rules, nullptr);
      ASSERT_EQ(rules->as_array().size(), 1u);
    } else if (v->find("alert") != nullptr) {
      ++alert_lines;
      EXPECT_EQ(v->string_or("alert", ""), "deep");
      EXPECT_EQ(v->string_or("state", ""), "fired");
    } else {
      ++sample_lines;
      const JsonValue* values = v->find("v");
      ASSERT_NE(values, nullptr);
      EXPECT_NE(values->find("telea_test_depth{node=\"2\"}"), nullptr);
    }
  }
  EXPECT_EQ(meta_lines, 1u);
  EXPECT_EQ(sample_lines, 2u);
  EXPECT_EQ(alert_lines, 1u);
  std::remove(path.c_str());
}

TEST(TimelineEngine, SeriesStayAlignedWhenTheScrapeShifts) {
  // The collector's output shifts between passes: a series appears in the
  // middle, one disappears, and a histogram's bucket detail rides along.
  // Every value must still land in its own series.
  Simulator sim;
  TraceRouter router{sim};
  TimelineEngine engine{sim, router};
  int pass = 0;
  engine.set_collector([&pass](MetricsRegistry& reg) {
    reg.gauge("telea_a").set(1.0 + pass);
    if (pass == 1) reg.gauge("telea_b").set(20.0);
    reg.histogram("telea_h", {1.0}).observe(0.5);
    if (pass != 2) reg.gauge("telea_c").set(3.0 + pass);
    reg.counter("telea_d_total").set_total(10u * static_cast<unsigned>(pass));
  });
  engine.sample_now();
  ++pass;
  engine.sample_now();
  ++pass;
  engine.sample_now();

  ASSERT_NE(engine.series("telea_a"), nullptr);
  EXPECT_DOUBLE_EQ(engine.series("telea_a")->last(), 3.0);
  ASSERT_NE(engine.series("telea_b"), nullptr);
  EXPECT_EQ(engine.series("telea_b")->raw().size(), 1u);
  EXPECT_DOUBLE_EQ(engine.series("telea_b")->last(), 20.0);
  ASSERT_NE(engine.series("telea_c"), nullptr);
  EXPECT_EQ(engine.series("telea_c")->raw().size(), 2u);
  EXPECT_DOUBLE_EQ(engine.series("telea_c")->last(), 4.0);
  ASSERT_NE(engine.series("telea_d_total"), nullptr);
  EXPECT_DOUBLE_EQ(engine.series("telea_d_total")->last(), 10.0);
  ASSERT_NE(engine.series("telea_h_count"), nullptr);
  EXPECT_EQ(engine.series("telea_h_count")->raw().size(), 3u);
  EXPECT_EQ(engine.series("telea_h_bucket{le=\"1\"}"), nullptr);
  // a, b, c, d and the histogram's _sum and _count.
  EXPECT_EQ(engine.series_count(), 6u);
}

TEST(Metrics, VisitSamplesReportsKinds) {
  MetricsRegistry reg;
  reg.counter("telea_ops_total").inc(2);
  reg.gauge("telea_depth").set(7);
  reg.histogram("telea_lat_seconds", {1.0}).observe(0.5);
  std::map<std::string, SampleKind> kinds;
  reg.visit_samples([&kinds](const std::string& name, double value,
                             SampleKind kind) {
    (void)value;
    kinds[name] = kind;
  });
  EXPECT_EQ(kinds.at("telea_ops_total"), SampleKind::kCounter);
  EXPECT_EQ(kinds.at("telea_depth"), SampleKind::kGauge);
  EXPECT_EQ(kinds.at("telea_lat_seconds_count"), SampleKind::kHistogram);
  EXPECT_EQ(kinds.at("telea_lat_seconds_sum"), SampleKind::kHistogram);
}

}  // namespace
}  // namespace telea
