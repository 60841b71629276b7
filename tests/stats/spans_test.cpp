// Causal span engine: reconstructing per-command spans from the trace
// stream, the segment-sum reconciliation invariant, energy attribution,
// and the report/Perfetto exports (docs/OBSERVABILITY.md, spans section).

#include "stats/spans.hpp"

#include <gtest/gtest.h>

#include "harness/network.hpp"
#include "stats/trace.hpp"
#include "topo/topology.hpp"
#include "util/json.hpp"

namespace telea {
namespace {

using namespace time_literals;

// One clean two-relay delivery: 0 transmits, 1 claims (the copy started at
// 1.040), 1 transmits, destination 2 consumes it.
std::vector<TraceRecord> clean_delivery() {
  Tracer t(32);
  t.record(1000000, 0, TraceEvent::kControlTx, 7, 1);
  t.record(1040000, 0, TraceEvent::kControlTx, 7, 1);  // LPL copy
  t.record(1044000, 1, TraceEvent::kForwardDecision, 7, 0,
           TraceReason::kExpectedRelay);
  t.record(1100000, 1, TraceEvent::kControlTx, 7, 2);
  t.record(1104000, 2, TraceEvent::kControlDelivered, 7, 1);
  return t.snapshot();
}

TEST(CommandSpans, ReconstructsHopsAndSegments) {
  const auto spans = build_command_spans(clean_delivery());
  ASSERT_EQ(spans.size(), 1u);
  const CommandSpan& s = spans.front();
  EXPECT_EQ(s.seqno, 7u);
  EXPECT_EQ(s.origin, 0);
  EXPECT_EQ(s.dest, 2);
  EXPECT_TRUE(s.delivered);
  EXPECT_EQ(s.start, 1000000u);
  EXPECT_EQ(s.end, 1104000u);
  EXPECT_EQ(s.latency(), 104000u);

  // Tenures: origin until node 1's claim, node 1 until delivery.
  ASSERT_EQ(s.hops.size(), 2u);
  EXPECT_EQ(s.hops[0].node, 0);
  EXPECT_EQ(s.hops[0].copies, 2u);
  EXPECT_EQ(s.hops[1].node, 1);
  EXPECT_EQ(s.hops[1].end, s.end);

  // Partition: wait at 0, the claimed copy's airtime, wait at 1, airtime
  // into the destination. Both airtime gaps run transmission -> arrival.
  EXPECT_NEAR(s.segment_seconds(SegmentKind::kLplWait), 0.096, 1e-9);
  EXPECT_NEAR(s.segment_seconds(SegmentKind::kAirtime), 0.008, 1e-9);
  EXPECT_EQ(s.segment_seconds(SegmentKind::kBacktrack), 0.0);
  EXPECT_EQ(s.dominant_segment(), SegmentKind::kLplWait);
}

TEST(CommandSpans, SegmentSumsEqualLatencyByConstruction) {
  const auto spans = build_command_spans(clean_delivery());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.front().segment_total(), spans.front().latency());
  EXPECT_TRUE(spans.front().reconciles(0));  // exact, not just within a tick
  EXPECT_EQ(count_reconcile_failures(spans), 0u);
}

TEST(CommandSpans, BacktrackAndDetourGetTheirOwnSegments) {
  Tracer t(32);
  t.record(1000000, 0, TraceEvent::kControlTx, 3, 1);
  t.record(1010000, 1, TraceEvent::kForwardDecision, 3, 0,
           TraceReason::kExpectedRelay);
  t.record(1020000, 1, TraceEvent::kControlTx, 3, 2);
  t.record(1600000, 1, TraceEvent::kBacktrack, 3, 0,
           TraceReason::kRetryExhausted);
  t.record(1700000, 0, TraceEvent::kRedirect, 3, 5,
           TraceReason::kNeighborUnreachable);
  t.record(1800000, 0, TraceEvent::kControlTx, 3, 5);
  t.record(1810000, 2, TraceEvent::kControlDelivered, 3, 0);
  const auto spans = build_command_spans(t.snapshot());
  ASSERT_EQ(spans.size(), 1u);
  const CommandSpan& s = spans.front();
  EXPECT_TRUE(s.delivered);
  EXPECT_NEAR(s.segment_seconds(SegmentKind::kBacktrack), 0.1, 1e-9);
  EXPECT_NEAR(s.segment_seconds(SegmentKind::kDetour), 0.1, 1e-9);
  EXPECT_TRUE(s.reconciles(0));
}

TEST(CommandSpans, UndeliveredSpanIsMarkedAndNotAReconcileFailure) {
  Tracer t(16);
  t.record(2000000, 0, TraceEvent::kControlTx, 9, 1);
  t.record(2100000, 0, TraceEvent::kControlTx, 9, 1);
  const auto spans = build_command_spans(t.snapshot());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans.front().delivered);
  EXPECT_EQ(spans.front().dest, kInvalidNode);
  EXPECT_EQ(count_reconcile_failures(spans), 0u);
}

TEST(CommandSpans, PartiallyEvictedTraceDegradesGracefully) {
  // Ring eviction ate the origin's transmissions: the span starts at the
  // first surviving record instead of crashing or inventing time.
  Tracer t(16);
  t.record(5000000, 3, TraceEvent::kForwardDecision, 11, 0,
           TraceReason::kLongerPrefix);
  t.record(5100000, 3, TraceEvent::kControlTx, 11, 4);
  t.record(5110000, 4, TraceEvent::kControlDelivered, 11, 3);
  const auto spans = build_command_spans(t.snapshot());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.front().origin, 3);
  EXPECT_TRUE(spans.front().delivered);
  EXPECT_TRUE(spans.front().reconciles());
}

TEST(CommandSpans, EnergyAttributionFollowsTheRadioStateModel) {
  const auto spans = build_command_spans(clean_delivery());
  ASSERT_EQ(spans.size(), 1u);
  SpanEnergyConfig cfg;
  cfg.supply_volts = 3.0;
  cfg.tx_current_ma = 20.0;
  cfg.rx_current_ma = 18.0;
  cfg.copy_airtime_s = 0.004;
  const CommandEnergy e = attribute_energy(spans.front(), cfg);
  // Listen floor: 0.104 s * 18 mA * 3 V = 5.616 mJ. TX delta: 3 copies *
  // 4 ms * 2 mA * 3 V = 0.072 mJ.
  EXPECT_NEAR(e.listen_uj, 5616.0, 1e-6);
  EXPECT_NEAR(e.tx_uj, 72.0, 1e-6);
  EXPECT_NEAR(e.total_uj, e.listen_uj + e.tx_uj, 1e-9);
  double per_node = 0.0;
  for (const auto& [node, uj] : e.per_node_uj) per_node += uj;
  EXPECT_NEAR(per_node, e.total_uj, 1e-6);
}

TEST(CommandSpans, ReportJsonParsesWithAggregates) {
  const auto spans = build_command_spans(clean_delivery());
  const auto doc =
      JsonValue::parse(render_report_json(spans, SpanEnergyConfig{}, "unit"));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("name", ""), "unit");
  EXPECT_EQ(doc->number_or("commands", -1), 1.0);
  EXPECT_EQ(doc->number_or("delivered", -1), 1.0);
  EXPECT_EQ(doc->number_or("reconcile_failures", -1), 0.0);
  const JsonValue* lat = doc->find("latency_s");
  ASSERT_NE(lat, nullptr);
  EXPECT_NEAR(lat->number_or("p50", 0.0), 0.104, 1e-6);
  const JsonValue* rows = doc->find("per_command");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->as_array().size(), 1u);
  EXPECT_EQ(rows->as_array()[0].string_or("dominant", ""), "lpl_wait");
}

TEST(CommandSpans, PerfettoJsonIsSchemaValid) {
  const auto spans = build_command_spans(clean_delivery());
  const auto doc = JsonValue::parse(render_perfetto_json(spans));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("displayTimeUnit", ""), "ms");
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type(), JsonValue::Type::kArray);
  std::size_t complete = 0;
  std::size_t metadata = 0;
  for (const auto& e : events->as_array()) {
    const std::string ph = e.string_or("ph", "");
    ASSERT_TRUE(ph == "X" || ph == "M") << "unexpected phase " << ph;
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    if (ph == "X") {
      ++complete;
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.find("dur")->as_number(), 0.0);
    } else {
      ++metadata;
    }
  }
  // 1 command slice + segments + 2 hop slices; 2 process + 3 thread names.
  EXPECT_GE(complete, 3u);
  EXPECT_GE(metadata, 5u);
}

TEST(CommandSpansIntegration, LiveDeliveryReconcilesEndToEnd) {
  NetworkConfig cfg;
  cfg.topology = make_line(4, 22.0);
  cfg.seed = 21;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(cfg);
  net.enable_tracing();
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(3).tele()->addressing().has_code());
  const auto seq = net.sink().tele()->send_control(
      3, net.node(3).tele()->addressing().code(), 1);
  ASSERT_TRUE(seq.has_value());
  net.run_for(2_min);

  const auto spans = net.command_spans();
  const CommandSpan* s = nullptr;
  for (const auto& span : spans) {
    if (span.seqno == *seq) s = &span;
  }
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->delivered);
  EXPECT_EQ(s->origin, 0);
  EXPECT_EQ(s->dest, 3);
  EXPECT_GE(s->hops.size(), 3u);
  // The tentpole invariant on real protocol output: the decomposition
  // tiles the measured end-to-end latency within one scheduler tick.
  EXPECT_TRUE(s->reconciles());
  EXPECT_EQ(count_reconcile_failures(spans), 0u);
  // A delivery across a 4-node line must include on-air time.
  EXPECT_GT(s->segment_seconds(SegmentKind::kAirtime), 0.0);

  const SpanEnergyConfig ecfg = net.span_energy_config();
  EXPECT_GT(ecfg.copy_airtime_s, 0.0);
  EXPECT_GT(attribute_energy(*s, ecfg).total_uj, 0.0);
}

}  // namespace
}  // namespace telea
