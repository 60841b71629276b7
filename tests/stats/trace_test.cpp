#include "stats/trace.hpp"

#include <gtest/gtest.h>

#include "harness/network.hpp"
#include "util/enum_name.hpp"
#include "util/json.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

TEST(Tracer, RecordsAndSnapshotsInOrder) {
  Tracer t(8);
  t.record(10, 1, TraceEvent::kCodeChange, 3, 4);
  t.record(20, 2, TraceEvent::kKill);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].time, 10u);
  EXPECT_EQ(snap[0].node, 1);
  EXPECT_EQ(snap[0].a, 3u);
  EXPECT_EQ(snap[1].event, TraceEvent::kKill);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, RingDropsOldestBeyondCapacity) {
  Tracer t(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.record(i, 0, TraceEvent::kCodeChange, i);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto snap = t.snapshot();
  EXPECT_EQ(snap.front().a, 6u);
  EXPECT_EQ(snap.back().a, 9u);
}

TEST(Tracer, CountAndByEventFilter) {
  Tracer t(16);
  t.record(1, 0, TraceEvent::kCodeChange);
  t.record(2, 0, TraceEvent::kParentChange, 1, 2);
  t.record(3, 0, TraceEvent::kCodeChange);
  EXPECT_EQ(t.count(TraceEvent::kCodeChange), 2u);
  EXPECT_EQ(t.by_event(TraceEvent::kParentChange).size(), 1u);
}

TEST(Tracer, ControlPathCollapsesRepeats) {
  Tracer t(16);
  t.record(1, 0, TraceEvent::kControlTx, 7);
  t.record(2, 0, TraceEvent::kControlTx, 7);  // retry at same node
  t.record(3, 5, TraceEvent::kControlTx, 7);
  t.record(4, 9, TraceEvent::kControlTx, 8);  // different packet
  const auto path = relay_path(t.snapshot(), 7);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 0);
  EXPECT_EQ(path[1], 5);
}

TEST(Tracer, NamesRoundTripThroughLookups) {
  // Probe values until the name falls back to "?", as the lookups do, so an
  // appended enumerator is covered without a loop bound to update.
  std::size_t events = 0;
  for (std::uint8_t i = 0;
       std::string_view(trace_event_name(static_cast<TraceEvent>(i))) != "?";
       ++i, ++events) {
    const auto e = static_cast<TraceEvent>(i);
    const auto back = trace_event_from_name(trace_event_name(e));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, e);
  }
  EXPECT_GT(events, 0u);
  std::size_t reasons = 0;
  for (std::uint8_t i = 0;
       std::string_view(trace_reason_name(static_cast<TraceReason>(i))) != "?";
       ++i, ++reasons) {
    const auto r = static_cast<TraceReason>(i);
    const auto back = trace_reason_from_name(trace_reason_name(r));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, r);
  }
  EXPECT_GT(reasons, 0u);
  // Flight dumps of earlier builds used these names for the ring-only kinds.
  EXPECT_STREQ(trace_event_name(TraceEvent::kAckTimeout), "ack_timeout");
  EXPECT_STREQ(trace_event_name(TraceEvent::kGiveUp), "give_up");
  EXPECT_FALSE(trace_event_from_name("bogus").has_value());
  EXPECT_FALSE(trace_reason_from_name("bogus").has_value());
}

TEST(TracerRing, ExactlyAtCapacityKeepsEverything) {
  Tracer t(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    t.record(i, 0, TraceEvent::kCodeChange, i);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.count(TraceEvent::kCodeChange), 4u);
  EXPECT_EQ(t.by_event(TraceEvent::kCodeChange).size(), 4u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(snap[i].a, i);
}

TEST(TracerRing, CapacityFloorsAtOne) {
  Tracer t(0);
  EXPECT_EQ(t.capacity(), 1u);
  t.record(1, 0, TraceEvent::kReboot);
  t.record(2, 0, TraceEvent::kBacktrack, 7, 3);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.dropped(), 1u);
  EXPECT_EQ(t.snapshot().front().event, TraceEvent::kBacktrack);
}

TEST(TracerRing, CapacityPlusOneDropsExactlyTheOldest) {
  Tracer t(4);
  for (std::uint64_t i = 0; i < 5; ++i) {
    t.record(i, 0, TraceEvent::kCodeChange, i);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 1u);
  // count() and by_event() must agree with each other and with snapshot()
  // right after the wrap.
  EXPECT_EQ(t.count(TraceEvent::kCodeChange), 4u);
  const auto filtered = t.by_event(TraceEvent::kCodeChange);
  ASSERT_EQ(filtered.size(), 4u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].a, i + 1);  // record 0 was dropped; order chronological
    EXPECT_EQ(filtered[i].a, i + 1);
  }
}

TEST(TracerRing, SnapshotStaysChronologicalAcrossManyWraps) {
  Tracer t(3);
  for (std::uint64_t i = 0; i < 11; ++i) {
    t.record(i * 10, 0, TraceEvent::kCodeChange, i);
  }
  EXPECT_EQ(t.dropped(), 8u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].a, 8u);
  EXPECT_EQ(snap[1].a, 9u);
  EXPECT_EQ(snap[2].a, 10u);
  EXPECT_LT(snap[0].time, snap[1].time);
  EXPECT_LT(snap[1].time, snap[2].time);
}

TEST(TracerRing, ExplainSurvivesPartialEviction) {
  // A long run wraps the ring past a command's early records: explain must
  // render the surviving tail, not crash or claim the seqno never existed.
  Tracer t(4);
  t.record(1000000, 0, TraceEvent::kControlTx, 7, 1);
  t.record(1100000, 1, TraceEvent::kForwardDecision, 7, 0,
           TraceReason::kExpectedRelay);
  t.record(1200000, 1, TraceEvent::kControlTx, 7, 2);
  t.record(1300000, 2, TraceEvent::kForwardDecision, 7, 1,
           TraceReason::kExpectedRelay);
  t.record(1400000, 2, TraceEvent::kControlTx, 7, 3);
  t.record(1500000, 2, TraceEvent::kBacktrack, 7, 1,
           TraceReason::kRetryExhausted);
  EXPECT_EQ(t.dropped(), 2u);  // the sink's tx and node 1's claim are gone
  const std::string text = t.explain(7);
  EXPECT_NE(text.find("control seqno 7"), std::string::npos);
  EXPECT_NE(text.find("backtrack"), std::string::npos);
  // The reconstructed relay path starts at the first *surviving* node.
  EXPECT_NE(text.find("relay path: 1 2"), std::string::npos);
  // A fully evicted seqno still answers gracefully.
  EXPECT_NE(t.explain(99).find("no records"), std::string::npos);
}

TEST(TracerRing, ExplainAckOnlyTailAfterHeavyEviction) {
  // Heavier truncation: every forward-trip record is gone and only the ack
  // leg survives. The narrative must still render the ack hops, and the
  // relay-path summary (built from kControlTx records) must simply be
  // absent rather than fabricated.
  Tracer t(3);
  t.record(100, 0, TraceEvent::kControlTx, 5, 1);
  t.record(200, 1, TraceEvent::kControlTx, 5, 2);
  t.record(300, 2, TraceEvent::kControlDelivered, 5, 1);
  t.record(400, 2, TraceEvent::kAckPath, 5, 1);
  t.record(500, 1, TraceEvent::kAckPath, 5, 0);
  t.record(600, 0, TraceEvent::kCommandResolve, 5, 2);
  EXPECT_EQ(t.dropped(), 3u);  // both kControlTx records evicted

  const std::string text = t.explain(5);
  EXPECT_NE(text.find("control seqno 5"), std::string::npos);
  EXPECT_NE(text.find("ack hop"), std::string::npos);
  EXPECT_EQ(text.find("relay path"), std::string::npos);
  EXPECT_EQ(text.find("no records"), std::string::npos);

  // relay_path agrees: no surviving transmissions, empty path, no crash.
  EXPECT_TRUE(relay_path(t.snapshot(), 5).empty());
}

TEST(TracerRing, TruncatedRingRoundTripsThroughJsonl) {
  // Offline tooling path: a wrapped ring is exported, re-parsed, and
  // explained via explain_control. The reconstruction from the truncated
  // export must match the live tracer's own rendering exactly.
  Tracer t(4);
  t.record(1000000, 0, TraceEvent::kControlTx, 9, 1);
  t.record(1100000, 1, TraceEvent::kForwardDecision, 9, 2,
           TraceReason::kExpectedRelay);
  t.record(1200000, 1, TraceEvent::kControlTx, 9, 2);
  t.record(1300000, 2, TraceEvent::kControlDelivered, 9, 1);
  t.record(1400000, 2, TraceEvent::kAckPath, 9, 1);
  t.record(1500000, 1, TraceEvent::kAckPath, 9, 0);
  EXPECT_EQ(t.dropped(), 2u);

  std::size_t skipped = 0;
  const auto records = parse_trace_jsonl(t.render_jsonl(), &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(records.size(), t.size());
  EXPECT_EQ(explain_control(records, 9), t.explain(9));
  // The surviving tail starts mid-flight at node 1's second transmission.
  EXPECT_NE(t.explain(9).find("relay path: 1"), std::string::npos);
}

TEST(Tracer, ExplainOptionsFilterByNode) {
  Tracer t(16);
  t.record(1000000, 0, TraceEvent::kControlTx, 5, 1);
  t.record(1100000, 1, TraceEvent::kForwardDecision, 5, 0,
           TraceReason::kExpectedRelay);
  t.record(1200000, 1, TraceEvent::kControlTx, 5, 2);
  const auto records = t.snapshot();

  ExplainOptions opts;
  opts.node = 1;
  const std::string text = explain_control(records, 5, opts);
  EXPECT_EQ(text.find("node 0"), std::string::npos);
  EXPECT_NE(text.find("node 1"), std::string::npos);
  // The path summary still reflects the whole trajectory.
  EXPECT_NE(text.find("relay path: 0 1"), std::string::npos);

  opts.node = 9;  // a node that never touched the packet
  const std::string empty = explain_control(records, 5, opts);
  EXPECT_NE(empty.find("no records for this seqno at the selected node"),
            std::string::npos);
  EXPECT_NE(empty.find("relay path: 0 1"), std::string::npos);
}

TEST(Tracer, ExplainOptionsPathOnlyAndDeltas) {
  Tracer t(16);
  t.record(1000000, 0, TraceEvent::kControlTx, 5, 1);
  t.record(1100000, 1, TraceEvent::kForwardDecision, 5, 0,
           TraceReason::kExpectedRelay);
  t.record(1200000, 1, TraceEvent::kControlTx, 5, 2);
  const auto records = t.snapshot();

  ExplainOptions path_only;
  path_only.path_only = true;
  const std::string path = explain_control(records, 5, path_only);
  EXPECT_NE(path.find("control seqno 5"), std::string::npos);
  EXPECT_NE(path.find("relay path: 0 1"), std::string::npos);
  EXPECT_EQ(path.find("transmit"), std::string::npos);

  ExplainOptions deltas;
  deltas.deltas = true;
  const std::string rel = explain_control(records, 5, deltas);
  // First line anchors at +0, the claim shows its 0.1 s offset.
  EXPECT_NE(rel.find("+ 0.000000s"), std::string::npos);
  EXPECT_NE(rel.find("+ 0.100000s"), std::string::npos);
  EXPECT_EQ(rel.find("1000000"), std::string::npos);

  // Default options render byte-identically to the two-argument overload.
  EXPECT_EQ(explain_control(records, 5, ExplainOptions{}),
            explain_control(records, 5));
}

TEST(Tracer, ControlPathKeepsBacktrackLoops) {
  // A backtracked trajectory revisits a node non-adjacently: A,A,B,A must
  // collapse only the adjacent repeat, giving A,B,A — the loop is the
  // evidence of the backtrack and must survive.
  Tracer t(16);
  t.record(1, 4, TraceEvent::kControlTx, 9);
  t.record(2, 4, TraceEvent::kControlTx, 9);  // LPL copy at the same node
  t.record(3, 6, TraceEvent::kControlTx, 9);  // claimed downstream
  t.record(4, 6, TraceEvent::kBacktrack, 9, 4, TraceReason::kRetryExhausted);
  t.record(5, 4, TraceEvent::kControlTx, 9);  // upstream retries
  const auto path = relay_path(t.snapshot(), 9);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 4);
  EXPECT_EQ(path[1], 6);
  EXPECT_EQ(path[2], 4);
}

TEST(Tracer, ExplainReconstructsTrajectoryWithReasons) {
  Tracer t(16);
  t.record(1000000, 0, TraceEvent::kControlTx, 5, 1);
  t.record(1100000, 1, TraceEvent::kForwardDecision, 5, 0,
           TraceReason::kExpectedRelay);
  t.record(1200000, 1, TraceEvent::kControlTx, 5, 2);
  t.record(1300000, 1, TraceEvent::kBacktrack, 5, 0,
           TraceReason::kNeighborUnreachable);
  t.record(1400000, 2, TraceEvent::kRedirect, 5, 3,
           TraceReason::kNeighborUnreachable);
  const std::string text = t.explain(5);
  EXPECT_NE(text.find("control seqno 5"), std::string::npos);
  EXPECT_NE(text.find("expected_relay"), std::string::npos);
  EXPECT_NE(text.find("backtrack"), std::string::npos);
  EXPECT_NE(text.find("neighbor_unreachable"), std::string::npos);
  EXPECT_NE(text.find("redirect"), std::string::npos);
  EXPECT_NE(text.find("relay path: 0 1"), std::string::npos);
  EXPECT_NE(t.explain(99).find("no records"), std::string::npos);
}

TEST(Tracer, JsonlRoundTripsThroughParser) {
  Tracer t(16);
  t.record(1500000, 3, TraceEvent::kForwardDecision, 12, 7,
           TraceReason::kLongerPrefix);
  t.record(1600000, 4, TraceEvent::kSuppress, 12, 3,
           TraceReason::kRetryExhausted);
  const std::string jsonl = t.render_jsonl();

  std::size_t skipped = 0;
  const auto parsed = parse_trace_jsonl(jsonl, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].time, 1500000u);
  EXPECT_EQ(parsed[0].node, 3);
  EXPECT_EQ(parsed[0].event, TraceEvent::kForwardDecision);
  EXPECT_EQ(parsed[0].reason, TraceReason::kLongerPrefix);
  EXPECT_EQ(parsed[0].a, 12u);
  EXPECT_EQ(parsed[0].b, 7u);
  EXPECT_EQ(parsed[1].event, TraceEvent::kSuppress);
  EXPECT_EQ(parsed[1].reason, TraceReason::kRetryExhausted);

  // explain_control over reloaded records matches the live tracer's view.
  EXPECT_EQ(explain_control(parsed, 12), t.explain(12));
}

TEST(Tracer, JsonlParserSkipsMalformedLines) {
  std::size_t skipped = 0;
  const auto parsed = parse_trace_jsonl(
      "{\"t\":1.0,\"node\":2,\"event\":\"kill\",\"a\":0,\"b\":0,"
      "\"reason\":\"none\"}\n"
      "not json at all\n"
      "{\"t\":2.0,\"node\":9}\n"  // valid JSON, unknown shape -> kept? no event
      "\n",
      &skipped);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].node, 2);
  EXPECT_EQ(parsed[0].event, TraceEvent::kKill);
  EXPECT_EQ(skipped, 2u);
}

// parse_trace_jsonl walks its input with JsonlObjects: on damage that is
// not JSON-object-shaped, both report the same skip count.
TEST(Tracer, JsonlParserSkipCountMatchesJsonlObjects) {
  Tracer t(8);
  t.record(1 * kSecond, 1, TraceEvent::kKill);
  t.record(2 * kSecond, 2, TraceEvent::kRevive);
  const std::string text = "garbage\n" + t.render_jsonl() +
                           "  \n[]\n{\"t\":\n42\n\"str\"\n";
  std::size_t skipped = 0;
  const auto parsed = parse_trace_jsonl(text, &skipped);
  EXPECT_EQ(parsed.size(), 2u);
  JsonlObjects lines(text);
  std::size_t objects = 0;
  while (lines.next().has_value()) ++objects;
  EXPECT_EQ(objects, 2u);
  EXPECT_EQ(lines.skipped(), 5u);
  EXPECT_EQ(skipped, lines.skipped());
}

TEST(Tracer, ClearResets) {
  Tracer t(4);
  t.record(1, 0, TraceEvent::kKill);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(TracerIntegration, NetworkTracesControlPath) {
  NetworkConfig cfg;
  cfg.topology = make_line(4, 22.0);
  cfg.seed = 91;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(cfg);
  Tracer& tracer = net.enable_tracing();
  net.start();
  net.run_for(4_min);
  EXPECT_GT(tracer.count(TraceEvent::kCodeChange), 0u);
  // Beacon and data copies leave no record: before the first command the
  // ring holds only protocol-state events.
  EXPECT_EQ(tracer.count(TraceEvent::kParentChange) +
                tracer.count(TraceEvent::kCodeChange),
            tracer.size());

  const auto seq = net.sink().tele()->send_control(
      3, net.node(3).tele()->addressing().code(), 1);
  ASSERT_TRUE(seq.has_value());
  net.run_for(30_s);
  // The realized relay chain starts at the sink and ends adjacent to the
  // destination (the destination itself never retransmits).
  const auto path = relay_path(tracer.snapshot(), *seq);
  ASSERT_GE(path.size(), 3u);
  EXPECT_EQ(path.front(), 0);
}

TEST(TracerIntegration, KillAndReviveAreRecorded) {
  NetworkConfig cfg;
  cfg.topology = make_line(3, 22.0);
  cfg.seed = 92;
  cfg.protocol = ControlProtocol::kTele;
  Network net(cfg);
  Tracer& tracer = net.enable_tracing();
  net.start();
  net.run_for(1_min);
  net.node(2).kill();
  net.run_for(30_s);
  net.node(2).revive();
  net.run_for(30_s);
  EXPECT_EQ(tracer.count(TraceEvent::kKill), 1u);
  EXPECT_EQ(tracer.count(TraceEvent::kRevive), 1u);
  EXPECT_FALSE(net.node(2).killed());
}

TEST(TracerIntegration, RevivedNodeRejoinsAndIsControllable) {
  NetworkConfig cfg;
  cfg.topology = make_line(3, 22.0);
  cfg.seed = 93;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(cfg);
  net.start();
  net.run_for(4_min);
  net.node(2).kill();
  net.run_for(2_min);
  net.node(2).revive();
  net.run_for(3_min);  // CTP + addressing repair

  bool delivered = false;
  net.node(2).tele()->on_control_delivered =
      [&delivered](const msg::ControlPacket&, bool) { delivered = true; };
  const auto& code = net.node(2).tele()->addressing().code();
  ASSERT_FALSE(code.empty());
  net.sink().tele()->send_control(2, code, 1);
  net.run_for(1_min);
  EXPECT_TRUE(delivered);
}

// A trigger is free text (alert rule names may hold backslashes and have any
// length), so the dump writer must escape it and never truncate the line.
TEST(FlightDump, TriggerIsEscapedAndDumpRoundTrips) {
  Tracer ring(2);
  ring.record(1'000'000, 17, TraceEvent::kAckTimeout, 42, 9);
  ring.record(2'000'000, 17, TraceEvent::kBacktrack, 42, 3,
              TraceReason::kRetryExhausted);
  ring.record(2'500'000, 17, TraceEvent::kGiveUp, 42, 1);

  FlightDump dump;
  dump.time = 3'000'000;
  dump.node = 17;
  dump.events = ring.snapshot();
  dump.dropped = ring.dropped();
  const std::string long_trigger = "alert:" + std::string(150, 'q');
  ASSERT_EQ(long_trigger.size(), 156u);
  for (const std::string& trigger :
       {std::string("alert:queue\\spike"), long_trigger}) {
    dump.trigger = trigger;
    const std::string line = render_flight_dump_json(dump);
    const auto doc = JsonValue::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->string_or("trigger", ""), trigger);
    EXPECT_DOUBLE_EQ(doc->number_or("t", 0), 3.0);
    EXPECT_DOUBLE_EQ(doc->number_or("node", 0), 17.0);
    EXPECT_DOUBLE_EQ(doc->number_or("dropped", 0), 1.0);
    const JsonValue* events = doc->find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->as_array().size(), dump.events.size());
    for (std::size_t i = 0; i < dump.events.size(); ++i) {
      EXPECT_EQ(trace_record_from_json(events->as_array()[i]), dump.events[i]);
    }
  }
}

// A node's flight ring keeps its newest TraceRouter::kRingCapacity records,
// oldest first, and a dump carries the ring's eviction count.
TEST(FlightRecorder, RingKeepsNewestAndCountsDrops) {
  NetworkConfig cfg;
  cfg.topology = make_line(3, 22.0);
  cfg.seed = 7;
  Network net(cfg);
  net.enable_flight_recorders();
  TraceRouter& router = net.router();
  const Tracer* ring = router.ring(1);
  ASSERT_NE(ring, nullptr);
  constexpr std::size_t kCapacity = TraceRouter::kRingCapacity;
  EXPECT_EQ(ring->capacity(), kCapacity);
  const std::size_t before = ring->size() + ring->dropped();
  constexpr std::uint64_t kRecorded = kCapacity + 5;
  for (std::uint64_t i = 0; i < kRecorded; ++i) {
    router.record(1, TraceEvent::kForwardDecision, i, 0,
                  TraceReason::kExpectedRelay);
  }
  EXPECT_EQ(ring->size(), kCapacity);
  EXPECT_EQ(ring->size() + ring->dropped(), before + kRecorded);
  EXPECT_GE(ring->dropped(), 5u);
  const auto events = ring->snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  EXPECT_EQ(events.front().a, kRecorded - kCapacity);
  EXPECT_EQ(events.back().a, kRecorded - 1);

  net.dump_flight(1, "test");
  ASSERT_EQ(net.flight_dumps().size(), 1u);
  const FlightDump& dump = net.flight_dumps().back();
  EXPECT_EQ(dump.node, 1);
  EXPECT_EQ(dump.trigger, "test");
  EXPECT_EQ(dump.events, events);
  EXPECT_EQ(dump.dropped, ring->dropped());
}

// Every event kind lands exactly where trace_event_sink's table says — the
// network trace, the recording node's ring, or both — stamped with the
// simulator's time and the recording node, and nowhere else.
TEST(TraceRouter, EveryEventLandsWhereTheTableSays) {
  Simulator sim;
  TraceRouter router(sim);
  const Tracer& trace = router.enable_trace(64);
  constexpr std::size_t kNodes = 3;
  router.arm_rings(kNodes, "");
  std::uint64_t events = 0;
  std::size_t in_trace = 0;
  std::size_t in_ring = 0;
  for_each_enum(trace_event_name, [&](TraceEvent e) {
    ++events;
    sim.run_until(sim.now() + kSecond);
    const auto node = static_cast<NodeId>(events % kNodes);
    std::vector<std::size_t> before{trace.size()};
    for (NodeId n = 0; n < kNodes; ++n) before.push_back(router.ring(n)->size());
    router.record(node, e, events, 7, TraceReason::kLongerPrefix);

    const TraceRecord want{sim.now(), node, e, TraceReason::kLongerPrefix,
                           events, 7};
    const TraceSink sink = trace_event_sink(e);
    const bool to_trace = sink != TraceSink::kRing;
    const bool to_ring = sink != TraceSink::kTrace;
    in_trace += to_trace ? 1 : 0;
    in_ring += to_ring ? 1 : 0;
    EXPECT_EQ(trace.size(), before[0] + (to_trace ? 1 : 0))
        << trace_event_name(e);
    if (to_trace) {
      EXPECT_EQ(trace.snapshot().back(), want);
    }
    for (NodeId n = 0; n < kNodes; ++n) {
      const Tracer& ring = *router.ring(n);
      const bool here = to_ring && n == node;
      EXPECT_EQ(ring.size(), before[n + 1] + (here ? 1 : 0))
          << trace_event_name(e) << " in the ring of node " << n;
      if (here) {
        EXPECT_EQ(ring.snapshot().back(), want);
      }
    }
  });
  EXPECT_GT(in_trace, 0u);
  EXPECT_GT(in_ring, 0u);
  EXPECT_LT(in_ring, events);  // most kinds stay out of the rings
}

// With neither the trace nor the rings on, recording and dumping keep
// nothing; a node outside the armed rings has no ring and no dump.
TEST(TraceRouter, KeepsNothingUntilTurnedOn) {
  Simulator sim;
  TraceRouter router(sim);
  router.record(1, TraceEvent::kForwardDecision, 5, 2);
  router.dump(1, "test");
  EXPECT_EQ(router.trace(), nullptr);
  EXPECT_FALSE(router.rings_armed());
  EXPECT_EQ(router.ring(1), nullptr);
  EXPECT_TRUE(router.dumps().empty());
  EXPECT_EQ(router.dumps_taken(), 0u);

  router.arm_rings(2, "");
  router.record(2, TraceEvent::kForwardDecision, 5, 2);
  router.dump(2, "test");
  EXPECT_EQ(router.ring(2), nullptr);
  EXPECT_TRUE(router.dumps().empty());
  EXPECT_EQ(router.ring_records(), 0u);
}

// Dump consumers key on these event names; the ring-only kinds kept the
// names they had before the ring became a Tracer.
TEST(FlightRecorder, EventNamesAreStable) {
  EXPECT_STREQ(trace_event_name(TraceEvent::kForwardDecision),
               "forward_decision");
  EXPECT_STREQ(trace_event_name(TraceEvent::kSuppress), "suppress");
  EXPECT_STREQ(trace_event_name(TraceEvent::kBacktrack), "backtrack");
  EXPECT_STREQ(trace_event_name(TraceEvent::kAckTimeout), "ack_timeout");
  EXPECT_STREQ(trace_event_name(TraceEvent::kGiveUp), "give_up");
  EXPECT_STREQ(trace_event_name(TraceEvent::kParentChange), "parent_change");
  EXPECT_STREQ(trace_event_name(TraceEvent::kCodeChange), "code_change");
  EXPECT_STREQ(trace_event_name(TraceEvent::kReboot), "reboot");
  EXPECT_STREQ(trace_event_name(TraceEvent::kAlertFired), "alert_fired");
}

}  // namespace
}  // namespace telea
