// Unit tests for the runtime invariant engine (src/check): every rule in the
// catalog is exercised with fabricated InvariantNodeView snapshots — a
// corrupted path code, a double-allocated sibling position, a forged relay
// claim — and a structurally clean network fires nothing.
#include "check/invariants.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace telea {
namespace {

PathCode code(const char* bits) {
  return BitString::from_string_unchecked(bits);
}

/// A consistent 4-node snapshot: sink "0" with children 1 ("001") and
/// 2 ("010") in a 2-bit space, node 3 ("00101") a child of 1 (3-bit space).
std::vector<InvariantNodeView> clean_views() {
  std::vector<InvariantNodeView> views(4);

  views[0].id = 0;
  views[0].has_addressing = true;
  views[0].code = code("0");
  views[0].space_bits = 2;
  views[0].children = {{1, 1, code("001"), {}, true},
                       {2, 2, code("010"), {}, true}};
  views[0].ctp_parent = kInvalidNode;

  views[1].id = 1;
  views[1].has_addressing = true;
  views[1].code = code("001");
  views[1].code_parent = 0;
  views[1].space_bits = 3;
  views[1].children = {{3, 1, code("001001"), {}, true}};
  views[1].neighbors = {{0, code("0"), {}, false, 0},
                        {2, code("010"), {}, false, 0}};
  views[1].ctp_parent = 0;

  views[2].id = 2;
  views[2].has_addressing = true;
  views[2].code = code("010");
  views[2].code_parent = 0;
  views[2].ctp_parent = 0;

  views[3].id = 3;
  views[3].has_addressing = true;
  views[3].code = code("001001");
  views[3].code_parent = 1;
  views[3].ctp_parent = 1;

  return views;
}

class InvariantEngineTest : public ::testing::Test {
 protected:
  Simulator sim_;
  TraceRouter router_{sim_};
  InvariantConfig cfg_;
};

TEST_F(InvariantEngineTest, CleanSnapshotFiresNothing) {
  InvariantEngine engine(sim_, router_, cfg_);
  EXPECT_EQ(engine.run_checkpoint(clean_views()), 0u);
  EXPECT_EQ(engine.run_checkpoint(clean_views()), 0u);  // and stays clean
  EXPECT_TRUE(engine.violations().empty());
  EXPECT_EQ(engine.checkpoints_run(), 2u);
}

TEST_F(InvariantEngineTest, CorruptedChildPositionBreaksParentPrefix) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  // Bit-flip corruption on the parent side: the stored position no longer
  // derives the stored code.
  views[0].children[0].position = 3;
  EXPECT_EQ(engine.run_checkpoint(views), 1u);
  ASSERT_EQ(engine.violations().size(), 1u);
  const InvariantViolation& v = engine.violations()[0];
  EXPECT_EQ(v.rule, InvariantRule::kAddrParentPrefix);
  EXPECT_EQ(v.node, 0);
  EXPECT_EQ(v.aux, 1u);  // names the affected child
}

TEST_F(InvariantEngineTest, DoubleAllocatedSiblingPositionIsCaught) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[0].children[1].position = 1;  // collides with child 1
  views[0].children[1].new_code = code("001");
  engine.run_checkpoint(views);
  EXPECT_EQ(engine.violation_count(InvariantRule::kAddrSiblingUnique), 1u);
  EXPECT_EQ(engine.violations()[0].node, 0);
}

TEST_F(InvariantEngineTest, PositionOutsideSpaceViolatesBounds) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[0].children[1].position = 7;  // 2-bit space holds [1, 4)
  engine.run_checkpoint(views);
  EXPECT_GE(engine.violation_count(InvariantRule::kAddrCodeBounds), 1u);
}

TEST_F(InvariantEngineTest, CodeNotExtendingSinkViolatesBounds) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[3].code = code("101");  // first bit must be the sink's 0
  engine.run_checkpoint(views);
  EXPECT_EQ(engine.violation_count(InvariantRule::kAddrCodeBounds), 1u);
  EXPECT_EQ(engine.violations()[0].node, 3);
}

TEST_F(InvariantEngineTest, ChildCodeMismatchGatesOnPersistence) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  // Child-side corruption: node 3's own code matches neither the new nor the
  // old code its allocator holds for it.
  views[3].code = code("001111");
  // First checkpoint: could be an AllocationAck in flight — no violation yet.
  EXPECT_EQ(engine.run_checkpoint(views), 0u);
  // Second consecutive checkpoint with the identical mismatch: corruption.
  EXPECT_EQ(engine.run_checkpoint(views), 1u);
  EXPECT_EQ(engine.violations()[0].rule, InvariantRule::kAddrParentPrefix);
  EXPECT_EQ(engine.violations()[0].node, 3);
}

TEST_F(InvariantEngineTest, RepairedMismatchNeverFires) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[3].code = code("001111");
  engine.run_checkpoint(views);          // transient mismatch...
  engine.run_checkpoint(clean_views());  // ...repaired before the next one
  EXPECT_TRUE(engine.violations().empty());
}

TEST_F(InvariantEngineTest, DeadAllocatorVouchesForNothing) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[3].code = code("001111");  // stale vs node 1's table...
  views[1].alive = false;          // ...but node 1 is down (Sec. III-B6)
  engine.run_checkpoint(views);
  engine.run_checkpoint(views);
  EXPECT_TRUE(engine.violations().empty());
}

TEST_F(InvariantEngineTest, UnreachableLeaseMovingBackwardsIsCaught) {
  InvariantEngine engine(sim_, router_, cfg_);
  sim_.run_until(100 * kSecond);
  auto views = clean_views();
  views[1].neighbors[1].unreachable = true;
  views[1].neighbors[1].unreachable_since = 50 * kSecond;
  EXPECT_EQ(engine.run_checkpoint(views), 0u);
  views[1].neighbors[1].unreachable_since = 20 * kSecond;  // went backwards
  EXPECT_EQ(engine.run_checkpoint(views), 1u);
  EXPECT_EQ(engine.violations()[0].rule, InvariantRule::kTblLeaseMonotone);
  EXPECT_EQ(engine.violations()[0].node, 1);
}

TEST_F(InvariantEngineTest, FutureLeaseTimestampIsCaught) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[1].neighbors[1].unreachable = true;
  views[1].neighbors[1].unreachable_since = 10 * kSecond;  // now is 0
  engine.run_checkpoint(views);
  EXPECT_EQ(engine.violation_count(InvariantRule::kTblLeaseMonotone), 1u);
}

TEST_F(InvariantEngineTest, PersistentCtpLoopIsCaughtTransientIsNot) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[1].ctp_parent = 3;  // 1 -> 3 -> 1
  views[3].ctp_parent = 1;
  EXPECT_EQ(engine.run_checkpoint(views), 0u);  // CTP may be mid-repair
  EXPECT_EQ(engine.run_checkpoint(views), 1u);  // same cycle persisted
  EXPECT_EQ(engine.violations()[0].rule, InvariantRule::kCtpNoLoop);

  engine.clear();
  views[1].ctp_parent = 0;  // repaired: back to the tree
  engine.run_checkpoint(views);
  EXPECT_TRUE(engine.violations().empty());
}

TEST_F(InvariantEngineTest, FrozenLoopFromLinkFaultIsNotAnActiveLoop) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[1].ctp_parent = 3;  // 1 <-> 3, but the pointers are frozen:
  views[3].ctp_parent = 1;  // neither node has heard the other recently
  views[1].ctp_parent_heard = 0;
  views[3].ctp_parent_heard = 0;
  sim_.run_until(30 * kSecond);
  engine.run_checkpoint(views);  // baseline: edges heard at 0 still count
  sim_.run_until(60 * kSecond);
  // Second checkpoint: nothing heard since the previous one (t=30) — the
  // "loop" is stale state frozen by a link fault, not an active route.
  engine.run_checkpoint(views);
  EXPECT_TRUE(engine.violations().empty());

  // Same cycle with beacons actually flowing is a real violation.
  views[1].ctp_parent_heard = sim_.now();
  views[3].ctp_parent_heard = sim_.now();
  engine.run_checkpoint(views);
  views[1].ctp_parent_heard = sim_.now();
  views[3].ctp_parent_heard = sim_.now();
  engine.run_checkpoint(views);
  EXPECT_EQ(engine.violation_count(InvariantRule::kCtpNoLoop), 1u);
}

TEST_F(InvariantEngineTest, CountToInfinityLoopInRepairIsNotStuck) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[1].ctp_parent = 3;
  views[3].ctp_parent = 1;
  // The costs climb between checkpoints: count-to-infinity is tearing the
  // cycle down (each round trips the trickle inconsistency reset until a
  // member crosses max_path_etx10). That is repair in motion, not a bug.
  std::uint16_t c = 100;
  for (int i = 0; i < 4; ++i) {
    views[1].ctp_cost = c;
    views[3].ctp_cost = static_cast<std::uint16_t>(c + 30);
    engine.run_checkpoint(views);
    c = static_cast<std::uint16_t>(c + 60);
  }
  EXPECT_TRUE(engine.violations().empty()) << engine.render_report();

  // The moment the costs freeze, the loop is stuck: two checkpoints later
  // it is a violation.
  engine.run_checkpoint(views);
  engine.run_checkpoint(views);
  EXPECT_EQ(engine.violation_count(InvariantRule::kCtpNoLoop), 1u);
}

TEST_F(InvariantEngineTest, OverflowedAllocatorEntryVouchesForNothing) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  // Allocator 1 could not derive a code for child 3 (capacity exhausted):
  // the entry exists but holds empty codes. The child's own (stale) code
  // matching neither is expected, not corruption.
  views[1].children[0].new_code = PathCode{};
  views[1].children[0].old_code = PathCode{};
  engine.run_checkpoint(views);
  engine.run_checkpoint(views);
  EXPECT_EQ(
      engine.violation_count(InvariantRule::kAddrParentPrefix) +
          engine.violation_count(InvariantRule::kAddrSiblingUnique),
      0u)
      << engine.render_report();
}

// --- forwarding claim audit --------------------------------------------------

msg::ControlPacket packet_to(NodeId dest, const char* dest_code,
                             NodeId expected_relay, std::uint8_t expected_len) {
  msg::ControlPacket p;
  p.dest = dest;
  p.dest_code = code(dest_code);
  p.expected_relay = expected_relay;
  p.expected_relay_code_len = expected_len;
  p.seqno = 7;
  return p;
}

TEST_F(InvariantEngineTest, JustifiedClaimsPassTheAudit) {
  InvariantEngine engine(sim_, router_, cfg_);
  engine.start([] { return clean_views(); });
  // Destination 3 ("001001"); sink announced expected relay 1 at len 1.
  const auto p = packet_to(3, "001001", 1, 1);
  // Condition (1): node 1 IS the expected relay.
  engine.on_claim(1, p, TraceReason::kExpectedRelay, false);
  // Condition (2) would be a longer own prefix; condition (3): node 1 also
  // knows child 3 outright. Either way the audit must accept.
  EXPECT_EQ(engine.claims_audited(), 1u);
  EXPECT_TRUE(engine.violations().empty());
}

TEST_F(InvariantEngineTest, ForgedClaimIsUnjustified) {
  InvariantEngine engine(sim_, router_, cfg_);
  engine.start([] { return clean_views(); });
  // Node 2 ("010") is off-path for "001001", has no on-path neighbors and is
  // not the expected relay — claiming is a protocol violation.
  const auto p = packet_to(3, "001001", 1, 3);
  engine.on_claim(2, p, TraceReason::kLongerPrefix, false);
  ASSERT_EQ(engine.violations().size(), 1u);
  const InvariantViolation& v = engine.violations()[0];
  EXPECT_EQ(v.rule, InvariantRule::kFwdClaimJustified);
  EXPECT_EQ(v.node, 2);
  EXPECT_EQ(v.aux, 7u);  // the control seqno
}

TEST_F(InvariantEngineTest, RescueClaimMayMeetTheBarPlainMayNot) {
  InvariantEngine engine(sim_, router_, cfg_);
  // Node 1's own progress toward "001001" is exactly 3 — equal to the bar.
  // Strip its tables so neither condition (1) nor (3) can mask the check.
  auto views = clean_views();
  views[1].children.clear();
  views[1].neighbors.clear();
  engine.start([views] { return views; });
  auto p = packet_to(3, "001001", 9, 3);
  engine.on_claim(1, p, TraceReason::kLongerPrefix, /*rescue=*/true);
  EXPECT_TRUE(engine.violations().empty()) << "rescue uses >=, not >";
  engine.on_claim(1, p, TraceReason::kLongerPrefix, /*rescue=*/false);
  EXPECT_EQ(engine.violation_count(InvariantRule::kFwdClaimJustified), 1u);
  EXPECT_EQ(engine.claims_audited(), 2u);
}

TEST_F(InvariantEngineTest, FailFastThrowsOnFirstViolation) {
  cfg_.fail_fast = true;
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[0].children[1].position = 1;
  views[0].children[1].new_code = code("001");
  EXPECT_THROW(engine.run_checkpoint(views), InvariantViolationError);
  try {
    engine.clear();
    engine.run_checkpoint(views);
  } catch (const InvariantViolationError& e) {
    EXPECT_EQ(e.violation().rule, InvariantRule::kAddrSiblingUnique);
    EXPECT_NE(std::string(e.what()).find("addr.sibling_unique"),
              std::string::npos);
  }
}

// --- delivery dedup + verdict conservation ----------------------------------

TEST_F(InvariantEngineTest, DuplicateFinalDeliveryIsCaught) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto p = packet_to(3, "001001", 1, 1);
  engine.on_final_delivery(3, p, false);
  EXPECT_TRUE(engine.violations().empty());
  engine.on_final_delivery(3, p, false);  // same seqno, no state loss
  EXPECT_EQ(engine.violation_count(InvariantRule::kFwdUniqueDelivery), 1u);
}

TEST_F(InvariantEngineTest, RedeliveryAfterStateLossRebootIsLegal) {
  InvariantEngine engine(sim_, router_, cfg_);
  auto p = packet_to(3, "001001", 1, 1);
  engine.on_final_delivery(3, p, false);
  engine.note_node_reset(3);  // dedup state wiped with the reboot
  engine.on_final_delivery(3, p, false);
  EXPECT_TRUE(engine.violations().empty());
  engine.on_final_delivery(3, p, false);  // but only once per reboot
  EXPECT_EQ(engine.violation_count(InvariantRule::kFwdUniqueDelivery), 1u);
}

TEST_F(InvariantEngineTest, DeliveryAtWrongNodeIsCaught) {
  InvariantEngine engine(sim_, router_, cfg_);
  const auto p = packet_to(3, "001001", 1, 1);
  engine.on_final_delivery(2, p, false);
  ASSERT_EQ(engine.violation_count(InvariantRule::kFwdUniqueDelivery), 1u);
  EXPECT_EQ(engine.violations()[0].node, 2);
}

TEST_F(InvariantEngineTest, CommandLifecycleClosesExactlyOnce) {
  InvariantEngine engine(sim_, router_, cfg_);
  engine.note_command_issued(11);
  engine.note_command_resolved(11);
  EXPECT_TRUE(engine.violations().empty());
  engine.note_command_resolved(11);  // double verdict
  EXPECT_EQ(engine.violation_count(InvariantRule::kFwdVerdictConservation),
            1u);
  engine.note_command_resolved(99);  // verdict without an issue
  EXPECT_EQ(engine.violation_count(InvariantRule::kFwdVerdictConservation),
            2u);
}

TEST_F(InvariantEngineTest, FinalAuditFlagsPendingOnlyWhenAsked) {
  InvariantEngine lax(sim_, router_, cfg_);
  lax.note_command_issued(5);
  EXPECT_EQ(lax.final_audit(), 0u);  // expect_all_resolved defaults off

  cfg_.expect_all_resolved = true;
  InvariantEngine strict(sim_, router_, cfg_);
  strict.note_command_issued(5);
  EXPECT_EQ(strict.final_audit(), 1u);
  EXPECT_EQ(strict.violations()[0].rule,
            InvariantRule::kFwdVerdictConservation);
}

TEST_F(InvariantEngineTest, PeriodicCheckpointsRunOnTheSimClock) {
  cfg_.checkpoint_interval = 30 * kSecond;
  InvariantEngine engine(sim_, router_, cfg_);
  engine.start([] { return clean_views(); });
  sim_.run_until(95 * kSecond);
  EXPECT_EQ(engine.checkpoints_run(), 3u);
  engine.stop();
  sim_.run_until(200 * kSecond);
  EXPECT_EQ(engine.checkpoints_run(), 3u);
}

TEST_F(InvariantEngineTest, RuleNamesRoundTripAndHaveSections) {
  // Probe values until the name falls back to "?", as the lookup does, so an
  // appended rule is covered without a loop bound to update.
  std::size_t rules = 0;
  for (std::uint8_t i = 0;
       std::string_view(invariant_rule_name(static_cast<InvariantRule>(i))) !=
       "?";
       ++i, ++rules) {
    const auto rule = static_cast<InvariantRule>(i);
    const char* name = invariant_rule_name(rule);
    EXPECT_STRNE(invariant_rule_section(rule), "?");
    const auto back = invariant_rule_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, rule);
  }
  EXPECT_GT(rules, 0u);
  EXPECT_FALSE(invariant_rule_from_name("no_such_rule").has_value());
}

TEST_F(InvariantEngineTest, ViolationsAreTraceLinked) {
  const Tracer& tracer = router_.enable_trace(64);
  router_.arm_rings(1, "");
  InvariantEngine engine(sim_, router_, cfg_);
  auto views = clean_views();
  views[0].children[0].position = 3;
  engine.run_checkpoint(views);
  const auto records = tracer.by_event(TraceEvent::kInvariantViolation);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].node, 0);
  EXPECT_EQ(records[0].a,
            static_cast<std::uint64_t>(InvariantRule::kAddrParentPrefix));
  EXPECT_EQ(records[0].b, 1u);  // the affected child
  // The violating node's ring is dumped, and the dump is traced.
  ASSERT_EQ(router_.dumps().size(), 1u);
  EXPECT_EQ(router_.dumps()[0].node, 0);
  EXPECT_EQ(router_.dumps()[0].trigger, "invariant:addr.parent_prefix");
  EXPECT_EQ(tracer.count(TraceEvent::kFlightDump), 1u);
}

}  // namespace
}  // namespace telea
