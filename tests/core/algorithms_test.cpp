// Conformance tests for the paper's Algorithms 1-3 at the message level,
// driven by direct calls against nodes of a converged line network.
//
// Algorithm 1: initial position allocation (space sizing + unique positions
//              + double beacon broadcast).
// Algorithm 2: parent's interaction — confirm matching claims, reallocate
//              mismatches, allocate unknown children, extend full spaces.
// Algorithm 3: child's interaction — adopt allocated position, confirm,
//              request when absent, update on space extension.

#include <gtest/gtest.h>

#include "core/addressing.hpp"
#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

class Algorithms : public ::testing::Test {
 protected:
  void SetUp() override {
    NetworkConfig cfg;
    cfg.topology = make_line(4, 22.0);
    cfg.seed = 65;
    cfg.protocol = ControlProtocol::kTele;
    net_ = std::make_unique<Network>(cfg);
    net_->start();
    net_->run_for(4_min);
    ASSERT_TRUE(addressing(3).has_code());
  }

  Addressing& addressing(NodeId id) {
    return net_->node(id).tele()->addressing();
  }

  msg::CtpBeacon claim_beacon(NodeId parent, std::uint32_t position,
                              std::uint8_t code_len) {
    msg::CtpBeacon b;
    b.parent = parent;
    b.etx = 100;
    b.hops = 2;
    b.seqno = 99;
    b.has_position_claim = true;
    b.claimed_position = position;
    b.claimed_code_len = code_len;
    return b;
  }

  std::unique_ptr<Network> net_;
};

// --- Algorithm 1 -----------------------------------------------------------

TEST_F(Algorithms, Alg1PositionsAreUniqueAndInsideSpace) {
  for (NodeId parent = 0; parent < 3; ++parent) {
    const auto& table = addressing(parent).children();
    const std::uint8_t bits = addressing(parent).space_bits();
    std::set<std::uint32_t> seen;
    for (const auto& e : table.entries()) {
      EXPECT_TRUE(seen.insert(e.position).second) << "parent " << parent;
      EXPECT_GT(e.position, 0u);  // zero reserved
      EXPECT_LT(e.position, 1u << bits);
    }
  }
}

TEST_F(Algorithms, Alg1SpaceCoversChildrenPlusSlack) {
  const auto& a = addressing(0);
  const HeadroomPolicy policy{};
  const auto n = static_cast<std::uint32_t>(a.children().size());
  EXPECT_GE((1u << a.space_bits()) - 1, n) << "capacity below child count";
  (void)policy;
}

// --- Algorithm 2 -----------------------------------------------------------

TEST_F(Algorithms, Alg2MatchingClaimConfirms) {
  Addressing& parent = addressing(1);
  const auto* entry = parent.children().find(2);
  ASSERT_NE(entry, nullptr);
  const auto code_len = static_cast<std::uint8_t>(addressing(2).code().size());
  // Lose the confirmation: a mismatched claim makes the parent reallocate,
  // which resets the flag (Alg. 2 lines 4-6).
  net_->node(1).on_beacon_heard(2, claim_beacon(/*parent=*/1,
                                                entry->position + 1, code_len));
  entry = parent.children().find(2);
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->confirmed);
  // A claim at the reallocated position confirms it again (Alg. 2 l.2-3).
  net_->node(1).on_beacon_heard(2,
                                claim_beacon(1, entry->position, code_len));
  EXPECT_TRUE(parent.children().find(2)->confirmed);
}

TEST_F(Algorithms, Alg2MismatchedClaimReallocates) {
  Addressing& parent = addressing(1);
  const auto* entry = parent.children().find(2);
  ASSERT_NE(entry, nullptr);
  const std::uint32_t wrong = entry->position + 1;
  const auto before_allocs = parent.stats().allocations;
  net_->node(1).on_beacon_heard(
      2, claim_beacon(1, wrong, static_cast<std::uint8_t>(
                                    addressing(2).code().size())));
  // Alg. 2 line 4-6: flag reset and an allocation acknowledgement sent.
  EXPECT_GT(parent.stats().allocations, before_allocs);
  EXPECT_FALSE(parent.children().find(2)->confirmed);
}

TEST_F(Algorithms, Alg2UnknownChildGetsAllocated) {
  Addressing& parent = addressing(1);
  const auto before = parent.children().size();
  net_->node(1).on_beacon_heard(77, claim_beacon(1, 5, 9));
  EXPECT_EQ(parent.children().size(), before + 1);
  EXPECT_NE(parent.children().find(77), nullptr);
}

TEST_F(Algorithms, Alg2ChildLeavingIsForgotten) {
  Addressing& parent = addressing(1);
  ASSERT_NE(parent.children().find(2), nullptr);
  // Node 2's beacon now claims a different parent.
  msg::CtpBeacon defect = claim_beacon(/*parent=*/0, 1, 5);
  net_->node(1).on_beacon_heard(2, defect);
  EXPECT_EQ(parent.children().find(2), nullptr);
}

TEST_F(Algorithms, Alg2FullSpaceExtends) {
  Addressing& parent = addressing(2);
  const std::uint8_t before_bits = parent.space_bits();
  ASSERT_GT(before_bits, 0);
  const std::uint32_t capacity = (1u << before_bits) - 1;
  const auto before_ext = parent.stats().space_extensions;
  for (std::uint32_t i = 0; i <= capacity; ++i) {
    parent.handle_position_request(static_cast<NodeId>(800 + i), true);
  }
  EXPECT_GT(parent.space_bits(), before_bits);
  EXPECT_GT(parent.stats().space_extensions, before_ext);
}

// --- Algorithm 3 -----------------------------------------------------------

TEST_F(Algorithms, Alg3ChildAdoptsAllocationFromTeleBeacon) {
  // Hand node 2 a TeleAdjusting beacon from its parent with a *new*
  // position; it must adopt the derived code and confirm.
  Addressing& child = addressing(2);
  Addressing& parent = addressing(1);
  const auto* entry = parent.children().find(2);
  ASSERT_NE(entry, nullptr);

  msg::TeleBeacon beacon;
  beacon.parent_code = parent.code();
  beacon.space_bits = parent.space_bits();
  const std::uint32_t new_pos = entry->position == 1 ? 2 : 1;
  beacon.entries.push_back(msg::AllocationEntry{2, new_pos, false});

  const auto before_confirms = child.stats().confirms_sent;
  child.handle_tele_beacon(1, beacon);
  EXPECT_EQ(child.position(), new_pos);
  EXPECT_EQ(child.code(),
            make_child_code(parent.code(), new_pos, parent.space_bits()));
  EXPECT_GT(child.stats().confirms_sent, before_confirms);
}

TEST_F(Algorithms, Alg3AbsentEntryTriggersPositionRequest) {
  Addressing& child = addressing(2);
  // Invalidate the child's position (as a parent change would), then show it
  // a parent beacon that allocated others but not it.
  net_->node(2).on_parent_changed(1, 1);
  msg::TeleBeacon beacon;
  beacon.parent_code = addressing(1).code();
  beacon.space_bits = addressing(1).space_bits();
  beacon.entries.push_back(msg::AllocationEntry{99, 3, false});
  const auto before = child.stats().requests_sent;
  child.handle_tele_beacon(1, beacon);
  EXPECT_GT(child.stats().requests_sent, before);
}

TEST_F(Algorithms, Alg3SpaceExtensionUpdatesOwnCodeAndChildren) {
  // Node 1 hears its parent's (sink's) beacon with a wider space: its code
  // re-derives and its own children get re-derived codes + a beacon.
  Addressing& child = addressing(1);
  Addressing& sink = addressing(0);
  const auto* entry = sink.children().find(1);
  ASSERT_NE(entry, nullptr);
  const PathCode old_code = child.code();

  msg::TeleBeacon beacon;
  beacon.parent_code = sink.code();
  beacon.space_bits = static_cast<std::uint8_t>(sink.space_bits() + 1);
  beacon.space_extended = true;
  beacon.entries.push_back(
      msg::AllocationEntry{1, entry->position, true});
  child.handle_tele_beacon(0, beacon);

  EXPECT_EQ(child.code().size(), sink.code().size() + sink.space_bits() + 1);
  EXPECT_NE(child.code(), old_code);
  EXPECT_EQ(child.old_code(), old_code);
  // Children entries re-derived under the new prefix.
  for (const auto& e : child.children().entries()) {
    EXPECT_TRUE(child.code().is_prefix_of(e.new_code));
  }
}

TEST_F(Algorithms, Alg3AllocationAckAdoptedOnlyFromCurrentParent) {
  Addressing& child = addressing(2);
  const PathCode before = child.code();
  msg::AllocationAck ack;
  ack.position = 3;
  ack.space_bits = 4;
  ack.parent_code = addressing(3).code();  // NOT the parent
  const auto decision = child.handle_allocation_ack(/*from=*/3,
                                                    /*link_dst=*/2, ack,
                                                    /*for_me=*/true);
  EXPECT_EQ(decision, AckDecision::kAcceptAndAck);  // link ack, content dropped
  EXPECT_EQ(child.code(), before);
}

TEST_F(Algorithms, OverheardAllocationAckPopulatesNeighborTable) {
  Addressing& observer = addressing(3);
  msg::AllocationAck ack;
  ack.position = 2;
  ack.space_bits = 3;
  ack.parent_code = addressing(2).code();
  observer.handle_allocation_ack(/*from=*/2, /*link_dst=*/55, ack,
                                 /*for_me=*/false);
  const auto* entry = observer.neighbors().find(55);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->new_code,
            make_child_code(addressing(2).code(), 2, 3));
}

}  // namespace
}  // namespace telea
