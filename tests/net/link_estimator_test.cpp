#include "net/link_estimator.hpp"

#include <gtest/gtest.h>

namespace telea {
namespace {

TEST(LinkEstimator, UnknownNeighborIsMaxEtx) {
  LinkEstimator le;
  EXPECT_EQ(le.etx10(5), 1000);
  EXPECT_FALSE(le.knows(5));
}

TEST(LinkEstimator, KnownNeighborGetsOptimisticDefault) {
  LinkEstimator le;
  le.on_beacon(5, 1);
  EXPECT_TRUE(le.knows(5));
  EXPECT_EQ(le.etx10(5), 20);  // optimistic ETX 2.0 before the window fills
}

TEST(LinkEstimator, PerfectBeaconStreamYieldsEtxNearOne) {
  LinkEstimator le;
  for (std::uint8_t s = 1; s <= 20; ++s) le.on_beacon(7, s);
  EXPECT_LE(le.etx10(7), 12);  // 1/q² with q=1 -> 1.0 (10 in tenths)
  EXPECT_NEAR(le.inbound_quality(7), 1.0, 0.01);
}

TEST(LinkEstimator, LossyBeaconStreamRaisesEtx) {
  LinkEstimator le;
  // Every other beacon lost: gaps of 2.
  for (std::uint8_t s = 1; s <= 40; s += 2) le.on_beacon(9, s);
  const double q = le.inbound_quality(9);
  EXPECT_NEAR(q, 0.5, 0.1);
  EXPECT_GT(le.etx10(9), 25);  // ~1/0.25 = 4.0
}

TEST(LinkEstimator, DuplicateSeqnoIgnored) {
  LinkEstimator le;
  for (int i = 0; i < 10; ++i) le.on_beacon(3, 5);
  // Only the first counts; window hasn't filled, stays optimistic.
  EXPECT_EQ(le.etx10(3), 20);
}

TEST(LinkEstimator, SeqnoWraparoundHandled) {
  LinkEstimator le;
  le.on_beacon(4, 250);
  for (std::uint8_t s = 251; s != 10; ++s) le.on_beacon(4, s);
  EXPECT_NEAR(le.inbound_quality(4), 1.0, 0.01);
}

TEST(LinkEstimator, DataDrivenEtxOverridesBeacons) {
  LinkEstimator le;
  for (std::uint8_t s = 1; s <= 10; ++s) le.on_beacon(2, s);
  // 3 attempts per success -> ETX ~3.
  for (int i = 0; i < 12; ++i) {
    le.on_data_tx(2, false);
    le.on_data_tx(2, false);
    le.on_data_tx(2, true);
  }
  EXPECT_NEAR(le.etx10(2), 30, 6);
}

TEST(LinkEstimator, PerfectDataEtxIsOne) {
  LinkEstimator le;
  for (int i = 0; i < 10; ++i) le.on_data_tx(6, true);
  EXPECT_EQ(le.etx10(6), 10);
}

TEST(LinkEstimator, EvictRemovesNeighbor) {
  LinkEstimator le;
  le.on_beacon(8, 1);
  ASSERT_TRUE(le.knows(8));
  le.evict(8);
  EXPECT_FALSE(le.knows(8));
  EXPECT_EQ(le.etx10(8), 1000);
}

TEST(LinkEstimator, TableLimitEvictsWorst) {
  LinkEstimator le;
  // Fill with mediocre neighbors, then a heavily-used one.
  const auto limit = static_cast<NodeId>(LinkEstimator::kTableLimit);
  ASSERT_EQ(limit, 24);
  for (NodeId n = 1; n <= limit; ++n) le.on_beacon(n, 1);
  EXPECT_EQ(le.neighbors().size(), LinkEstimator::kTableLimit);
  le.on_data_tx(1, true);  // neighbor 1 is in use
  le.on_beacon(99, 1);     // forces an eviction
  EXPECT_TRUE(le.knows(99));
  EXPECT_TRUE(le.knows(1));  // in-use neighbor survived
  EXPECT_EQ(le.neighbors().size(), LinkEstimator::kTableLimit);
}

TEST(LinkEstimator, NeighborsListsAll) {
  LinkEstimator le;
  le.on_beacon(1, 1);
  le.on_beacon(2, 1);
  EXPECT_EQ(le.neighbors().size(), 2u);
}

}  // namespace
}  // namespace telea
