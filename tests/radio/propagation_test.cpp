#include "radio/propagation.hpp"

#include <gtest/gtest.h>

namespace telea {
namespace {

std::vector<Position> line_positions(int n, double spacing) {
  std::vector<Position> p;
  for (int i = 0; i < n; ++i) p.push_back({i * spacing, 0.0});
  return p;
}

TEST(Propagation, Distance) {
  EXPECT_DOUBLE_EQ(distance_m({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_m({1, 1}, {1, 1}), 0.0);
}

TEST(LinkGainTable, LossIncreasesWithDistance) {
  PathLossConfig cfg;
  cfg.shadowing_sigma_db = 0.0;
  LinkGainTable table(line_positions(4, 10.0), cfg, 1);
  EXPECT_LT(table.loss_db(0, 1), table.loss_db(0, 2));
  EXPECT_LT(table.loss_db(0, 2), table.loss_db(0, 3));
}

TEST(LinkGainTable, LogDistanceFormula) {
  PathLossConfig cfg;
  cfg.exponent = 4.0;
  cfg.loss_at_reference_db = 55.0;
  cfg.shadowing_sigma_db = 0.0;
  LinkGainTable table(line_positions(2, 10.0), cfg, 1);
  // PL(10m) = 55 + 40*log10(10) = 95
  EXPECT_NEAR(table.loss_db(0, 1), 95.0, 1e-9);
}

TEST(LinkGainTable, SymmetricWithoutShadowing) {
  PathLossConfig cfg;
  cfg.shadowing_sigma_db = 0.0;
  LinkGainTable table(line_positions(3, 7.0), cfg, 1);
  EXPECT_DOUBLE_EQ(table.loss_db(0, 2), table.loss_db(2, 0));
}

TEST(LinkGainTable, AsymmetricShadowingByDefault) {
  PathLossConfig cfg;
  cfg.shadowing_sigma_db = 6.0;
  LinkGainTable table(line_positions(8, 9.0), cfg, 7);
  bool any_asymmetric = false;
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      if (i != j && table.loss_db(i, j) != table.loss_db(j, i)) {
        any_asymmetric = true;
      }
    }
  }
  EXPECT_TRUE(any_asymmetric);
}

TEST(LinkGainTable, DeterministicPerSeed) {
  PathLossConfig cfg;
  LinkGainTable a(line_positions(5, 8.0), cfg, 99);
  LinkGainTable b(line_positions(5, 8.0), cfg, 99);
  LinkGainTable c(line_positions(5, 8.0), cfg, 100);
  EXPECT_DOUBLE_EQ(a.loss_db(0, 4), b.loss_db(0, 4));
  EXPECT_NE(a.loss_db(0, 4), c.loss_db(0, 4));
}

TEST(LinkGainTable, RssiSubtractsLoss) {
  PathLossConfig cfg;
  cfg.shadowing_sigma_db = 0.0;
  LinkGainTable table(line_positions(2, 1.0), cfg, 1);
  EXPECT_NEAR(table.rssi_dbm(0, 1, 0.0), -cfg.loss_at_reference_db, 1e-9);
}

TEST(LinkGainTable, NeighborListsRespectCutoff) {
  PathLossConfig cfg;
  cfg.exponent = 4.0;
  cfg.loss_at_reference_db = 55.0;
  cfg.shadowing_sigma_db = 0.0;
  LinkGainTable table(line_positions(5, 10.0), cfg, 1);
  table.build_neighbor_lists(96.0);  // 10 m loss is 95: 1-hop neighbors only
  const auto& n0 = table.neighbors_within(0);
  ASSERT_EQ(n0.size(), 1u);
  EXPECT_EQ(n0[0], 1);
  const auto& n2 = table.neighbors_within(2);
  EXPECT_EQ(n2.size(), 2u);
}

TEST(LinkGainTable, MinimumDistanceClampedToReference) {
  PathLossConfig cfg;
  cfg.shadowing_sigma_db = 0.0;
  std::vector<Position> p{{0, 0}, {0.01, 0}};  // closer than d0 = 1 m
  LinkGainTable table(p, cfg, 1);
  EXPECT_NEAR(table.loss_db(0, 1), cfg.loss_at_reference_db, 1e-9);
}

}  // namespace
}  // namespace telea
