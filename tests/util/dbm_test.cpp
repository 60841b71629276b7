#include "util/dbm.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace telea {
namespace {

TEST(Dbm, RoundTrip) {
  for (double dbm = -110; dbm <= 10; dbm += 7.3) {
    EXPECT_NEAR(mw_to_dbm(dbm_to_mw(dbm)), dbm, 1e-9);
  }
}

TEST(Dbm, KnownValues) {
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(10.0), 10.0, 1e-9);
  EXPECT_NEAR(dbm_to_mw(-30.0), 0.001, 1e-12);
}

// Powers add in milliwatts, as the medium sums interference and noise.
TEST(Dbm, AdditionOfEqualPowersAddsThreeDb) {
  EXPECT_NEAR(mw_to_dbm(dbm_to_mw(-90.0) + dbm_to_mw(-90.0)),
              -90.0 + 10.0 * std::log10(2.0), 1e-9);
}

TEST(Dbm, AdditionDominatedByStronger) {
  // A signal 30 dB above another barely moves the sum.
  EXPECT_NEAR(mw_to_dbm(dbm_to_mw(-60.0) + dbm_to_mw(-90.0)), -60.0, 0.01);
}

TEST(Dbm, MwToDbmClampsAtFloor) {
  const double v = mw_to_dbm(0.0);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_LT(v, -150.0);
}

TEST(Dbm, SinrIsDifference) {
  EXPECT_NEAR(sinr_db(-70.0, -95.0), 25.0, 1e-12);
}

TEST(Dbm, DbToLinear) {
  EXPECT_NEAR(db_to_linear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(db_to_linear(3.0), 1.9953, 1e-3);
  EXPECT_NEAR(db_to_linear(-10.0), 0.1, 1e-9);
}

// The log-free threshold test must give exactly the log's verdict: inside
// its band (a million ulps either side of the threshold, where it falls
// back on the log) and across twelve decades of random powers.
TEST(DbmThreshold, VerdictEqualsLogComparison) {
  Pcg32 rng(1977, 5);
  for (const double thr : {-95.0, -85.0, -77.5, -60.0}) {
    const DbmThreshold threshold(thr);
    std::size_t mismatches = 0;
    const auto check = [&](double mw) {
      if (threshold.exceeded_by(mw) != (mw_to_dbm(mw) > thr)) ++mismatches;
    };
    const double at = dbm_to_mw(thr);
    double up = at;
    double down = at;
    check(at);
    for (int i = 0; i < 1'000'000; ++i) {
      up = std::nextafter(up, 1.0);
      down = std::nextafter(down, 0.0);
      check(up);
      check(down);
    }
    for (int i = 0; i < 100'000; ++i) {
      check(std::pow(10.0, rng.uniform_real(-15.0, -3.0)));
    }
    EXPECT_EQ(mismatches, 0u) << "threshold " << thr << " dBm";
  }
}

TEST(DbmThreshold, HonoursTheFloorClamp) {
  // Below kFloorMw every power reads as the floor, -180 dBm.
  const DbmThreshold low(-200.0);
  EXPECT_TRUE(low.exceeded_by(0.0));
  EXPECT_TRUE(low.exceeded_by(1e-25));
  const DbmThreshold at_floor(mw_to_dbm(kFloorMw));
  EXPECT_FALSE(at_floor.exceeded_by(0.0));
  EXPECT_FALSE(at_floor.exceeded_by(kFloorMw));
}

}  // namespace
}  // namespace telea
