#include "stats/energy.hpp"

#include <gtest/gtest.h>

namespace telea {
namespace {

using namespace time_literals;

TEST(EnergyModel, TxCurrentTableAnchors) {
  EXPECT_DOUBLE_EQ(EnergyModel::tx_current_ma(0.0), 17.4);
  EXPECT_DOUBLE_EQ(EnergyModel::tx_current_ma(-25.0), 8.5);
  EXPECT_NEAR(EnergyModel::tx_current_ma(-5.0), 13.9, 1e-9);
}

TEST(EnergyModel, TxCurrentInterpolatesAndClamps) {
  const double mid = EnergyModel::tx_current_ma(-2.0);
  EXPECT_GT(mid, 15.2);
  EXPECT_LT(mid, 16.5);
  EXPECT_DOUBLE_EQ(EnergyModel::tx_current_ma(-40.0), 8.5);
  EXPECT_DOUBLE_EQ(EnergyModel::tx_current_ma(5.0), 17.4);
  // Monotone in power.
  double prev = 0;
  for (double p = -25; p <= 0; p += 0.5) {
    const double c = EnergyModel::tx_current_ma(p);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(EnergyModel, AllSleepIsMicroamps) {
  EnergyModel model;
  const double ma = model.average_current_ma(0, 0, 1_h);
  EXPECT_NEAR(ma, 0.0051, 1e-6);
}

TEST(EnergyModel, AlwaysOnListeningIsFullRxDraw) {
  EnergyModel model;
  const double ma = model.average_current_ma(1_h, 0, 1_h);
  EXPECT_NEAR(ma, 18.8 + 1.8, 1e-6);
}

TEST(EnergyModel, DutyCycledDrawScales) {
  EnergyModel model;
  // 2% duty at RX: ~0.412 mA + sleep floor.
  const double ma = model.average_current_ma(72_s, 0, 1_h);
  EXPECT_NEAR(ma, 0.02 * 20.6 + 0.98 * 0.0051, 1e-3);
}

TEST(EnergyModel, TxTimeUsesTxCurrent) {
  EnergyModel model(/*tx_power_dbm=*/-25.0);  // 8.5 mA, well below RX draw
  const double rx_only = model.average_current_ma(1_h, 0, 1_h);
  const double tx_heavy = model.average_current_ma(1_h, 1_h, 1_h);
  EXPECT_LT(tx_heavy, rx_only);  // TX at -25 dBm draws less than RX
}

TEST(EnergyModel, EnergyIsCurrentTimesVoltsTimesTime) {
  EnergyModel model;
  const double ma = model.average_current_ma(36_s, 0, 1_h);
  EXPECT_NEAR(model.energy_mj(36_s, 0, 1_h), ma * 3600.0 * 3.0, 1e-6);
}

TEST(EnergyModel, LifetimeProjection) {
  EnergyModel model;
  // 1 mA average on a 2400 mAh pack: 100 days.
  const SimTime total = 1_h;
  // Find radio-on giving ~1 mA: x * 20.6 ≈ 1 -> 4.85% duty.
  const SimTime on = static_cast<SimTime>(0.04854 * 3600.0 * 1e6);
  const double days = model.lifetime_days(2400.0, on, 0, total);
  EXPECT_NEAR(days, 100.0, 2.0);
}

TEST(EnergyModel, ZeroWindowIsZero) {
  EnergyModel model;
  EXPECT_DOUBLE_EQ(model.average_current_ma(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(model.energy_mj(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(model.lifetime_days(1000, 0, 0, 0), 0.0);
}

}  // namespace
}  // namespace telea
