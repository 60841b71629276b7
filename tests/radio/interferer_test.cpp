#include "radio/interferer.hpp"

#include <gtest/gtest.h>

namespace telea {
namespace {

TEST(WifiInterferer, ExpectedDutyMatchesConfig) {
  WifiInterfererConfig cfg;
  cfg.mean_on = 10 * kMillisecond;
  cfg.mean_off = 30 * kMillisecond;
  WifiInterferer wifi(cfg, 1, 1);
  EXPECT_NEAR(wifi.expected_duty(), 0.25, 1e-9);
}

TEST(WifiInterferer, EmpiricalDutyNearExpected) {
  WifiInterfererConfig cfg;
  cfg.mean_on = 4 * kMillisecond;
  cfg.mean_off = 12 * kMillisecond;
  WifiInterferer wifi(cfg, 1, 42);
  int on = 0, total = 0;
  for (SimTime t = 0; t < 120 * kSecond; t += kMillisecond) {
    if (wifi.power_at(0, t) > -110.0) ++on;
    ++total;
  }
  const double duty = static_cast<double>(on) / total;
  EXPECT_NEAR(duty, 0.25, 0.06);
}

TEST(WifiInterferer, BurstPowerNearConfigured) {
  WifiInterfererConfig cfg;
  cfg.base_power_dbm = -78.0;
  cfg.node_offset_sigma_db = 2.0;
  WifiInterferer wifi(cfg, 8, 3);
  bool saw_burst = false;
  for (SimTime t = 0; t < 10 * kSecond && !saw_burst; t += kMillisecond) {
    const double p = wifi.power_at(3, t);
    if (p > -110.0) {
      saw_burst = true;
      EXPECT_NEAR(p, -78.0, 10.0);
    }
  }
  EXPECT_TRUE(saw_burst);
}

TEST(WifiInterferer, PerNodeOffsetsDiffer) {
  WifiInterfererConfig cfg;
  cfg.node_offset_sigma_db = 4.0;
  WifiInterferer wifi(cfg, 16, 5);
  // Find an 'on' instant, then compare node powers at the same time.
  SimTime t = 0;
  while (wifi.power_at(0, t) < -110.0 && t < 10 * kSecond) t += kMillisecond;
  ASSERT_LT(t, 10 * kSecond);
  bool differ = false;
  const double p0 = wifi.power_at(0, t);
  for (NodeId n = 1; n < 16; ++n) {
    if (wifi.power_at(n, t) != p0) differ = true;
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace telea
