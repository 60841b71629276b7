#include "radio/interferer.hpp"

#include <gtest/gtest.h>

namespace telea {
namespace {

// The interferer's process: bursts of mean 6 ms, gaps of mean 18 ms, and a
// burst power of -72 dBm plus a per-node offset of sigma 5 dB.

TEST(WifiInterferer, ExpectedDutyMatchesConfig) {
  WifiInterferer wifi(1, 1);
  EXPECT_NEAR(wifi.expected_duty(), 0.25, 1e-9);
}

TEST(WifiInterferer, EmpiricalDutyNearExpected) {
  WifiInterferer wifi(1, 42);
  int on = 0, total = 0;
  for (SimTime t = 0; t < 120 * kSecond; t += kMillisecond) {
    if (wifi.power_at(0, t) > -110.0) ++on;
    ++total;
  }
  const double duty = static_cast<double>(on) / total;
  EXPECT_NEAR(duty, wifi.expected_duty(), 0.06);
}

TEST(WifiInterferer, BurstPowerNearConfigured) {
  WifiInterferer wifi(8, 3);
  bool saw_burst = false;
  for (SimTime t = 0; t < 10 * kSecond && !saw_burst; t += kMillisecond) {
    const double p = wifi.power_at(3, t);
    if (p > -110.0) {
      saw_burst = true;
      EXPECT_NEAR(p, -72.0, 15.0);  // three sigma of the node offset
    }
  }
  EXPECT_TRUE(saw_burst);
}

TEST(WifiInterferer, PerNodeOffsetsDiffer) {
  WifiInterferer wifi(16, 5);
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
