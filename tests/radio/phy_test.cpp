#include "radio/phy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace telea {
namespace {

TEST(Cc2420Phy, AirtimeMatchesBitrate) {
  // 50-byte MPDU + 6-byte PHY header = 56 bytes = 448 bits at 250 kbps.
  EXPECT_EQ(Cc2420Phy::airtime(50), static_cast<SimTime>(448.0 / 250000.0 * 1e6));
}

TEST(Cc2420Phy, AckAirtime) {
  EXPECT_EQ(Cc2420Phy::ack_airtime(), Cc2420Phy::airtime(5));
  // 11 bytes * 32 us/byte = 352 us
  EXPECT_EQ(Cc2420Phy::ack_airtime(), 352u);
}

TEST(Cc2420Phy, TxPowerTableAnchors) {
  EXPECT_DOUBLE_EQ(Cc2420Phy::tx_power_dbm(31), 0.0);
  EXPECT_DOUBLE_EQ(Cc2420Phy::tx_power_dbm(27), -1.0);
  EXPECT_DOUBLE_EQ(Cc2420Phy::tx_power_dbm(3), -25.0);
}

TEST(Cc2420Phy, TxPowerInterpolatesAndClamps) {
  const double p2 = Cc2420Phy::tx_power_dbm(2);
  EXPECT_LT(p2, -25.0);  // below level 3
  EXPECT_GT(p2, -32.0);  // above level 0
  EXPECT_DOUBLE_EQ(Cc2420Phy::tx_power_dbm(-5), Cc2420Phy::tx_power_dbm(0));
  EXPECT_DOUBLE_EQ(Cc2420Phy::tx_power_dbm(99), 0.0);
  // Monotone non-decreasing across all levels.
  for (int l = 1; l <= 31; ++l) {
    EXPECT_GE(Cc2420Phy::tx_power_dbm(l), Cc2420Phy::tx_power_dbm(l - 1));
  }
}

TEST(Cc2420Phy, BerDecreasesWithSinr) {
  double prev = 1.0;
  for (double sinr = -10; sinr <= 10; sinr += 1) {
    const double ber = Cc2420Phy::bit_error_rate(sinr);
    EXPECT_LE(ber, prev);
    EXPECT_GE(ber, 0.0);
    EXPECT_LE(ber, 0.5);
    prev = ber;
  }
}

TEST(Cc2420Phy, BerNegligibleAtHighSinr) {
  EXPECT_LT(Cc2420Phy::bit_error_rate(10.0), 1e-9);
}

TEST(Cc2420Phy, BerSubstantialAtLowSinr) {
  EXPECT_GT(Cc2420Phy::bit_error_rate(-5.0), 0.05);
}

TEST(Cc2420Phy, PrrZeroBelowSensitivity) {
  EXPECT_DOUBLE_EQ(
      Cc2420Phy::packet_reception_ratio(30.0, Cc2420Phy::kSensitivityDbm - 1, 40),
      0.0);
}

TEST(Cc2420Phy, PrrNearOneWithStrongSignal) {
  EXPECT_GT(Cc2420Phy::packet_reception_ratio(20.0, -60.0, 40), 0.999);
}

TEST(Cc2420Phy, PrrDecreasesWithPacketLength) {
  const double sinr = 2.0;
  const double short_prr = Cc2420Phy::packet_reception_ratio(sinr, -80.0, 20);
  const double long_prr = Cc2420Phy::packet_reception_ratio(sinr, -80.0, 100);
  EXPECT_GT(short_prr, long_prr);
}

TEST(Cc2420Phy, PrrTransitionRegionIsSteep) {
  // The 802.15.4 DSSS curve has a narrow gray region: a few dB swing PRR
  // from near 0 to near 1.
  const double low = Cc2420Phy::packet_reception_ratio(-3.0, -80.0, 50);
  const double high = Cc2420Phy::packet_reception_ratio(4.0, -80.0, 50);
  EXPECT_LT(low, 0.1);
  EXPECT_GT(high, 0.9);
}

/// The BER as computed before the PRR saturated, term for term (the PRR
/// reference below raises 1 - BER to the frame length as before).
double reference_ber(double sinr_db) {
  const double gamma = std::pow(10.0, sinr_db / 10.0);
  static constexpr double kBinom[15] = {120,  560,  1820, 4368, 8008,
                                        11440, 12870, 11440, 8008, 4368,
                                        1820, 560,  120,  16,   1};
  double sum = 0.0;
  for (int k = 2; k <= 16; ++k) {
    const double term =
        kBinom[k - 2] *
        std::exp(20.0 * gamma * (1.0 / static_cast<double>(k) - 1.0));
    sum += (k % 2 == 0) ? term : -term;
  }
  return std::clamp((8.0 / 15.0) * (1.0 / 16.0) * sum, 0.0, 0.5);
}

double reference_prr(double ber, std::size_t mpdu_bytes) {
  const double bits = static_cast<double>(
      (Cc2420Phy::kPhyHeaderBytes + mpdu_bytes) * 8);
  return std::pow(1.0 - ber, bits);
}

// The saturated PRR must be bit-identical to the full formula for every
// frame length, from below the cutoff (where the formula still runs) across
// it and far above it.
TEST(Cc2420Phy, PrrMatchesReferenceFormulaBitForBit) {
  const double rssi = Cc2420Phy::kSensitivityDbm;
  std::vector<double> sinrs;
  for (int i = -5000; i <= 60000; ++i) sinrs.push_back(i * 1e-3);
  const double cutoff = Cc2420Phy::kSaturatedSinrDb;
  sinrs.push_back(std::nextafter(cutoff, 0.0));
  sinrs.push_back(cutoff);
  sinrs.push_back(std::nextafter(cutoff, 100.0));
  std::size_t mismatches = 0;
  for (const double sinr : sinrs) {
    const double ber = reference_ber(sinr);
    for (std::size_t mpdu = 5; mpdu <= 127; ++mpdu) {
      const double got = Cc2420Phy::packet_reception_ratio(sinr, rssi, mpdu);
      if (got != reference_prr(ber, mpdu)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "sinr " << sinr << " dB, mpdu " << mpdu << ": "
                        << got << " vs " << reference_prr(ber, mpdu);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace telea
