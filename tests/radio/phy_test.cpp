#include "radio/phy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/dbm.hpp"

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


/// `x` moved by `ulps` units in the last place (x > 0).
double step_ulps(double x, std::int64_t ulps) {
  return std::bit_cast<double>(std::bit_cast<std::int64_t>(x) + ulps);
}

/// Ulp offsets from 0 out to ±10^6: every one within ±64, then geometric.
std::vector<std::int64_t> ulp_offsets() {
  std::vector<std::int64_t> out;
  for (std::int64_t k = -64; k <= 64; ++k) out.push_back(k);
  for (double k = 70.0; k <= 1e6; k *= 1.05) {
    out.push_back(static_cast<std::int64_t>(k));
    out.push_back(-static_cast<std::int64_t>(k));
  }
  out.push_back(1'000'000);
  out.push_back(-1'000'000);
  return out;
}

/// The capture verdict as finish_tx computed it with logs.
bool exact_below_capture(double signal_dbm, double total_mw) {
  return signal_dbm - mw_to_dbm(total_mw) < Cc2420Phy::kCaptureThresholdDb;
}

/// The reception verdict as finish_tx computed it: rng.chance(prr) for a
/// draw u is u < prr.
bool exact_receives(double u, double signal_dbm, double total_mw,
                    std::size_t mpdu) {
  return u < Cc2420Phy::packet_reception_ratio(
                 signal_dbm - mw_to_dbm(total_mw), signal_dbm, mpdu);
}

/// Pcg32::uniform01 draws at both ends and next to zero.
constexpr std::array<double, 3> kDraws{0.0, 0x1.0p-32, 1.0 - 0x1.0p-32};

TEST(Cc2420Phy, CaptureRatioIsMinusThreeDb) {
  EXPECT_NEAR(Cc2420Phy::kCaptureRatio,
              db_to_linear(-Cc2420Phy::kCaptureThresholdDb), 1e-16);
}

TEST(Cc2420Phy, CaptureVerdictEqualsLogAroundItsEdges) {
  // Around the edge, where the log decides, and each end of its 1e-9 band,
  // where the mW comparison takes over. The edge is placed by the exact
  // expression, not by kCaptureRatio.
  const auto offsets = ulp_offsets();
  std::size_t checked = 0, below = 0;
  for (const double signal_dbm : {-100.0, -94.3, -80.0, -61.7, -40.0, 0.0}) {
    const double signal_mw = dbm_to_mw(signal_dbm);
    const double edge =
        dbm_to_mw(signal_dbm - Cc2420Phy::kCaptureThresholdDb);
    for (const double centre :
         {edge, edge * (1.0 - kDbmVerdictBand),
          edge * (1.0 + kDbmVerdictBand)}) {
      for (const std::int64_t k : offsets) {
        const double total = step_ulps(centre, k);
        const bool got = Cc2420Phy::below_capture(signal_dbm, signal_mw, total);
        ASSERT_EQ(got, exact_below_capture(signal_dbm, total))
            << signal_dbm << " dBm, total " << total << " mW";
        ++checked;
        below += got ? 1 : 0;
      }
    }
  }
  // Both verdicts are met.
  EXPECT_GT(below, checked / 4);
  EXPECT_LT(below, 3 * checked / 4);
}

TEST(Cc2420Phy, CaptureVerdictEqualsLogOnAFineGrid) {
  for (const double signal_dbm : {-97.0, -80.0, -50.0}) {
    const double signal_mw = dbm_to_mw(signal_dbm);
    for (int i = -4000; i <= 4000; ++i) {
      const double total = dbm_to_mw(signal_dbm - i * 0.005);
      EXPECT_EQ(Cc2420Phy::below_capture(signal_dbm, signal_mw, total),
                exact_below_capture(signal_dbm, total))
          << signal_dbm << " dBm, SINR " << i * 0.005 << " dB";
    }
  }
  // The floor clamp: a total below kFloorMw counts as kFloorMw.
  const double loud = 10.0 * std::log10(kFloorMw) + 2.0;
  EXPECT_EQ(Cc2420Phy::below_capture(loud, dbm_to_mw(loud), 0.0),
            exact_below_capture(loud, 0.0));
}

TEST(Cc2420Phy, PrrBandsBoundThePrr) {
  const double rssi = -80.0;
  for (std::size_t mpdu = 0; mpdu <= kMaxMpduBytes; ++mpdu) {
    const auto band = Cc2420Phy::prr_bands()[mpdu];
    EXPECT_LT(band.lo, band.hi) << "mpdu " << mpdu;
    EXPECT_LT(band.hi, db_to_linear(Cc2420Phy::kSaturatedSinrDb));
    if (band.lo > 0.0) {
      EXPECT_LT(Cc2420Phy::packet_reception_ratio(
                    10.0 * std::log10(band.lo), rssi, mpdu),
                0x1.0p-40)
          << "mpdu " << mpdu;
    }
    EXPECT_GT(Cc2420Phy::packet_reception_ratio(10.0 * std::log10(band.hi),
                                                rssi, mpdu),
              1.0 - 0x1.0p-40)
        << "mpdu " << mpdu;
    // Above sensitivity the PRR never reaches 0, so a draw of 0 always
    // receives below the band.
    EXPECT_GT(Cc2420Phy::packet_reception_ratio(-300.0, rssi, mpdu), 0.0);
  }
  // Every frame the stack sends has a band below it.
  EXPECT_GT(Cc2420Phy::prr_bands()[Cc2420Phy::kAckMpduBytes].lo, 0.0);
}

TEST(Cc2420Phy, ReceptionVerdictEqualsPrrDrawAroundBandEdges) {
  const auto offsets = ulp_offsets();
  std::size_t mismatches = 0;
  for (const double signal_dbm : {-94.5, -71.0}) {
    const double signal_mw = dbm_to_mw(signal_dbm);
    for (std::size_t mpdu = 5; mpdu <= kMaxMpduBytes; ++mpdu) {
      const auto band = Cc2420Phy::prr_bands()[mpdu];
      for (const double gamma : {band.lo, band.hi}) {
        const double edge = signal_mw / gamma;
        for (const std::int64_t k : offsets) {
          const double total = step_ulps(edge, k);
          for (const double u : kDraws) {
            if (Cc2420Phy::receives(u, signal_dbm, signal_mw, total, mpdu) !=
                exact_receives(u, signal_dbm, total, mpdu)) {
              if (++mismatches <= 5) {
                ADD_FAILURE() << "mpdu " << mpdu << ", u " << u << ", total "
                              << total << " mW";
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Cc2420Phy, ReceptionVerdictEqualsPrrDrawOnAFineGrid) {
  // Every MPDU on a 0.01 dB SINR grid from far below the bands to past
  // saturation, and below sensitivity, where nothing is received.
  std::size_t mismatches = 0;
  std::array<std::size_t, 3> received{};
  for (const double signal_dbm : {-96.0, -90.0}) {
    const double signal_mw = dbm_to_mw(signal_dbm);
    for (int i = -2500; i <= 1500; ++i) {
      const double total = dbm_to_mw(signal_dbm - i * 0.01);
      for (std::size_t mpdu = 5; mpdu <= kMaxMpduBytes; ++mpdu) {
        for (std::size_t d = 0; d < kDraws.size(); ++d) {
          const double u = kDraws[d];
          const bool got =
              Cc2420Phy::receives(u, signal_dbm, signal_mw, total, mpdu);
          received[d] += got ? 1 : 0;
          if (got != exact_receives(u, signal_dbm, total, mpdu)) {
            if (++mismatches <= 5) {
              ADD_FAILURE() << "mpdu " << mpdu << ", u " << u << ", SINR "
                            << i * 0.01 << " dB at " << signal_dbm << " dBm";
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // u = 0 receives everything above sensitivity; the larger draws less.
  const std::size_t above = 4001 * (kMaxMpduBytes - 4);
  EXPECT_EQ(received[0], above);
  EXPECT_LT(received[1], above);
  EXPECT_LT(received[2], received[1]);
}

}  // namespace
}  // namespace telea
