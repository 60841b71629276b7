#include "radio/phy.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/dbm.hpp"

namespace telea {

double Cc2420Phy::tx_power_dbm(int pa_level) noexcept {
  struct Point {
    int level;
    double dbm;
  };
  // CC2420 datasheet table 9 (output power vs PA_LEVEL). Level 0 is not
  // specified; extend the curve's steep tail.
  static constexpr std::array<Point, 9> kTable{{{0, -32.0},
                                                {3, -25.0},
                                                {7, -15.0},
                                                {11, -10.0},
                                                {15, -7.0},
                                                {19, -5.0},
                                                {23, -3.0},
                                                {27, -1.0},
                                                {31, 0.0}}};
  const int level = std::clamp(pa_level, 0, 31);
  for (std::size_t i = 1; i < kTable.size(); ++i) {
    if (level <= kTable[i].level) {
      const auto& lo = kTable[i - 1];
      const auto& hi = kTable[i];
      const double t = static_cast<double>(level - lo.level) /
                       static_cast<double>(hi.level - lo.level);
      return lo.dbm + t * (hi.dbm - lo.dbm);
    }
  }
  return 0.0;
}

namespace {
/// bit_error_rate at the linear SINR `gamma`.
double ber_of_linear(double gamma) noexcept {
  // Binomial coefficients C(16, k) for k = 2..16.
  static constexpr std::array<double, 15> kBinom{
      120,  560,  1820, 4368, 8008, 11440, 12870, 11440,
      8008, 4368, 1820, 560,  120,  16,    1};
  double sum = 0.0;
  for (int k = 2; k <= 16; ++k) {
    const double term =
        kBinom[static_cast<std::size_t>(k - 2)] *
        std::exp(20.0 * gamma * (1.0 / static_cast<double>(k) - 1.0));
    sum += (k % 2 == 0) ? term : -term;
  }
  const double ber = (8.0 / 15.0) * (1.0 / 16.0) * sum;
  return std::clamp(ber, 0.0, 0.5);
}
}  // namespace

double Cc2420Phy::bit_error_rate(double sinr_db) noexcept {
  return ber_of_linear(db_to_linear(sinr_db));
}

double Cc2420Phy::packet_reception_ratio(double sinr_db, double rssi_dbm,
                                         std::size_t mpdu_bytes) noexcept {
  if (rssi_dbm < kSensitivityDbm) return 0.0;
  if (sinr_db >= kSaturatedSinrDb) return 1.0;
  const double ber = bit_error_rate(sinr_db);
  const double bits = static_cast<double>((kPhyHeaderBytes + mpdu_bytes) * 8);
  return std::pow(1.0 - ber, bits);
}

const std::array<Cc2420Phy::PrrBand, kMaxMpduBytes + 1>&
Cc2420Phy::prr_bands() noexcept {
  // The BER falls as the linear SINR rises, and the PRR (1 − BER)^bits with
  // it. Both bounds are read off one grid of SINRs 2^(j/64), 2^−16 to 2^3:
  //  - PRR < 2^−40 iff BER > 1 − 2^(−40/bits), so `lo` is the top grid
  //    point of the run from the bottom on which the BER stays above that;
  //  - by Bernoulli's inequality 1 − PRR ≤ bits · BER, so BER < 2^−41/bits
  //    gives 1 − PRR < 2^−40; `hi` is the bottom grid point of the run to
  //    the top on which the BER stays below that.
  // A grid point is 1.1 % from the next, so each bound is at most that far
  // inside its exact value. Where receives() uses them, the verdict turns
  // at a PRR of 2^−32 (u = 0 vs u = 2^−32) or 1 − 2^−32, a factor of 256
  // from the bounds, which swamps the 1e-14 by which signal_mw / total_mw
  // and the SINR the exact path computes differ.
  static const auto bands = [] {
    constexpr int kFirst = -16 * 64;
    constexpr int kLast = 3 * 64;
    std::array<double, kLast - kFirst + 1> ber{};
    for (int j = kFirst; j <= kLast; ++j) {
      ber[static_cast<std::size_t>(j - kFirst)] =
          ber_of_linear(std::exp2(j / 64.0));
    }
    const auto gamma = [](std::size_t i) {
      return std::exp2((static_cast<int>(i) + kFirst) / 64.0);
    };
    std::array<PrrBand, kMaxMpduBytes + 1> out{};
    for (std::size_t mpdu = 0; mpdu <= kMaxMpduBytes; ++mpdu) {
      const double bits = static_cast<double>((kPhyHeaderBytes + mpdu) * 8);
      const double floor_ber = 1.0 - std::exp2(-40.0 / bits);
      const double ceiling_ber = std::exp2(-41.0) / bits;
      std::size_t low = 0;  // grid points below `low` have BER > floor_ber
      while (low < ber.size() && ber[low] > floor_ber) ++low;
      std::size_t high = ber.size();  // from `high` on, BER < ceiling_ber
      while (high > 0 && ber[high - 1] < ceiling_ber) --high;
      out[mpdu].lo = low == 0 ? 0.0 : gamma(low - 1);
      out[mpdu].hi = high == ber.size() ? std::numeric_limits<double>::infinity()
                                        : gamma(high);
    }
    return out;
  }();
  return bands;
}

}  // namespace telea
