#include "radio/phy.hpp"

#include <algorithm>
#include <array>
#include <cmath>

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

double Cc2420Phy::bit_error_rate(double sinr_db) noexcept {
  const double gamma = db_to_linear(sinr_db);
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

double Cc2420Phy::packet_reception_ratio(double sinr_db, double rssi_dbm,
                                         std::size_t mpdu_bytes) noexcept {
  if (rssi_dbm < kSensitivityDbm) return 0.0;
  if (sinr_db >= kSaturatedSinrDb) return 1.0;
  const double ber = bit_error_rate(sinr_db);
  const double bits = static_cast<double>((kPhyHeaderBytes + mpdu_bytes) * 8);
  return std::pow(1.0 - ber, bits);
}

}  // namespace telea
