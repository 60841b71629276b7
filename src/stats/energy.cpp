#include "stats/energy.hpp"

#include <algorithm>
#include <array>

namespace telea {

namespace {
constexpr double kSleepCurrentUa = 5.1;  // Telos module sleep (MCU LPM3 + radio off)
constexpr double kMcuActiveMa = 1.8;     // MSP430 active alongside the radio
}  // namespace

double EnergyModel::tx_current_ma(double tx_power_dbm) noexcept {
  struct Point {
    double dbm;
    double ma;
  };
  // CC2420 datasheet: output power vs current consumption.
  static constexpr std::array<Point, 8> kTable{{{-25.0, 8.5},
                                                {-15.0, 9.9},
                                                {-10.0, 11.2},
                                                {-7.0, 12.5},
                                                {-5.0, 13.9},
                                                {-3.0, 15.2},
                                                {-1.0, 16.5},
                                                {0.0, kTxCurrentMa0Dbm}}};
  const double p = std::clamp(tx_power_dbm, kTable.front().dbm,
                              kTable.back().dbm);
  for (std::size_t i = 1; i < kTable.size(); ++i) {
    if (p <= kTable[i].dbm) {
      const auto& lo = kTable[i - 1];
      const auto& hi = kTable[i];
      const double t = (p - lo.dbm) / (hi.dbm - lo.dbm);
      return lo.ma + t * (hi.ma - lo.ma);
    }
  }
  return kTable.back().ma;
}

double EnergyModel::average_current_ma(SimTime radio_on, SimTime tx_time,
                                       SimTime total) const noexcept {
  if (total == 0) return 0.0;
  const double tx_s = to_seconds(std::min(tx_time, radio_on));
  const double rx_s = to_seconds(radio_on) - tx_s;
  const double sleep_s = std::max(0.0, to_seconds(total) - to_seconds(radio_on));
  // While the radio is up, the MCU is active too.
  const double awake_ma = kMcuActiveMa;
  const double charge_mas = rx_s * (kRxCurrentMa + awake_ma) +
                            tx_s * (tx_current_ma_ + awake_ma) +
                            sleep_s * (kSleepCurrentUa / 1000.0);
  return charge_mas / to_seconds(total);
}

double EnergyModel::energy_mj(SimTime radio_on, SimTime tx_time,
                              SimTime total) const noexcept {
  return average_current_ma(radio_on, tx_time, total) * to_seconds(total) *
         kSupplyVolts;
}

double EnergyModel::lifetime_days(double capacity_mah, SimTime radio_on,
                                  SimTime tx_time,
                                  SimTime total) const noexcept {
  const double ma = average_current_ma(radio_on, tx_time, total);
  if (ma <= 0.0) return 0.0;
  return capacity_mah / ma / 24.0;
}

}  // namespace telea
