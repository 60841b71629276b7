#pragma once

#include "sim/time.hpp"

namespace telea {

/// Energy model for a TelosB-class mote (CC2420 radio + MSP430 MCU),
/// converting the MAC's radio-time accounting into charge and energy.
/// Current figures follow the CC2420 datasheet (3 V supply); the TX draw
/// depends on the output power level, interpolated from the datasheet table.
///
/// This extends the paper's duty-cycle metric (Fig. 9) to the quantity
/// deployments actually budget: millijoules (and mAh) per node per day.
inline constexpr double kSupplyVolts = 3.0;
inline constexpr double kRxCurrentMa = 18.8;      // CC2420 RX / idle listening
inline constexpr double kTxCurrentMa0Dbm = 17.4;  // CC2420 TX at 0 dBm

class EnergyModel {
 public:
  /// `tx_power_dbm` sets the TX current draw.
  explicit EnergyModel(double tx_power_dbm = 0.0) noexcept
      : tx_current_ma_(tx_current_ma(tx_power_dbm)) {}

  /// CC2420 TX current (mA) at the given output power (dBm), interpolated
  /// from the datasheet's PA table.
  [[nodiscard]] static double tx_current_ma(double tx_power_dbm) noexcept;

  /// Energy (mJ) consumed over an accounting window.
  /// `radio_on` is total radio-on time (RX + TX), `tx_time` the part spent
  /// transmitting, `total` the window length.
  [[nodiscard]] double energy_mj(SimTime radio_on, SimTime tx_time,
                                 SimTime total) const noexcept;

  /// Average current (mA) over the window — what a battery sees.
  [[nodiscard]] double average_current_ma(SimTime radio_on, SimTime tx_time,
                                          SimTime total) const noexcept;

  /// Projected lifetime (days) on a battery of `capacity_mah` at the
  /// measured average current.
  [[nodiscard]] double lifetime_days(double capacity_mah, SimTime radio_on,
                                     SimTime tx_time,
                                     SimTime total) const noexcept;

  /// The TX current draw at this model's output power.
  [[nodiscard]] double tx_current_ma() const noexcept { return tx_current_ma_; }

 private:
  double tx_current_ma_;
};

}  // namespace telea
