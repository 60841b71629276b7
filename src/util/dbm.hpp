#pragma once

#include <cmath>

namespace telea {

/// Conversions between the logarithmic (dBm) and linear (milliwatt) power
/// domains. All radio-stack arithmetic that sums powers (interference, noise)
/// must happen in milliwatts; everything stored or configured is in dBm.

[[nodiscard]] inline double dbm_to_mw(double dbm) noexcept {
  return std::pow(10.0, dbm / 10.0);
}

/// Floor mw_to_dbm clamps to: far below thermal noise, so downstream
/// subtraction stays finite instead of meeting -inf.
inline constexpr double kFloorMw = 1e-18;

[[nodiscard]] inline double mw_to_dbm(double mw) noexcept {
  return 10.0 * std::log10(mw < kFloorMw ? kFloorMw : mw);
}

/// Signal-to-interference-plus-noise ratio in dB.
[[nodiscard]] inline double sinr_db(double signal_dbm,
                                    double interference_noise_dbm) noexcept {
  return signal_dbm - interference_noise_dbm;
}

[[nodiscard]] inline double db_to_linear(double db) noexcept {
  return std::pow(10.0, db / 10.0);
}

/// A power threshold in dBm that answers `mw_to_dbm(x) > dbm` for a power x
/// in mW without a log in almost every case. Away from the threshold the
/// verdict is fixed by comparing x against dbm_to_mw(dbm) widened by a
/// relative band of 1e-9 (4.3e-9 dB); libm's few-ulp errors in pow and
/// log10 are about 1e-7 of that band, so they cannot flip such a verdict.
/// Only inside the band is the exact expression evaluated.
class DbmThreshold {
 public:
  explicit DbmThreshold(double dbm) noexcept
      : dbm_(dbm),
        above_mw_(dbm_to_mw(dbm) * (1.0 + kBand)),
        below_mw_(dbm_to_mw(dbm) * (1.0 - kBand)) {}

  /// Whether `mw` lies in the band where only the log decides.
  [[nodiscard]] bool near(double mw) const noexcept {
    const double x = mw < kFloorMw ? kFloorMw : mw;  // mw_to_dbm's clamp
    return x >= below_mw_ && x <= above_mw_;
  }

  /// Exactly `mw_to_dbm(mw) > dbm`, with `dbm` as constructed.
  [[nodiscard]] bool exceeded_by(double mw) const noexcept {
    const double x = mw < kFloorMw ? kFloorMw : mw;  // mw_to_dbm's clamp
    if (x > above_mw_) return true;
    if (x < below_mw_) return false;
    return mw_to_dbm(x) > dbm_;
  }

 private:
  static constexpr double kBand = 1e-9;
  double dbm_;
  double above_mw_;
  double below_mw_;
};

}  // namespace telea
