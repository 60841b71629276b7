#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "radio/packet.hpp"
#include "sim/time.hpp"
#include "util/dbm.hpp"

namespace telea {

/// Analytic model of the CC2420 radio (IEEE 802.15.4, 2.4 GHz O-QPSK DSSS),
/// the radio on both the MicaZ motes the paper simulates and the TelosB
/// motes on its testbed. Constants follow the CC2420 datasheet; the
/// SINR→BER→PRR curve is the standard 802.15.4 analytic model (as used by
/// TOSSIM's closed-form PHY and by Zuniga & Krishnamachari's link-layer
/// model).
class Cc2420Phy {
 public:
  static constexpr double kBitRateBps = 250'000.0;
  static constexpr double kSensitivityDbm = -95.0;  // datasheet typical -95
  /// PHY synchronization header: 4B preamble + 1B SFD + 1B length.
  static constexpr std::size_t kPhyHeaderBytes = 6;
  /// Hardware ACK frame: 5-byte MPDU + PHY header.
  static constexpr std::size_t kAckMpduBytes = 5;
  /// Radio turnaround (rx->tx) before an ACK is sent: 192 us (12 symbols).
  static constexpr SimTime kTurnaroundTime = 192;

  /// Airtime of a frame whose MPDU is `mpdu_bytes` long, including the PHY
  /// synchronization header.
  [[nodiscard]] static constexpr SimTime airtime(std::size_t mpdu_bytes) noexcept {
    const double bits = static_cast<double>((kPhyHeaderBytes + mpdu_bytes) * 8);
    return static_cast<SimTime>(bits / kBitRateBps * 1e6);
  }

  [[nodiscard]] static constexpr SimTime ack_airtime() noexcept {
    return airtime(kAckMpduBytes);
  }

  /// Transmit power in dBm for a CC2420 PA_LEVEL register setting (0..31).
  /// The datasheet tabulates the even levels {31:0, 27:-1, 23:-3, 19:-5,
  /// 15:-7, 11:-10, 7:-15, 3:-25}; intermediate levels are interpolated.
  /// The paper uses level 2 (testbed) and 31 (time-sync broadcaster).
  [[nodiscard]] static double tx_power_dbm(int pa_level) noexcept;

  /// Bit error rate at the given SINR (dB) for 802.15.4 O-QPSK with DSSS:
  ///   BER = (8/15)·(1/16)·Σ_{k=2..16} (-1)^k·C(16,k)·exp(20·γ·(1/k − 1))
  /// where γ is the linear SINR.
  [[nodiscard]] static double bit_error_rate(double sinr_db) noexcept;

  /// SINR (dB) from which the PRR is exactly 1.0 for every frame length.
  /// At γ ≥ 10^0.7 every one of the 15 BER terms is at most
  /// 12870·e^(20·γ·(1/2 − 1)) ≤ 12870·e^−50.1, so BER < 1.2e-18 < 2^−54:
  /// `1 − ber` rounds to 1.0 and `pow(1.0, bits)` is exactly 1.0.
  static constexpr double kSaturatedSinrDb = 7.0;

  /// Packet reception ratio for an `mpdu_bytes`-long frame at `sinr_db`,
  /// gated on the received power clearing the radio sensitivity floor.
  /// Returns 1.0 without evaluating the BER from kSaturatedSinrDb up.
  /// Always > 0 above sensitivity: the BER is clamped to 0.5, and
  /// 0.5^(8·(6 + 127)) = 2^−1064 is a (subnormal) double.
  [[nodiscard]] static double packet_reception_ratio(double sinr_db,
                                                     double rssi_dbm,
                                                     std::size_t mpdu_bytes) noexcept;

  /// Co-channel rejection: when concurrent 802.15.4 transmissions dominate
  /// the noise floor, the signal must clear noise + interference by this
  /// margin or reception fails outright. The analytic DSSS BER formula alone
  /// is far too forgiving for collisions (~0.9 PRR at 0 dB SINR); the
  /// CC2420 datasheet puts co-channel rejection near 3 dB.
  static constexpr double kCaptureThresholdDb = 3.0;
  /// 10^(−kCaptureThresholdDb / 10), to well within kDbmVerdictBand.
  static constexpr double kCaptureRatio = 0.50118723362727224;

  /// Exactly `signal_dbm − mw_to_dbm(total_mw) < kCaptureThresholdDb`,
  /// given `signal_mw` = dbm_to_mw(signal_dbm). Decided in mW against
  /// `signal_mw · kCaptureRatio`; the log runs only within kDbmVerdictBand of
  /// that edge.
  [[nodiscard]] static bool below_capture(double signal_dbm, double signal_mw,
                                          double total_mw) noexcept {
    const double x = total_mw < kFloorMw ? kFloorMw : total_mw;  // the clamp
    const double edge = signal_mw * kCaptureRatio;
    if (x > edge * (1.0 + kDbmVerdictBand)) return true;
    if (x < edge * (1.0 - kDbmVerdictBand)) return false;
    return signal_dbm - mw_to_dbm(x) < kCaptureThresholdDb;
  }

  /// Linear SINRs outside which an MPDU's PRR is within 2^−40 of 0 or 1:
  /// PRR < 2^−40 below `lo` and 1 − PRR < 2^−40 above `hi` (lo = 0 when
  /// the PRR never gets that low, hi = ∞ when it never gets that high).
  struct PrrBand {
    double lo;
    double hi;
  };
  /// prr_bands()[mpdu] for every MPDU up to kMaxMpduBytes, computed once
  /// per process on first use (thread safe; about 20k libm calls). See
  /// phy.cpp for how and why they hold.
  [[nodiscard]] static const std::array<PrrBand, kMaxMpduBytes + 1>&
  prr_bands() noexcept;

  /// Exactly `u < packet_reception_ratio(signal_dbm − mw_to_dbm(total_mw),
  /// signal_dbm, mpdu_bytes)` for a draw `u` of Pcg32::uniform01 (a
  /// multiple of 2^−32 in [0, 1)), given `signal_mw` = dbm_to_mw(signal_dbm).
  /// Outside the MPDU's PRR band no libm runs: below it 0 < PRR < 2^−40, so
  /// only u = 0 is below the PRR; above it PRR > 1 − 2^−40 > u.
  [[nodiscard]] static bool receives(double u, double signal_dbm,
                                     double signal_mw, double total_mw,
                                     std::size_t mpdu_bytes) noexcept {
    if (signal_dbm < kSensitivityDbm) return false;
    if (mpdu_bytes <= kMaxMpduBytes) {
      const PrrBand& band = prr_bands()[mpdu_bytes];
      const double x = total_mw < kFloorMw ? kFloorMw : total_mw;
      if (signal_mw < band.lo * x) return u == 0.0;
      if (signal_mw > band.hi * x) return true;
    }
    return u < packet_reception_ratio(signal_dbm - mw_to_dbm(total_mw),
                                      signal_dbm, mpdu_bytes);
  }
};

}  // namespace telea
