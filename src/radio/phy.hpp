#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

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
  [[nodiscard]] static double packet_reception_ratio(double sinr_db,
                                                     double rssi_dbm,
                                                     std::size_t mpdu_bytes) noexcept;
};

}  // namespace telea
