#pragma once

#include <cstddef>
#include <vector>

#include "util/ids.hpp"
#include "util/rng.hpp"

namespace telea {

/// 2-D node position in meters.
struct Position {
  double x = 0;
  double y = 0;
};

[[nodiscard]] double distance_m(const Position& a, const Position& b) noexcept;

/// Log-distance path-loss model, matching the paper's TOSSIM setup:
/// PL(d) = PL(d0) + 10·n·log10(d/d0) + X_sigma, with path exponent n = 4 "to
/// approximate challenging signal propagation environments" (Sec. IV-A1).
/// X_sigma is log-normal shadowing sampled once per directed link (static
/// per experiment, as in TOSSIM's gain files).
struct PathLossConfig {
  double exponent = 4.0;               // n
  double loss_at_reference_db = 55.0;  // PL(d0) for 2.4 GHz with antenna gains
  double shadowing_sigma_db = 3.2;     // per-link log-normal shadowing
};

/// Correlation between the two directions of a link's shadowing. Shadowing
/// is mostly environmental (obstructions affect both directions alike);
/// residual asymmetry comes from hardware/antenna differences. Measured
/// link studies put the correlation high.
inline constexpr double kShadowingCorrelation = 0.7;

/// Precomputed per-link attenuation table: loss_db(tx, rx) such that
/// rssi_dbm = tx_power_dbm - loss_db. Built once per topology from positions
/// and a seed; immutable afterwards (mirrors a TOSSIM gain file).
class LinkGainTable {
 public:
  LinkGainTable(const std::vector<Position>& positions,
                const PathLossConfig& config, std::uint64_t seed);

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

  /// Path loss in dB from tx to rx. Precondition: tx != rx, both < count.
  [[nodiscard]] double loss_db(NodeId tx, NodeId rx) const noexcept {
    return loss_[static_cast<std::size_t>(tx) * n_ + rx];
  }

  /// Received power at rx for a transmission from tx at `tx_power_dbm`.
  [[nodiscard]] double rssi_dbm(NodeId tx, NodeId rx,
                                double tx_power_dbm) const noexcept {
    return tx_power_dbm - loss_db(tx, rx);
  }

  /// Nodes whose loss from `tx` is below the cutoff of the last
  /// build_neighbor_lists() call (empty until one is made).
  [[nodiscard]] const std::vector<NodeId>& neighbors_within(
      NodeId tx) const noexcept {
    return neighbors_[tx];
  }

  /// Recomputes the candidate-neighbor lists for a given loss cutoff.
  void build_neighbor_lists(double max_loss_db);

  /// Per transmitter, the receivers whose loss is at most `max_loss_db`, in
  /// id order. Leaves the table's own lists untouched.
  [[nodiscard]] std::vector<std::vector<NodeId>> neighbor_lists(
      double max_loss_db) const;

 private:
  std::size_t n_;
  std::vector<double> loss_;  // row-major [tx][rx]
  std::vector<std::vector<NodeId>> neighbors_;
};

}  // namespace telea
