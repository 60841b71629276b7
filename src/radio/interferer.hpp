#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace telea {

/// Bursty wideband interferer standing in for the WiFi traffic the paper
/// overlays on ZigBee channel 19 (Sec. IV-B2); channel 26 runs without it.
/// Modeled as a renewal on/off process (exponential holding times): while
/// "on", every sensor node sees an elevated in-band noise power. Per-node
/// static offsets capture unequal distances to the access point.
///
/// The process is evaluated lazily — queries advance a regenerative walk, so
/// no events are scheduled and cost is O(total toggles) across a run.
class WifiInterferer {
 public:
  WifiInterferer(std::size_t node_count, std::uint64_t seed);

  /// In-band interference power (dBm) seen by `node` at time `t`, or a
  /// deeply negative floor when the interferer is off.
  /// Queries must be (weakly) monotone in `t` — true for event-driven use.
  [[nodiscard]] double power_at(NodeId node, SimTime t);

  /// The same power in mW: exactly dbm_to_mw(power_at(node, t)), looked up
  /// rather than recomputed. Advances the process the same way.
  [[nodiscard]] double power_mw_at(NodeId node, SimTime t);

  /// Fraction of time the interferer is on, in expectation.
  [[nodiscard]] double expected_duty() const noexcept;

 private:
  void advance_to(SimTime t);

  std::vector<double> node_offset_db_;
  std::vector<double> on_mw_;  // dbm_to_mw of each node's on-state power
  Pcg32 rng_;
  double off_mw_;  // dbm_to_mw of the off floor
  bool on_ = false;
  SimTime next_toggle_ = 0;
};

}  // namespace telea
