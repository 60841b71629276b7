#include "radio/interferer.hpp"

#include "util/dbm.hpp"

namespace telea {

namespace {
constexpr double kOffFloorDbm = -120.0;
constexpr double kBasePowerDbm = -72.0;  // in-band leakage during a burst
constexpr double kNodeOffsetSigmaDb = 5.0;
constexpr SimTime kMeanOn = 6 * kMillisecond;    // WiFi frame bursts
constexpr SimTime kMeanOff = 18 * kMillisecond;  // idle gaps (~25% duty)
}  // namespace

WifiInterferer::WifiInterferer(std::size_t node_count, std::uint64_t seed)
    : rng_(seed, /*stream=*/0x171F1ULL),
      off_mw_(dbm_to_mw(kOffFloorDbm)) {
  node_offset_db_.reserve(node_count);
  on_mw_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    node_offset_db_.push_back(rng_.normal(0.0, kNodeOffsetSigmaDb));
    on_mw_.push_back(dbm_to_mw(kBasePowerDbm + node_offset_db_[i]));
  }
  // Start in the off state with a pending first burst.
  next_toggle_ = static_cast<SimTime>(
      rng_.exponential(static_cast<double>(kMeanOff)));
}

void WifiInterferer::advance_to(SimTime t) {
  while (next_toggle_ <= t) {
    on_ = !on_;
    const double mean = static_cast<double>(on_ ? kMeanOn : kMeanOff);
    next_toggle_ += static_cast<SimTime>(rng_.exponential(mean)) + 1;
  }
}

double WifiInterferer::power_at(NodeId node, SimTime t) {
  advance_to(t);
  if (!on_) return kOffFloorDbm;
  return kBasePowerDbm + node_offset_db_[node];
}

double WifiInterferer::power_mw_at(NodeId node, SimTime t) {
  advance_to(t);
  return on_ ? on_mw_[node] : off_mw_;
}

double WifiInterferer::expected_duty() const noexcept {
  const double on = static_cast<double>(kMeanOn);
  const double off = static_cast<double>(kMeanOff);
  return on / (on + off);
}

}  // namespace telea
