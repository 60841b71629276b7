#include "radio/interferer.hpp"

#include "util/dbm.hpp"

namespace telea {

namespace {
constexpr double kOffFloorDbm = -120.0;
}

WifiInterferer::WifiInterferer(const WifiInterfererConfig& config,
                               std::size_t node_count, std::uint64_t seed)
    : config_(config),
      rng_(seed, /*stream=*/0x171F1ULL),
      off_mw_(dbm_to_mw(kOffFloorDbm)) {
  node_offset_db_.reserve(node_count);
  on_mw_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    node_offset_db_.push_back(rng_.normal(0.0, config.node_offset_sigma_db));
    on_mw_.push_back(dbm_to_mw(config.base_power_dbm + node_offset_db_[i]));
  }
  // Start in the off state with a pending first burst.
  next_toggle_ = static_cast<SimTime>(
      rng_.exponential(static_cast<double>(config.mean_off)));
}

void WifiInterferer::advance_to(SimTime t) {
  while (next_toggle_ <= t) {
    on_ = !on_;
    const double mean = static_cast<double>(on_ ? config_.mean_on
                                                : config_.mean_off);
    next_toggle_ += static_cast<SimTime>(rng_.exponential(mean)) + 1;
  }
}

double WifiInterferer::power_at(NodeId node, SimTime t) {
  advance_to(t);
  if (!on_) return kOffFloorDbm;
  return config_.base_power_dbm + node_offset_db_[node];
}

double WifiInterferer::power_mw_at(NodeId node, SimTime t) {
  advance_to(t);
  return on_ ? on_mw_[node] : off_mw_;
}

double WifiInterferer::expected_duty() const noexcept {
  const double on = static_cast<double>(config_.mean_on);
  const double off = static_cast<double>(config_.mean_off);
  return on / (on + off);
}

}  // namespace telea
