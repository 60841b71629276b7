#include "radio/propagation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace telea {

namespace {
constexpr double kReferenceM = 1.0;  // d0
}  // namespace

double distance_m(const Position& a, const Position& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

LinkGainTable::LinkGainTable(const std::vector<Position>& positions,
                             const PathLossConfig& config, std::uint64_t seed)
    : n_(positions.size()),
      loss_(n_ * n_, 0.0),
      neighbors_(n_) {
  Pcg32 rng(seed, /*stream=*/0x9e3779b97f4a7c15ULL);
  const double rho = kShadowingCorrelation;
  const double resid = std::sqrt(1.0 - rho * rho);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      const double d =
          std::max(distance_m(positions[i], positions[j]), kReferenceM);
      const double pl = config.loss_at_reference_db +
                        10.0 * config.exponent * std::log10(d / kReferenceM);
      // Correlated per-direction shadowing: one environmental component
      // shared by both directions plus small per-direction residuals.
      const double common = rng.normal(0.0, config.shadowing_sigma_db);
      const double fwd = rho * common +
                         resid * rng.normal(0.0, config.shadowing_sigma_db);
      const double rev = rho * common +
                         resid * rng.normal(0.0, config.shadowing_sigma_db);
      loss_[i * n_ + j] = std::max(pl + fwd, 0.0);
      loss_[j * n_ + i] = std::max(pl + rev, 0.0);
    }
  }
}

void LinkGainTable::build_neighbor_lists(double max_loss_db) {
  neighbors_ = neighbor_lists(max_loss_db);
}

std::vector<std::vector<NodeId>> LinkGainTable::neighbor_lists(
    double max_loss_db) const {
  std::vector<std::vector<NodeId>> lists(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (i == j) continue;
      if (loss_[i * n_ + j] <= max_loss_db) {
        lists[i].push_back(static_cast<NodeId>(j));
      }
    }
  }
  return lists;
}

}  // namespace telea
