#include "topo/topology.hpp"

#include <algorithm>
#include <cmath>

#include "radio/phy.hpp"
#include "util/rng.hpp"

namespace telea {

namespace {

/// Reference loss tuned so that the scenario's nominal radio range (where
/// the RSSI meets CC2420 sensitivity at zero noise margin) comes out right:
/// PL0 = tx_power - sensitivity - 10*n*log10(range).
double reference_loss_for_range(double tx_power_dbm, double exponent,
                                double range_m) {
  return tx_power_dbm - Cc2420Phy::kSensitivityDbm -
         10.0 * exponent * std::log10(range_m);
}

}  // namespace

Topology make_tight_grid(std::uint64_t seed) {
  Topology topo;
  topo.name = "Tight-grid";
  topo.tx_power_dbm = Cc2420Phy::tx_power_dbm(31);  // 0 dBm, "high gain"
  topo.path_loss.exponent = 4.0;
  // ~35 m nominal range over a 13.3 m cell pitch: each node reaches its
  // 1-2 cell neighborhood, the field is a handful of hops deep.
  topo.path_loss.loss_at_reference_db =
      reference_loss_for_range(topo.tx_power_dbm, 4.0, 35.0);
  topo.path_loss.shadowing_sigma_db = 3.2;

  constexpr int kGrid = 15;
  constexpr double kField = 200.0;
  constexpr double kCell = kField / kGrid;
  Pcg32 rng(seed, /*stream=*/0x716871ULL);

  // Node 0 (sink) at the center of the field.
  topo.positions.push_back(Position{kField / 2, kField / 2});
  for (int r = 0; r < kGrid; ++r) {
    for (int c = 0; c < kGrid; ++c) {
      if (topo.positions.size() >= 225) break;
      // Skip the center cell: the sink stands in for it.
      if (r == kGrid / 2 && c == kGrid / 2) continue;
      const double x = (c + rng.uniform01()) * kCell;
      const double y = (r + rng.uniform01()) * kCell;
      topo.positions.push_back(Position{x, y});
    }
  }
  return topo;
}

Topology make_sparse_linear(std::uint64_t seed) {
  Topology topo;
  topo.name = "Sparse-linear";
  topo.tx_power_dbm = Cc2420Phy::tx_power_dbm(31);
  topo.path_loss.exponent = 4.0;
  // "Low gain": shorter nominal range (30 m) over a 13.3 m row pitch — the
  // 600 m long field becomes a deep multi-hop chain (~20 hops) from the
  // endpoint sink, without overflowing the 256-bit path-code capacity.
  topo.path_loss.loss_at_reference_db =
      reference_loss_for_range(topo.tx_power_dbm, 4.0, 30.0);
  topo.path_loss.shadowing_sigma_db = 3.2;

  constexpr int kCols = 5;
  constexpr int kRows = 45;
  constexpr double kWidth = 60.0;
  constexpr double kLength = 600.0;
  constexpr double kCellX = kWidth / kCols;
  constexpr double kCellY = kLength / kRows;
  Pcg32 rng(seed, /*stream=*/0x5195ULL);

  // Sink at one endpoint of the field (center of the near edge).
  topo.positions.push_back(Position{kWidth / 2, 0.0});
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kCols; ++c) {
      if (topo.positions.size() >= 225) break;
      const double x = (c + rng.uniform01()) * kCellX;
      const double y = (r + rng.uniform01()) * kCellY;
      topo.positions.push_back(Position{x, y});
    }
  }
  return topo;
}

Topology make_indoor_testbed(std::uint64_t seed) {
  Topology topo;
  topo.name = "Indoor-testbed";
  topo.tx_power_dbm = Cc2420Phy::tx_power_dbm(2);  // paper: CC2420 level 2
  topo.path_loss.exponent = 4.0;
  // Indoor short links: ~4.5 m nominal range at the very low power level, so
  // the 2×11 board (1.8 m pitch) plus scattered nodes yields up to 6 hops.
  topo.path_loss.loss_at_reference_db =
      reference_loss_for_range(topo.tx_power_dbm, 4.0, 4.5);
  topo.path_loss.shadowing_sigma_db = 3.8;  // indoor multipath

  Pcg32 rng(seed, /*stream=*/0x13D0ULL);

  // Sink at one end of the board.
  topo.positions.push_back(Position{0.0, 0.0});
  // 22 board nodes: 2 rows × 11 columns, 1.8 m pitch (sink replaces the
  // first slot).
  constexpr double kPitch = 1.8;
  for (int row = 0; row < 2; ++row) {
    for (int col = 0; col < 11; ++col) {
      if (row == 0 && col == 0) continue;  // sink slot
      topo.positions.push_back(
          Position{col * kPitch, row * kPitch});
    }
  }
  // 18 nodes scattered around the testbed in a band surrounding the board.
  const double kBoardLen = 10 * kPitch;
  for (int i = 0; i < 18; ++i) {
    const double x = rng.uniform_real(-3.0, kBoardLen + 3.0);
    const double y = rng.uniform_real(-4.0, 6.0);
    topo.positions.push_back(Position{x, y});
  }
  return topo;
}

Topology make_uniform_random(std::size_t nodes, double side_m,
                             std::uint64_t seed) {
  Topology topo;
  topo.name = "Uniform-random";
  topo.tx_power_dbm = Cc2420Phy::tx_power_dbm(31);
  topo.path_loss.exponent = 4.0;
  // Nominal range of ~side/3: dense enough that a uniform field is
  // connected with high probability, still several hops across.
  topo.path_loss.loss_at_reference_db =
      reference_loss_for_range(topo.tx_power_dbm, 4.0, side_m / 3.0);
  Pcg32 rng(seed, /*stream=*/0x0A4DULL);
  topo.positions.push_back(Position{side_m / 2, side_m / 2});  // sink center
  for (std::size_t i = 1; i < nodes; ++i) {
    topo.positions.push_back(
        Position{rng.uniform_real(0, side_m), rng.uniform_real(0, side_m)});
  }
  return topo;
}

bool is_connected(const Topology& topo, std::uint64_t seed, double margin_db) {
  if (topo.size() == 0) return false;
  LinkGainTable gains(topo.positions, topo.path_loss, seed);
  const double budget =
      topo.tx_power_dbm - Cc2420Phy::kSensitivityDbm + margin_db;
  gains.build_neighbor_lists(budget);
  // BFS from the sink over bidirectionally usable links.
  std::vector<bool> reached(topo.size(), false);
  std::vector<NodeId> frontier{kSinkNode};
  reached[kSinkNode] = true;
  std::size_t count = 1;
  while (!frontier.empty()) {
    const NodeId cur = frontier.back();
    frontier.pop_back();
    for (NodeId nb : gains.neighbors_within(cur)) {
      if (reached[nb] || gains.loss_db(nb, cur) > budget) continue;
      reached[nb] = true;
      ++count;
      frontier.push_back(nb);
    }
  }
  return count == topo.size();
}

Topology make_connected_random(std::size_t nodes, double side_m,
                               std::uint64_t seed) {
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    Topology topo =
        make_uniform_random(nodes, side_m, seed + attempt * 0x51D5ULL);
    // Check under the caller's seed: the network's gain table (and thus its
    // shadowing draw) is built from that same seed, so the verdict holds.
    if (is_connected(topo, seed)) {
      topo.name = "Connected-random";
      return topo;
    }
  }
  // Fall back to a guaranteed-connected line if the field is hopeless.
  return make_line(nodes, side_m / static_cast<double>(nodes));
}

Topology make_line(std::size_t nodes, double spacing_m) {
  Topology topo;
  topo.name = "Line";
  topo.tx_power_dbm = Cc2420Phy::tx_power_dbm(31);
  topo.path_loss.exponent = 4.0;
  topo.path_loss.loss_at_reference_db =
      reference_loss_for_range(topo.tx_power_dbm, 4.0, spacing_m * 1.5);
  topo.path_loss.shadowing_sigma_db = 0.0;  // deterministic for tests
  for (std::size_t i = 0; i < nodes; ++i) {
    topo.positions.push_back(Position{static_cast<double>(i) * spacing_m, 0.0});
  }
  return topo;
}

}  // namespace telea
