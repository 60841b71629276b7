// Micro-benchmarks (google-benchmark) for the hot data-plane primitives of
// TeleAdjusting: every overheard control packet triggers prefix matches
// against the node's own code and its neighbor table, so these operations
// bound the per-packet CPU cost on a mote-class device.

#include <benchmark/benchmark.h>

#include "core/path_code.hpp"
#include "core/tables.hpp"
#include "util/rng.hpp"

namespace telea {
namespace {

BitString random_code(Pcg32& rng, std::size_t len) {
  BitString b;
  for (std::size_t i = 0; i < len; ++i) {
    (void)b.push_back(rng.chance(0.5));  // benchmark lengths fit kCapacity
  }
  return b;
}

void BM_PrefixMatch(benchmark::State& state) {
  Pcg32 rng(1, 1);
  const auto len = static_cast<std::size_t>(state.range(0));
  const BitString dest = random_code(rng, len);
  const BitString own = dest.prefix(len / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(own.is_prefix_of(dest));
  }
}
BENCHMARK(BM_PrefixMatch)->Arg(8)->Arg(20)->Arg(40)->Arg(120);

void BM_CommonPrefixLen(benchmark::State& state) {
  Pcg32 rng(2, 1);
  const auto len = static_cast<std::size_t>(state.range(0));
  const BitString a = random_code(rng, len);
  BitString b = a;
  if (len > 2) b.set_bit(len / 2, !b.bit(len / 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.common_prefix_len(b));
  }
}
BENCHMARK(BM_CommonPrefixLen)->Arg(20)->Arg(40)->Arg(120);

void BM_MakeChildCode(benchmark::State& state) {
  Pcg32 rng(3, 1);
  const BitString parent = random_code(rng, 24);
  std::uint32_t pos = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_child_code(parent, pos, 5));
    pos = (pos % 30) + 1;
  }
}
BENCHMARK(BM_MakeChildCode);

void BM_SpaceBitsFor(benchmark::State& state) {
  const HeadroomPolicy policy{};
  std::uint32_t n = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space_bits_for(n, policy, true));
    n = (n % 60) + 1;
  }
}
BENCHMARK(BM_SpaceBitsFor);

void BM_NeighborTableScan(benchmark::State& state) {
  // The forwarding engine's candidate scan: match every neighbor code
  // against the destination code (pick_expected_relay's inner loop shape).
  Pcg32 rng(4, 1);
  const auto neighbors = static_cast<std::size_t>(state.range(0));
  NeighborCodeTable table;
  const BitString dest = random_code(rng, 36);
  for (std::size_t i = 0; i < neighbors; ++i) {
    const std::size_t len = 4 + rng.uniform(30);
    // Half the neighbors share the destination's prefix.
    BitString code = rng.chance(0.5) ? dest.prefix(std::min(len, dest.size()))
                                     : random_code(rng, len);
    table.observe(static_cast<NodeId>(i + 1), code, 0);
  }
  for (auto _ : state) {
    std::size_t best = 0;
    for (const auto& e : table.entries()) {
      if (e.new_code.is_prefix_of(dest) && e.new_code.size() > best) {
        best = e.new_code.size();
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_NeighborTableScan)->Arg(8)->Arg(16)->Arg(32);

void BM_ChildTableAllocate(benchmark::State& state) {
  Pcg32 rng(5, 1);
  const BitString parent = random_code(rng, 12);
  for (auto _ : state) {
    state.PauseTiming();
    ChildTable table;
    state.ResumeTiming();
    for (std::uint32_t p = 1; p <= 16; ++p) {
      const auto free = table.free_position(5, 1);
      benchmark::DoNotOptimize(free);
      table.upsert(static_cast<NodeId>(p), *free,
                   make_child_code(parent, *free, 5));
    }
  }
}
BENCHMARK(BM_ChildTableAllocate);

void BM_CodeDivergence(benchmark::State& state) {
  Pcg32 rng(6, 1);
  const BitString a = random_code(rng, 40);
  const BitString b = random_code(rng, 36);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code_divergence(a, b));
  }
}
BENCHMARK(BM_CodeDivergence);

}  // namespace
}  // namespace telea

BENCHMARK_MAIN();
