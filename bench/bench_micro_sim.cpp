// Micro-benchmarks (google-benchmark) for the simulator substrate: event
// queue throughput, CPM noise sampling, the CC2420 PRR curve and the medium's
// CCA. These bound
// how much virtual time per wall-second the full-system experiments get.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "radio/interferer.hpp"
#include "radio/medium.hpp"
#include "radio/noise.hpp"
#include "radio/phy.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace telea {
namespace {

void BM_EventQueueScheduleDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    EventQueue q;
    Pcg32 rng(7, 1);
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(rng.next(), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleDrain)->Arg(1000)->Arg(100000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // The LPL MAC cancels constantly; measure the tombstone path.
  for (auto _ : state) {
    EventQueue q;
    std::vector<EventHandle> handles;
    handles.reserve(1000);
    for (std::size_t i = 0; i < 1000; ++i) {
      handles.push_back(q.schedule(i, [] {}));
    }
    for (std::size_t i = 0; i < 1000; i += 2) q.cancel(handles[i]);
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
  }
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    std::uint64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sim.schedule_in(10, tick);
    };
    sim.schedule_in(10, tick);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorSelfScheduling);

void BM_CpmNoiseSample(benchmark::State& state) {
  const auto trace = generate_heavy_noise_trace({}, 11);
  const CpmNoiseModel model(trace, 3);
  auto gen = model.make_generator(1, 1);
  SimTime t = 0;
  for (auto _ : state) {
    t += 2 * kMillisecond;
    benchmark::DoNotOptimize(gen.noise_dbm(t));
  }
}
BENCHMARK(BM_CpmNoiseSample);

void BM_CpmTraining(benchmark::State& state) {
  const auto trace = generate_heavy_noise_trace({}, 12);
  for (auto _ : state) {
    CpmNoiseModel model(trace, 3);
    benchmark::DoNotOptimize(model.marginal_mean_dbm());
  }
}
BENCHMARK(BM_CpmTraining);

void BM_PrrCurve(benchmark::State& state) {
  double sinr = -5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Cc2420Phy::packet_reception_ratio(sinr, -80.0, 50));
    sinr += 0.1;
    if (sinr > 10) sinr = -5.0;
  }
}
BENCHMARK(BM_PrrCurve);

/// Keeps its node on the air: every finished copy is sent again.
class Resender final : public MediumListener {
 public:
  Resender(RadioMedium& medium, NodeId id) : medium_(medium), id_(id) {}
  AckDecision on_frame(const Frame&, double) override {
    return AckDecision::kIgnore;
  }
  void on_tx_done(bool, NodeId) override { send(); }
  void send() {
    Frame f;
    f.src = id_;
    f.dst = kBroadcastNode;
    f.payload = msg::CtpBeacon{};
    medium_.transmit(id_, f, wire_size_bytes(f));
  }

 private:
  RadioMedium& medium_;
  NodeId id_;
};

/// One LPL CCA: a 40-node grid under heavy CPM noise and the WiFi
/// interferer, with three senders on the air. The clock moves 100 us after
/// each sweep over the nodes, so noise readings and interferer state change.
void BM_ChannelBusy(benchmark::State& state) {
  constexpr NodeId kNodes = 40;
  std::vector<Position> pos;
  for (NodeId i = 0; i < kNodes; ++i) {
    pos.push_back({4.0 * (i % 8), 4.0 * (i / 8)});
  }
  const LinkGainTable gains(pos, PathLossConfig{}, 3);
  const CpmNoiseModel noise(generate_heavy_noise_trace({}, 13), 3);
  WifiInterferer wifi(kNodes, 5);
  Simulator sim;
  RadioMedium medium(sim, gains, noise, /*tx_power_dbm=*/0.0, 7);
  medium.set_interferer(&wifi);
  std::vector<std::unique_ptr<Resender>> nodes;
  for (NodeId i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<Resender>(medium, i));
    medium.attach(i, *nodes.back());
  }
  for (const NodeId sender : {NodeId{3}, NodeId{17}, NodeId{30}}) {
    nodes[sender]->send();
  }
  const DbmThreshold cca(-85.0);
  NodeId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(medium.channel_busy(id, cca));
    if (++id == kNodes) {
      id = 0;
      state.PauseTiming();
      sim.run_until(sim.now() + 100);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_ChannelBusy);

void BM_TraceGeneration(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_heavy_noise_trace({}, ++seed));
  }
}
BENCHMARK(BM_TraceGeneration);

}  // namespace
}  // namespace telea

BENCHMARK_MAIN();
