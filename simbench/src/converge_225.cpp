// converge_225: the paper's 225-node tight grid (Sec. IV-A) booted and run
// until every node holds a confirmed path code. No control traffic and no
// observability: the cost is the radio medium and the CTP/Trickle beacon
// storm of the first simulated minute.
//
// The run always covers the same simulated span, long enough for every
// seed tried to converge (35-85 s), so host time per run does not swing
// with the seed's convergence instant; the check is full coverage at its
// end and coverage_time_s reports when it was reached.

#include <map>

#include "harness/network.hpp"
#include "topo/topology.hpp"
#include "workloads.hpp"

namespace simbench {

using namespace telea;

namespace {

constexpr SimTime kSlice = 5 * kSecond;
constexpr SimTime kHorizon = 2 * kMinute;

NetworkConfig field_config(std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.protocol = ControlProtocol::kReTele;
  return cfg;
}

double setup(std::uint64_t seed) {
  const double t0 = now_s();
  NetworkConfig cfg = field_config(seed);
  cfg.topology = make_tight_grid(seed);
  Network net(cfg);
  net.start();
  return now_s() - t0;
}

/// Runs `net` to the horizon in slices; per-simulated-minute walls go to
/// `minute_walls`.
void converge(Network& net, SpanRecorder& spans,
              std::map<SimTime, double>& minute_walls) {
  while (net.sim().now() < kHorizon) {
    const SimTime minute = net.sim().now() / kMinute + 1;
    timed(spans, "minute " + std::to_string(minute), "harness",
          minute_walls[minute], [&] { net.run_for(kSlice); });
  }
}

void finish(Iteration& it, Network& net) {
  const CodeState codes = code_state(net);
  it.attempted = net.size() - 1;
  it.failed = codes.nodes_without_code;
  if (codes.nodes_without_code > 0) {
    it.fail(std::to_string(codes.nodes_without_code) +
            " nodes without a path code after " +
            std::to_string(to_seconds(net.sim().now())) + " simulated s");
  }
  it.sim_s = to_seconds(net.sim().now());
  digest_network(it.digest, net);
  it.modelled["coverage_time_s"] = {codes.coverage_time_s, "sim_s"};
  it.modelled["max_code_bits"] = {static_cast<double>(codes.max_code_bits),
                                  "bits"};
  it.modelled["duty_cycle_pct"] = {100.0 * net.average_duty_cycle(), "%"};
  it.modelled["tx_copies"] = {
      static_cast<double>(net.medium().total_transmissions()), "count"};
}

Iteration run(std::uint64_t seed, const RunOptions&) {
  Iteration it;
  SpanRecorder off(false);
  std::map<SimTime, double> minute_walls;
  const double t0 = now_s();
  NetworkConfig cfg = field_config(seed);
  cfg.topology = make_tight_grid(seed);
  Network net(cfg);
  net.start();
  converge(net, off, minute_walls);
  it.wall_s = now_s() - t0;
  finish(it, net);
  return it;
}

Iteration run_traced(std::uint64_t seed, SpanRecorder& spans,
                     const RunOptions&) {
  Iteration it;
  SetupParts setup;
  LayerTotals layers;
  std::map<SimTime, double> minute_walls;
  const double t0 = now_s();
  NetworkConfig cfg = field_config(seed);
  timed(spans, "make_tight_grid", "setup", setup.topo,
        [&] { cfg.topology = make_tight_grid(seed); });
  auto net = build_network_timed(cfg, spans, setup);
  layers.watch(*net);
  timed(spans, "start", "setup", setup.start, [&] { net->start(); });
  converge(*net, spans, minute_walls);
  double outside = 0.0;
  timed(spans, "finish", "harness", outside, [&] { finish(it, *net); });
  it.wall_s = now_s() - t0;

  double run_for_wall = 0.0;
  for (const auto& [minute, wall] : minute_walls) run_for_wall += wall;
  layers.add(*net, run_for_wall);
  layers.write(it.layers);
  setup.add_to(it.layers);
  it.layers["phase.warmup_s"] = run_for_wall;
  it.layers["phase.minute_1_s"] = minute_walls[1];
  it.layers["harness.outside_s"] = outside;
  return it;
}

}  // namespace

const Workload kConverge225{"converge_225", setup, run, run_traced};

}  // namespace simbench
