#pragma once

// Benchmark-side instrumentation: host clocks, the simulated-output digest,
// the in-memory span store of the traced run, and the accumulator that
// folds SimProfile and component counters into per-layer metrics. Nothing
// here reaches into the simulator beyond its public headers.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "harness/network.hpp"
#include "sim/simulator.hpp"

namespace simbench {

/// Host seconds since the first call in this process (steady clock).
double now_s();

/// FNV-1a over the simulated outputs of one iteration: two iterations with
/// equal digests produced the same simulated results, bit for bit.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex(std::uint64_t v);

/// Median of `v`, or 0 when it is empty.
[[nodiscard]] double median(std::vector<double> v);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;
/// Per-layer values by metric name; main.cpp owns their units.
using LayerMap = std::map<std::string, double>;

/// Spans recorded around calls into the simulator's public API, kept in
/// memory and written once at exit as Chrome trace-event JSON. A disabled
/// recorder records nothing, so untraced runs pay only a branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records [start, now) under `name`/`cat`; returns the duration.
  double end(std::string name, const char* cat, double start);

  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    const char* cat;
    double start;
    double dur;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-layer totals over every network a traced iteration ran: the
/// dispatch-loop profile, the wall time spent inside run_for, and the
/// component counters the layers expose publicly.
class LayerTotals {
 public:
  /// Turns on dispatch-loop profiling and sums frame airtime on `net`.
  /// Call before start(); this object must outlive `net`.
  void watch(telea::Network& net);

  /// Adds one watched network's profile and counters. `run_for_wall` is
  /// the host time the benchmark measured around its run_for calls.
  void add(telea::Network& net, double run_for_wall);

  /// sim.*, mac.*, radio.*, untagged.*, net.* and core.* metrics.
  void write(LayerMap& out) const;

 private:
  std::uint64_t events_ = 0;
  std::size_t max_depth_ = 0;
  double run_for_wall_ = 0.0;
  double callback_wall_ = 0.0;
  std::map<std::string, telea::SimProfile::KindStats> tags_;
  std::uint64_t send_ops_ = 0, mac_copies_ = 0, radio_copies_ = 0;
  double airtime_s_ = 0.0;
  std::uint64_t beacons_ = 0, parent_changes_ = 0;
  std::uint64_t data_originated_ = 0, data_dropped_ = 0;
  std::uint64_t claims_ = 0, duplicates_ = 0, backtracks_ = 0;
  std::uint64_t origin_retries_ = 0;
};

/// Times one call: records a span when tracing and adds the call's host
/// seconds to `seconds`.
template <typename F>
decltype(auto) timed(SpanRecorder& spans, std::string name, const char* cat,
                     double& seconds, F&& f) {
  const double t0 = now_s();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    seconds += spans.end(std::move(name), cat, t0);
  } else {
    decltype(auto) result = f();
    seconds += spans.end(std::move(name), cat, t0);
    return result;
  }
}

/// Host-side set-up parts of one network, measured the way the Network
/// constructor performs them: topology generation, the gain table, CPM
/// noise training, the remaining constructor work, and start().
struct SetupParts {
  double topo = 0, gains = 0, noise = 0, network = 0, start = 0;
  void add_to(LayerMap& out) const;
};

/// Constructs (does not start) a network with its set-up parts timed. The
/// gain table and noise model are timed as standalone copies of the calls
/// the constructor makes; `network` is the constructor's time minus both.
/// Callers time topology generation and start() themselves.
std::unique_ptr<telea::Network> build_network_timed(
    const telea::NetworkConfig& config, SpanRecorder& spans, SetupParts& parts);

/// Largest path code and full-coverage time of a TeleAdjusting network:
/// coverage time is the latest first-code instant when every non-sink node
/// holds a code, negative otherwise.
struct CodeState {
  double coverage_time_s = -1.0;
  std::size_t max_code_bits = 0;
  std::size_t nodes_without_code = 0;
};
CodeState code_state(telea::Network& net);

/// Hashes every node's path code, code instant, CTP parent and MAC counters.
void digest_network(Digest& d, telea::Network& net);

}  // namespace simbench
