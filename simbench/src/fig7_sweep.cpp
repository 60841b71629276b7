// fig7_sweep: the paper's Fig. 7 sweep as users run it (bench_fig7_pdr):
// Drip / RPL / Tele / Re-Tele on channel 26 and on WiFi-interfered channel
// 19, one 40-node indoor-testbed trial per cell, one cell after another.
//
// The plain repetition calls run_control_experiment. The traced repetition
// replays the same trial step by step through Network's public API (the
// steps of harness/experiment.cpp), so the warm-up phase is profiled too;
// its results must hash to the same digest as the plain repetition's.

#include <unordered_map>
#include <unordered_set>

#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace simbench {

using namespace telea;

namespace {

// Shorter than the paper's 25 min + 3-9 h so a sweep fits a benchmark run;
// 8 cells x 14 commands keeps more than 10 latency samples beyond p90.
constexpr SimTime kWarmup = 5 * kMinute;
constexpr SimTime kDuration = 15 * kMinute;

constexpr ControlProtocol kProtocols[] = {
    ControlProtocol::kDrip, ControlProtocol::kRpl, ControlProtocol::kTele,
    ControlProtocol::kReTele};
constexpr std::size_t kCells = 8;

const char* proto_key(ControlProtocol p) {
  switch (p) {
    case ControlProtocol::kDrip: return "drip";
    case ControlProtocol::kRpl: return "rpl";
    case ControlProtocol::kTele: return "tele";
    case ControlProtocol::kReTele: return "retele";
    case ControlProtocol::kOrpl: return "orpl";
  }
  return "?";
}

/// Cell `i` in bench_fig7_pdr's order: channel 26 first, then channel 19.
/// Topology generation is left to the caller so the traced run can time it.
ControlExperimentConfig cell_config(std::uint64_t seed, std::size_t i) {
  ControlExperimentConfig cfg;
  cfg.network.seed = derive_trial_seed(seed, i);
  cfg.network.protocol = kProtocols[i % 4];
  cfg.network.wifi_interference = i >= 4;
  cfg.warmup = kWarmup;
  cfg.duration = kDuration;
  return cfg;
}

unsigned expected_commands(const ControlExperimentConfig& cfg) {
  const SimTime slots =
      (cfg.duration + cfg.control_interval - 1) / cfg.control_interval;
  return static_cast<unsigned>(slots - 1);
}

/// Aggregates cell results into the iteration's digest, failure count and
/// modelled metrics; identical for the plain and the traced repetition.
struct Tally {
  Cdf latency;
  double control_ops = 0.0;
  double duty_sum = 0.0;
  unsigned sent = 0, delivered = 0;
  double coverage_time_s = 0.0;
  std::size_t max_code_bits = 0;
  unsigned uncovered_tele_cells = 0;

  void add(Iteration& it, const ControlExperimentConfig& cfg,
           const ControlExperimentResult& r, const CodeState& warm,
           const CodeState& finished) {
    Digest& d = it.digest;
    d.add(static_cast<std::uint64_t>(r.sent));
    d.add(static_cast<std::uint64_t>(r.delivered));
    d.add(static_cast<std::uint64_t>(r.e2e_acked));
    d.add(r.tx_per_control);
    d.add(r.duty_cycle);
    d.add(r.current_ma);
    d.add(r.energy_uj_per_command);
    for (const GroupedStats* g : {&r.pdr_by_hop, &r.latency_by_hop,
                                  &r.athx_by_hop}) {
      for (const auto& [hops, s] : g->groups()) {
        d.add(static_cast<std::uint64_t>(hops));
        d.add(static_cast<std::uint64_t>(s.count()));
        d.add(s.mean());
      }
    }
    d.add(warm.coverage_time_s);
    d.add(static_cast<std::uint64_t>(finished.max_code_bits));

    if (r.sent != expected_commands(cfg)) {
      it.fail(std::string(protocol_name(r.protocol)) + " cell issued " +
              std::to_string(r.sent) + " commands, expected " +
              std::to_string(expected_commands(cfg)));
    }
    // A cell that completes none of its commands means the protocol is
    // broken, not lossy: every cell of every seed tried completes most.
    const bool acks = cfg.network.uses_tele();
    const unsigned completed = acks ? r.e2e_acked : r.delivered;
    if (completed == 0) {
      it.fail(std::string(protocol_name(r.protocol)) + " cell " +
              (acks ? "acknowledged" : "delivered") + " none of its " +
              std::to_string(r.sent) + " commands");
    }
    it.attempted += r.sent;
    it.failed += r.sent - std::min(r.sent, completed);
    it.sim_s += to_seconds(cfg.warmup + cfg.duration + cfg.drain);

    latency.merge(r.latency);
    control_ops += r.tx_per_control * r.sent;
    duty_sum += r.duty_cycle;
    sent += r.sent;
    delivered += r.delivered;
    if (acks) {
      coverage_time_s = std::max(coverage_time_s, warm.coverage_time_s);
      max_code_bits = std::max(max_code_bits, finished.max_code_bits);
      if (warm.nodes_without_code > 0) ++uncovered_tele_cells;
    }
  }

  void write(MetricMap& m) const {
    m["cmd_latency_p50_s"] = {latency.quantile(0.5), "sim_s"};
    m["cmd_latency_p90_s"] = {latency.quantile(0.9), "sim_s"};
    m["cmd_latency_samples"] = {static_cast<double>(latency.count()), "count"};
    m["tx_per_command"] = {sent == 0 ? 0.0 : control_ops / sent, "ratio"};
    m["duty_cycle_pct"] = {100.0 * duty_sum / kCells, "%"};
    m["pdr_pct"] = {sent == 0 ? 0.0 : 100.0 * delivered / sent, "%"};
    m["coverage_time_s"] = {coverage_time_s, "sim_s"};
    m["max_code_bits"] = {static_cast<double>(max_code_bits), "bits"};
    m["uncovered_tele_cells"] = {static_cast<double>(uncovered_tele_cells),
                                 "count"};
  }
};

double setup(std::uint64_t seed) {
  const double t0 = now_s();
  for (std::size_t i = 0; i < kCells; ++i) {
    ControlExperimentConfig cfg = cell_config(seed, i);
    cfg.network.topology = make_indoor_testbed(cfg.network.seed);
    Network net(cfg.network);
    net.start();
  }
  return now_s() - t0;
}

Iteration run(std::uint64_t seed, const RunOptions&) {
  Iteration it;
  Tally tally;
  const double t0 = now_s();
  for (std::size_t i = 0; i < kCells; ++i) {
    ControlExperimentConfig cfg = cell_config(seed, i);
    cfg.network.topology = make_indoor_testbed(cfg.network.seed);
    CodeState warm, finished;
    cfg.on_warmed_up = [&warm](Network& net) { warm = code_state(net); };
    cfg.on_finished = [&](Network& net) {
      finished = code_state(net);
      digest_network(it.digest, net);
    };
    const ControlExperimentResult r = run_control_experiment(cfg);
    tally.add(it, cfg, r, warm, finished);
  }
  it.wall_s = now_s() - t0;
  tally.write(it.modelled);
  return it;
}

// --- traced replay ----------------------------------------------------------

bool is_control_class(const Frame& frame) noexcept {
  return std::holds_alternative<msg::ControlPacket>(frame.payload) ||
         std::holds_alternative<msg::FeedbackPacket>(frame.payload) ||
         std::holds_alternative<msg::DripMsg>(frame.payload) ||
         std::holds_alternative<msg::RplData>(frame.payload) ||
         std::holds_alternative<msg::OrplData>(frame.payload);
}

struct PendingControl {
  NodeId dest = kInvalidNode;
  int dest_hops = -1;
  SimTime sent_at = 0;
  bool delivered = false;
  SimTime delivered_at = 0;
};

/// Phase walls of one traced cell, host seconds.
struct CellWalls {
  double warmup = 0, measure = 0, outside = 0;
};

/// One cell, step for step as run_control_experiment runs it, with the
/// dispatch loop profiled from boot.
ControlExperimentResult replay_cell(ControlExperimentConfig cfg,
                                    SpanRecorder& spans, SetupParts& setup,
                                    LayerTotals& layers, CellWalls& walls,
                                    CodeState& warm, CodeState& finished,
                                    Digest& digest) {
  timed(spans, "make_indoor_testbed", "setup", setup.topo, [&] {
    cfg.network.topology = make_indoor_testbed(cfg.network.seed);
  });
  auto net_owner = build_network_timed(cfg.network, spans, setup);
  Network& net = *net_owner;
  layers.watch(net);

  ControlExperimentResult result;
  result.protocol = cfg.network.protocol;
  result.wifi = cfg.network.wifi_interference;
  std::unordered_map<std::uint32_t, PendingControl> pending;
  std::unordered_map<std::uint32_t, std::uint32_t> drip_version_to_seq;
  std::unordered_set<std::uint32_t> e2e_acked;
  std::uint32_t next_seq = 1;

  double& outside = walls.outside;
  const auto mark_delivered = [&](std::uint32_t seq, NodeId id) {
    auto it = pending.find(seq);
    if (it == pending.end() || it->second.delivered) return;
    if (it->second.dest != id) return;
    it->second.delivered = true;
    it->second.delivered_at = net.sim().now();
  };
  timed(spans, "install_hooks", "harness", outside, [&] {
    for (std::size_t i = 0; i < net.size(); ++i) {
      const auto id = static_cast<NodeId>(i);
      NodeStack& node = net.node(id);
      const auto record_athx = [&result,
                                node_ptr = &node](std::uint8_t hops_so_far) {
        const int ctp_hops = node_ptr->ctp().hops();
        if (ctp_hops >= 0 && ctp_hops < 0xFF) {
          result.athx_by_hop.add(ctp_hops, hops_so_far);
        }
      };
      if (TeleAdjusting* tele = node.tele()) {
        tele->forwarding().on_claimed =
            [record_athx](const msg::ControlPacket& p) {
              record_athx(p.hops_so_far);
            };
        tele->on_control_delivered = [&, id](const msg::ControlPacket& p,
                                             bool) {
          mark_delivered(p.seqno, id);
        };
      }
      if (DripNode* drip = node.drip()) {
        drip->on_adopted = [record_athx](const msg::DripMsg& m) {
          record_athx(m.hops_so_far);
        };
        drip->on_delivered = [&, id](const msg::DripMsg& m) {
          const auto sit = drip_version_to_seq.find(m.version);
          if (sit != drip_version_to_seq.end()) mark_delivered(sit->second, id);
        };
      }
      if (RplNode* rpl = node.rpl()) {
        rpl->on_relayed = [record_athx](const msg::RplData& d) {
          record_athx(d.hops_so_far);
        };
        rpl->on_delivered = [&, id](const msg::RplData& d) {
          mark_delivered(d.seqno, id);
        };
      }
    }
    if (TeleAdjusting* sink_tele = net.sink().tele()) {
      sink_tele->on_e2e_ack = [&e2e_acked](std::uint32_t seqno, NodeId) {
        e2e_acked.insert(seqno);
      };
    }
  });

  timed(spans, "start", "setup", setup.start, [&] { net.start(); });
  timed(spans, "warmup", "harness", walls.warmup,
        [&] { net.run_for(cfg.warmup); });

  std::unordered_set<std::uint64_t> control_ops;
  timed(spans, "on_warmed_up", "harness", outside, [&] {
    warm = code_state(net);
    net.reset_accounting();
    net.medium().add_transmit_hook(
        [&control_ops](NodeId src, const Frame& frame, SimTime) {
          if (!is_control_class(frame)) return;
          control_ops.insert((static_cast<std::uint64_t>(src) << 32) |
                             frame.link_seq);
        });
    net.start_data_collection(cfg.data_ipi);
  });

  Pcg32 dest_rng(cfg.network.seed ^ 0xDE57ULL, 7);
  const auto node_count = static_cast<std::uint32_t>(net.size());
  const SimTime end = net.sim().now() + cfg.duration;
  while (net.sim().now() < end) {
    timed(spans, "measure", "harness", walls.measure,
          [&] { net.run_for(cfg.control_interval); });
    if (net.sim().now() >= end) break;
    timed(spans, "send_control", "harness", outside, [&] {
      const NodeId dest =
          static_cast<NodeId>(dest_rng.uniform_in(1, node_count - 1));
      NodeStack& dest_node = net.node(dest);
      PendingControl record;
      record.dest = dest;
      record.dest_hops =
          dest_node.ctp().hops() == 0xFF ? -1 : dest_node.ctp().hops();
      record.sent_at = net.sim().now();
      const std::uint32_t seq = next_seq++;
      switch (cfg.network.protocol) {
        case ControlProtocol::kTele:
        case ControlProtocol::kReTele: {
          TeleAdjusting* dest_tele = dest_node.tele();
          TeleAdjusting* sink_tele = net.sink().tele();
          std::optional<std::uint32_t> assigned;
          if (dest_tele != nullptr && sink_tele != nullptr &&
              dest_tele->addressing().has_code()) {
            assigned = sink_tele->send_control(
                dest, dest_tele->addressing().code(),
                static_cast<std::uint16_t>(seq & 0xFFFF));
          }
          pending.emplace(assigned.value_or(seq), record);
          break;
        }
        case ControlProtocol::kDrip: {
          const std::uint32_t version = net.sink().drip()->disseminate(
              dest, static_cast<std::uint16_t>(seq & 0xFFFF));
          drip_version_to_seq[version] = seq;
          pending.emplace(seq, record);
          break;
        }
        case ControlProtocol::kRpl:
          net.sink().rpl()->send_downward(
              dest, static_cast<std::uint16_t>(seq & 0xFFFF), seq);
          pending.emplace(seq, record);
          break;
        case ControlProtocol::kOrpl:
          net.sink().orpl()->send_downward(
              dest, static_cast<std::uint16_t>(seq & 0xFFFF), seq);
          pending.emplace(seq, record);
          break;
      }
      ++result.sent;
    });
  }
  timed(spans, "drain", "harness", walls.measure,
        [&] { net.run_for(cfg.drain); });

  timed(spans, "collect", "harness", outside, [&] {
    result.duty_cycle = net.average_duty_cycle();
    result.current_ma = net.average_current_ma();
    for (const auto& [seqno, rec] : pending) {
      if (rec.dest_hops < 0) continue;
      result.pdr_by_hop.add(rec.dest_hops, rec.delivered ? 1.0 : 0.0);
      if (rec.delivered) {
        ++result.delivered;
        const double latency = to_seconds(rec.delivered_at - rec.sent_at);
        result.latency_by_hop.add(rec.dest_hops, latency);
        result.latency.add(latency);
      }
      if (e2e_acked.contains(seqno)) ++result.e2e_acked;
    }
    result.tx_per_control =
        result.sent == 0 ? 0.0
                         : static_cast<double>(control_ops.size()) /
                               static_cast<double>(result.sent);
    result.energy_uj_per_command =
        result.sent == 0
            ? 0.0
            : net.average_energy_mj() * static_cast<double>(net.size()) *
                  1000.0 / static_cast<double>(result.sent);
    finished = code_state(net);
    digest_network(digest, net);
  });
  layers.add(net, walls.warmup + walls.measure);
  return result;
}

Iteration run_traced(std::uint64_t seed, SpanRecorder& spans,
                     const RunOptions&) {
  Iteration it;
  Tally tally;
  SetupParts setup;
  LayerTotals layers;
  CellWalls phases;
  const double t0 = now_s();
  for (std::size_t i = 0; i < kCells; ++i) {
    const ControlExperimentConfig cfg = cell_config(seed, i);
    CodeState warm, finished;
    CellWalls walls;
    const double cell_start = now_s();
    const ControlExperimentResult r = replay_cell(
        cfg, spans, setup, layers, walls, warm, finished, it.digest);
    const std::string key = proto_key(cfg.network.protocol);
    const double cell_wall = spans.end(
        std::string("cell ") + key + (cfg.network.wifi_interference
                                          ? " ch19"
                                          : " ch26"),
        "proto", cell_start);
    it.layers["proto." + key + ".wall_s"] += cell_wall;
    phases.warmup += walls.warmup;
    phases.measure += walls.measure;
    phases.outside += walls.outside;
    tally.add(it, cfg, r, warm, finished);
  }
  it.wall_s = now_s() - t0;
  tally.write(it.modelled);
  layers.write(it.layers);
  setup.add_to(it.layers);
  it.layers["phase.warmup_s"] = phases.warmup;
  it.layers["phase.measure_s"] = phases.measure;
  it.layers["harness.outside_s"] = phases.outside;
  return it;
}

}  // namespace

const Workload kFig7Sweep{"fig7_sweep", setup, run, run_traced};

}  // namespace simbench
