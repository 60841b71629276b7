#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "radio/noise.hpp"
#include "radio/propagation.hpp"

namespace simbench {

using namespace telea;

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

void Digest::add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double SpanRecorder::end(std::string name, const char* cat, double start) {
  const double dur = now_s() - start;
  if (enabled_) spans_.push_back(Span{std::move(name), cat, start, dur});
  return dur;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n"
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"simbench\"}}";
  char buf[160];
  for (const Span& s : spans_) {
    // Complete events ("X"), microseconds; one thread: spans nest by time.
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":0,\"tid\":0}",
                  s.name.c_str(), s.cat, s.start * 1e6, s.dur * 1e6);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void LayerTotals::watch(Network& net) {
  net.sim().set_profiling(true);
  net.medium().add_transmit_hook([this](NodeId, const Frame&, SimTime airtime) {
    airtime_s_ += to_seconds(airtime);
  });
}

void LayerTotals::add(Network& net, double run_for_wall) {
  const SimProfile& profile = net.sim().profile();
  events_ += profile.events_dispatched;
  max_depth_ = std::max(max_depth_, profile.max_queue_depth);
  run_for_wall_ += run_for_wall;
  callback_wall_ += profile.wall_seconds;
  for (const auto& [tag, stats] : profile.by_kind) {
    auto& t = tags_[tag];
    t.count += stats.count;
    t.wall_seconds += stats.wall_seconds;
  }
  radio_copies_ += net.medium().total_transmissions();
  for (NodeId i = 0; i < static_cast<NodeId>(net.size()); ++i) {
    NodeStack& node = net.node(i);
    send_ops_ += node.mac().send_ops();
    mac_copies_ += node.mac().copies_sent();
    const CtpNode::Stats& cs = node.ctp().stats();
    beacons_ += cs.beacons_sent;
    parent_changes_ += cs.parent_changes;
    data_originated_ += cs.data_originated;
    data_dropped_ += cs.data_dropped;
    if (TeleAdjusting* tele = node.tele()) {
      const Forwarding::Stats& fs = tele->forwarding().stats();
      claims_ += fs.claims;
      duplicates_ += fs.duplicates;
      backtracks_ += fs.backtracks;
      origin_retries_ += fs.origin_retries;
    }
  }
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void LayerTotals::write(LayerMap& out) const {
  double lpl_s = 0, fwd_s = 0;
  std::uint64_t lpl_events = 0, requeue_events = 0;
  for (const auto& [tag, stats] : tags_) {
    if (tag.rfind("lpl.", 0) == 0) {
      lpl_s += stats.wall_seconds;
      lpl_events += stats.count;
    } else if (tag.rfind("fwd.", 0) == 0) {
      fwd_s += stats.wall_seconds;
    } else if (tag == "ctp.requeue") {
      requeue_events += stats.count;
    }
  }
  const auto untagged = tags_.find("(untagged)");
  const auto e = [](std::uint64_t v) { return static_cast<double>(v); };

  out["sim.events"] = e(events_);
  out["sim.events_per_s"] = ratio(e(events_), run_for_wall_);
  out["sim.max_queue_depth"] = e(max_depth_);
  out["sim.self_s"] = run_for_wall_ - callback_wall_;
  out["mac.lpl_s"] = lpl_s;
  out["mac.timer_events"] = e(lpl_events);
  out["mac.send_ops"] = e(send_ops_);
  out["mac.tx_copies"] = e(mac_copies_);
  out["mac.copies_per_send"] = ratio(e(mac_copies_), e(send_ops_));
  out["radio.tx_copies"] = e(radio_copies_);
  out["radio.airtime_s"] = airtime_s_;
  const bool any_untagged = untagged != tags_.end();
  out["untagged.s"] = any_untagged ? untagged->second.wall_seconds : 0.0;
  out["untagged.events"] = any_untagged ? e(untagged->second.count) : 0.0;
  out["net.beacons"] = e(beacons_);
  out["net.parent_changes"] = e(parent_changes_);
  out["net.requeue_events"] = e(requeue_events);
  out["net.data_drop_ratio"] = ratio(e(data_dropped_), e(data_originated_));
  out["core.claims"] = e(claims_);
  out["core.duplicates_per_claim"] = ratio(e(duplicates_), e(claims_));
  out["core.backtracks"] = e(backtracks_);
  out["core.origin_retries"] = e(origin_retries_);
  out["core.fwd_s"] = fwd_s;
}

void SetupParts::add_to(LayerMap& out) const {
  out["setup.topo_s"] += topo;
  out["setup.gains_s"] += gains;
  out["setup.noise_s"] += noise;
  out["setup.network_s"] += network;
  out["setup.start_s"] += start;
}

std::unique_ptr<Network> build_network_timed(const NetworkConfig& config,
                                             SpanRecorder& spans,
                                             SetupParts& parts) {
  const Topology& topo = config.topology;
  double gains = 0.0, noise = 0.0, ctor = 0.0;
  timed(spans, "LinkGainTable", "setup", gains, [&] {
    const LinkGainTable table(topo.positions, topo.path_loss, config.seed);
    (void)table;
  });
  // The seed mix is the one Network's constructor uses; only the cost of
  // the call matters here, the model itself is discarded.
  timed(spans, "CpmNoiseModel", "setup", noise, [&] {
    const CpmNoiseModel model(
        generate_heavy_noise_trace(config.noise_trace, config.seed ^ 0x4015EULL),
        /*history=*/3);
    (void)model;
  });
  auto net = timed(spans, "Network", "setup", ctor,
                   [&] { return std::make_unique<Network>(config); });
  parts.gains += gains;
  parts.noise += noise;
  parts.network += std::max(0.0, ctor - gains - noise);
  return net;
}

CodeState code_state(Network& net) {
  CodeState state;
  SimTime latest = 0;
  for (NodeId i = 1; i < static_cast<NodeId>(net.size()); ++i) {
    const TeleAdjusting* tele = net.node(i).tele();
    if (tele == nullptr || !tele->addressing().has_code()) {
      ++state.nodes_without_code;
      continue;
    }
    const auto& a = tele->addressing();
    state.max_code_bits = std::max(state.max_code_bits, a.code().size());
    if (a.code_assigned_at().has_value()) {
      latest = std::max(latest, *a.code_assigned_at());
    }
  }
  if (state.nodes_without_code == 0) state.coverage_time_s = to_seconds(latest);
  return state;
}

void digest_network(Digest& d, Network& net) {
  d.add(static_cast<std::uint64_t>(net.sim().now()));
  d.add(net.medium().total_transmissions());
  for (NodeId i = 0; i < static_cast<NodeId>(net.size()); ++i) {
    NodeStack& node = net.node(i);
    d.add(static_cast<std::uint64_t>(node.ctp().parent()));
    d.add(node.mac().copies_sent());
    d.add(node.mac().send_ops());
    if (const TeleAdjusting* tele = node.tele()) {
      const auto& a = tele->addressing();
      d.add(a.code().to_string());
      d.add(a.code_assigned_at().has_value() ? *a.code_assigned_at() + 1 : 0);
    }
  }
}

}  // namespace simbench
