#include "harness/network.hpp"

#include <algorithm>

#include "core/path_code.hpp"
#include "harness/artifacts.hpp"
#include "radio/phy.hpp"
#include "stats/energy.hpp"
#include "util/enum_name.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace telea {

const char* protocol_name(ControlProtocol p) noexcept {
  switch (p) {
    case ControlProtocol::kTele: return "Tele";
    case ControlProtocol::kReTele: return "Re-Tele";
    case ControlProtocol::kDrip: return "Drip";
    case ControlProtocol::kRpl: return "RPL";
    case ControlProtocol::kOrpl: return "ORPL";
  }
  return "?";
}

NodeStack::NodeStack(Simulator& sim, RadioMedium& medium, TraceRouter& router,
                     NodeId id, const NetworkConfig& config,
                     std::uint64_t seed)
    : estimator_(),
      mac_(sim, medium, router, id, seed),
      ctp_(sim, router, mac_, estimator_, /*is_root=*/id == kSinkNode,
           seed ^ (0x5EED0000ULL + id)),
      data_timer_(sim),
      sim_(&sim),
      router_(&router) {
  mac_.set_handler(*this);
  ctp_.set_listener(this);
  data_timer_.set_tag("app.data");

  if (config.uses_tele()) {
    tele_ = std::make_unique<TeleAdjusting>(sim, router, mac_, ctp_,
                                            config.tele);
  } else if (config.protocol == ControlProtocol::kDrip) {
    drip_ = std::make_unique<DripNode>(sim, mac_, seed ^ (0xD41B0000ULL + id));
  } else if (config.protocol == ControlProtocol::kRpl) {
    rpl_ = std::make_unique<RplNode>(sim, mac_, ctp_);
  } else if (config.protocol == ControlProtocol::kOrpl) {
    orpl_ = std::make_unique<OrplNode>(sim, mac_, ctp_);
  }

  if (id == kSinkNode) {
    ctp_.set_deliver([this](const msg::CtpData& data) {
      if (tele_) tele_->notify_root_delivery(data);
      if (data.has_health && on_health_report) {
        on_health_report(data.origin, data.health);
      }
      if (on_sink_data) on_sink_data(data);
    });
  }

  if (tele_) {
    tele_->addressing().on_code_changed = [this, id] {
      router_->record(id, TraceEvent::kCodeChange,
                      tele_->addressing().code().size());
    };
  }
}

void NodeStack::start() {
  mac_.start();
  ctp_.start();
  if (tele_) tele_->start();
  if (drip_) drip_->start();
  if (rpl_) rpl_->start();
  if (orpl_) orpl_->start();
}

AckDecision NodeStack::handle_frame(const Frame& frame, bool for_me,
                                    double rssi_dbm) {
  (void)rssi_dbm;
  return std::visit(
      [&](const auto& payload) -> AckDecision {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, msg::CtpBeacon>) {
          ctp_.handle_beacon(frame.src, payload);
          return AckDecision::kAccept;
        } else if constexpr (std::is_same_v<T, msg::CtpData>) {
          // Overhearing a control e2e ack proves delivery: straggler
          // duplicates of that control packet can be dropped everywhere.
          if (payload.is_control_ack && tele_) {
            tele_->forwarding().note_ack_overheard(payload.control_seqno);
          }
          return ctp_.handle_data(frame.src, payload, for_me);
        } else if constexpr (std::is_same_v<T, msg::DripMsg>) {
          return drip_ ? drip_->handle_msg(frame.src, payload)
                       : AckDecision::kIgnore;
        } else if constexpr (std::is_same_v<T, msg::RplDao>) {
          return rpl_ ? rpl_->handle_dao(frame.src, payload, for_me)
                      : AckDecision::kIgnore;
        } else if constexpr (std::is_same_v<T, msg::RplData>) {
          return rpl_ ? rpl_->handle_data(frame.src, payload, for_me)
                      : AckDecision::kIgnore;
        } else if constexpr (std::is_same_v<T, msg::OrplAnnounce>) {
          return orpl_ ? orpl_->handle_announce(frame.src, payload)
                       : AckDecision::kIgnore;
        } else if constexpr (std::is_same_v<T, msg::OrplData>) {
          return orpl_ ? orpl_->handle_data(frame.src, payload)
                       : AckDecision::kIgnore;
        } else {
          // All TeleAdjusting frame types.
          return tele_ ? tele_->handle_frame(frame, for_me)
                       : AckDecision::kIgnore;
        }
      },
      frame.payload);
}

void NodeStack::on_duplicate_frame(const Frame& frame, bool for_me) {
  (void)for_me;
  if (tele_ == nullptr) return;
  if (const auto* cp = std::get_if<msg::ControlPacket>(&frame.payload)) {
    tele_->forwarding().note_duplicate(frame.src, *cp);
  }
}

void NodeStack::on_route_found() {
  if (tele_) tele_->on_route_found();
}

void NodeStack::on_parent_changed(NodeId old_parent, NodeId new_parent) {
  router_->record(id(), TraceEvent::kParentChange, old_parent, new_parent);
  if (tele_) tele_->on_parent_changed(old_parent, new_parent);
  if (rpl_) rpl_->on_parent_changed();
}

void NodeStack::on_beacon_heard(NodeId from, const msg::CtpBeacon& beacon) {
  if (tele_) tele_->on_beacon_heard(from, beacon);
}

void NodeStack::kill() {
  router_->record(id(), TraceEvent::kKill);
  data_timer_.stop();
  mac_.stop();
}

void NodeStack::revive() {
  router_->record(id(), TraceEvent::kRevive);
  mac_.restart();
  // kill() stopped the application workload along with the radio; a revived
  // node resumes originating (health telemetry made the omission visible:
  // every node that ever had an outage stayed stale forever).
  if (data_ipi_ > 0) start_data_collection(data_ipi_, data_seed_);
}

void NodeStack::reboot_with_state_loss() {
  router_->record(id(), TraceEvent::kReboot);
  // The flight ring survives the reboot (noinit-RAM semantics): hand the
  // pre-reboot history out as a post-mortem.
  router_->dump(id(), "reboot");
  if (invariants_ != nullptr) invariants_->note_node_reset(id());
  data_timer_.stop();
  if (!mac_.stopped()) mac_.stop();  // flush queue + in-flight sends
  if (tele_) tele_->reset_state();   // forwarding first, then addressing
  ctp_.reset_routing();
  mac_.restart();
  ctp_.start();  // trickle already at Imin from reset_routing
  if (tele_) tele_->start();
  if (data_ipi_ > 0) start_data_collection(data_ipi_, data_seed_);
}

void NodeStack::set_invariant_engine(InvariantEngine* engine) {
  invariants_ = engine;
  if (tele_ != nullptr) tele_->forwarding().set_auditor(engine);
}

void NodeStack::enable_health_reporting(SimTime period,
                                        const EnergyModel& energy) {
  if (ctp_.is_root() || health_reporter_ != nullptr) return;
  health_reporter_ = std::make_unique<HealthReporter>(period);
  health_energy_ = energy;
  ctp_.set_origin_hook([this](msg::CtpData& data) {
    health_reporter_->maybe_attach(sim_->now(), data,
                                   [this] { return sample_health(); });
  });
}

HealthSample NodeStack::sample_health() {
  HealthSample s;
  s.duty_cycle = mac_.duty_cycle();
  const NodeId parent = ctp_.parent();
  s.etx10 = parent == kInvalidNode ? 0xFFFFu : estimator_.etx10(parent);
  if (tele_ && tele_->addressing().has_code()) {
    s.code_len = tele_->addressing().code().size();
  }
  s.mac_queue_hwm = mac_.send_queue_hwm();
  s.ctp_queue_hwm = ctp_.forward_queue_hwm();
  s.parent_changes = ctp_.stats().parent_changes;
  s.energy_mj = health_energy_.energy_mj(
      mac_.radio_on_time(), mac_.tx_airtime(), mac_.accounting_window());
  return s;
}

void NodeStack::start_data_collection(SimTime ipi, std::uint64_t seed) {
  if (mac_.stopped()) return;
  if (ctp_.is_root()) return;
  data_ipi_ = ipi;
  data_seed_ = seed;
  Pcg32 rng(seed ^ (0xDA7AULL + id()), id());
  data_timer_.set_callback([this] {
    msg::CtpData data;
    // In-band code report (paper Sec. III-A): collection traffic carries
    // the node's current path code up to the controller.
    if (tele_ != nullptr && tele_->addressing().has_code()) {
      data.has_code_report = true;
      data.reported_code = tele_->addressing().code();
    }
    ctp_.send_to_sink(data);
  });
  const SimTime phase = rng.uniform(static_cast<std::uint32_t>(
      std::min<SimTime>(ipi, 0xFFFFFFFFull)));
  data_timer_.start_periodic_at(phase + 1, ipi);
}

Network::Network(NetworkConfig config) : config_(std::move(config)) {
  const Topology& topo = config_.topology;
  gains_ = std::make_unique<LinkGainTable>(topo.positions, topo.path_loss,
                                           config_.seed);
  const auto trace =
      generate_heavy_noise_trace(config_.noise_trace, config_.seed ^ 0x4015EULL);
  noise_model_ = std::make_unique<CpmNoiseModel>(trace, /*history=*/3);

  medium_ = std::make_unique<RadioMedium>(sim_, *gains_, *noise_model_,
                                          topo.tx_power_dbm, config_.seed);

  if (config_.wifi_interference) {
    interferer_ = std::make_unique<WifiInterferer>(topo.size(),
                                                   config_.seed ^ 0x3F1ULL);
    medium_->set_interferer(interferer_.get());
  }

  nodes_.reserve(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i) {
    nodes_.push_back(std::make_unique<NodeStack>(
        sim_, *medium_, router_, static_cast<NodeId>(i), config_,
        config_.seed ^ (i * 0x9E3779B97F4A7C15ULL)));
  }

  // Wire the Re-Tele controller knowledge into every sink-capable node (only
  // the sink originates, but the hook is cheap).
  if (config_.protocol == ControlProtocol::kReTele) {
    if (TeleAdjusting* sink_tele = nodes_[kSinkNode]->tele()) {
      sink_tele->set_controller_hook(
          [this](NodeId dest, std::uint32_t) { return suggest_detour(dest); });
    }
  }
}

Network::~Network() {
  for (const std::string& path : artifact_claims_) {
    ArtifactRegistry::instance().release(path);
  }
}

void Network::start() {
  for (auto& n : nodes_) n->start();
}

std::optional<DetourSuggestion> Network::suggest_detour(NodeId dest) const {
  // The destination id came off the air: validate before indexing.
  if (dest >= nodes_.size()) return std::nullopt;
  const TeleAdjusting* dest_tele = nodes_[dest]->tele();
  if (dest_tele == nullptr || !dest_tele->addressing().has_code()) {
    return std::nullopt;
  }
  const PathCode& dest_code = dest_tele->addressing().code();

  // "High link quality" neighbor: comfortably inside the reception budget.
  const double good_loss =
      config_.topology.tx_power_dbm - Cc2420Phy::kSensitivityDbm - 6.0;

  std::optional<DetourSuggestion> best;
  std::size_t best_divergence = 0;
  int best_health = -1;
  unsigned best_etx10 = 0x100;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    if (id == dest || id == kSinkNode) continue;
    if (gains_->loss_db(id, dest) > good_loss) continue;
    const TeleAdjusting* tele = nodes_[i]->tele();
    if (tele == nullptr || !tele->addressing().has_code()) continue;
    const PathCode& code = tele->addressing().code();
    // The detour must not route through the same broken subtree: prefer the
    // most divergent code (paper: "different path code to the greatest
    // extent").
    const std::size_t divergence = code_divergence(code, dest_code);
    // Health bias: among equally divergent candidates, prefer the ones the
    // sink's in-band health model has recently heard from (fresh > merely
    // tracked > silent), then the lowest reported parent-link ETX. Without
    // the model every candidate ranks the same and the seed behavior —
    // first max-divergence candidate wins — is preserved.
    int health_rank = 0;
    unsigned etx10 = 0x100;
    if (health_ != nullptr) {
      if (const NetworkHealthModel::Entry* e = health_->entry(id)) {
        health_rank = health_->is_fresh(sim_.now(), id) ? 2 : 1;
        etx10 = e->report.etx10;
      }
    }
    const bool better =
        !best.has_value() || divergence > best_divergence ||
        (divergence == best_divergence &&
         (health_rank > best_health ||
          (health_rank == best_health && etx10 < best_etx10)));
    if (better) {
      best = DetourSuggestion{id, code};
      best_divergence = divergence;
      best_health = health_rank;
      best_etx10 = etx10;
    }
  }
  return best;
}

int Network::code_tree_depth(NodeId id) const {
  if (id >= nodes_.size()) return -1;
  if (id == kSinkNode) return 0;
  int depth = 0;
  NodeId cur = id;
  for (std::size_t guard = 0; guard <= nodes_.size(); ++guard) {
    const TeleAdjusting* tele = nodes_[cur]->tele();
    if (tele == nullptr || !tele->addressing().has_code()) return -1;
    const NodeId up = tele->addressing().code_parent();
    if (up == kInvalidNode) return -1;
    ++depth;
    if (up == kSinkNode) return depth;
    cur = up;
  }
  return -1;  // cycle (stale allocator chain)
}

int Network::ctp_tree_depth(NodeId id) const {
  if (id >= nodes_.size()) return -1;
  if (id == kSinkNode) return 0;
  int depth = 0;
  NodeId cur = id;
  for (std::size_t guard = 0; guard <= nodes_.size(); ++guard) {
    const NodeId up = nodes_[cur]->ctp().parent();
    if (up == kInvalidNode) return -1;
    ++depth;
    if (up == kSinkNode) return depth;
    cur = up;
  }
  return -1;  // routing loop
}

double Network::code_coverage() const {
  if (nodes_.size() <= 1) return 1.0;
  std::size_t with_code = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const TeleAdjusting* tele = nodes_[i]->tele();
    if (tele != nullptr && tele->addressing().has_code()) ++with_code;
  }
  return static_cast<double>(with_code) /
         static_cast<double>(nodes_.size() - 1);
}

void Network::reset_accounting() {
  for (auto& n : nodes_) n->mac().reset_accounting();
}

double Network::average_duty_cycle() const {
  double sum = 0;
  for (const auto& n : nodes_) sum += n->mac().duty_cycle();
  return sum / static_cast<double>(nodes_.size());
}

EnergyModel Network::energy_model() const noexcept {
  return EnergyModel(config_.topology.tx_power_dbm);
}

SpanEnergyConfig Network::span_energy_config() const {
  SpanEnergyConfig cfg;
  cfg.tx_current_ma = energy_model().tx_current_ma();
  // The exact PHY airtime of one LPL copy of a control frame.
  Frame probe;
  probe.payload = msg::ControlPacket{};
  cfg.copy_airtime_s = to_seconds(Cc2420Phy::airtime(wire_size_bytes(probe)));
  return cfg;
}

std::vector<CommandSpan> Network::command_spans() const {
  const Tracer* trace = router_.trace();
  if (trace == nullptr) return {};
  return build_command_spans(trace->snapshot());
}

double Network::average_energy_mj() const {
  const EnergyModel model = energy_model();
  double sum = 0;
  for (const auto& n : nodes_) {
    sum += model.energy_mj(n->mac().radio_on_time(), n->mac().tx_airtime(),
                           n->mac().accounting_window());
  }
  return sum / static_cast<double>(nodes_.size());
}

double Network::average_current_ma() const {
  const EnergyModel model = energy_model();
  double sum = 0;
  for (const auto& n : nodes_) {
    sum += model.average_current_ma(n->mac().radio_on_time(),
                                    n->mac().tx_airtime(),
                                    n->mac().accounting_window());
  }
  return sum / static_cast<double>(nodes_.size());
}

void Network::start_data_collection(SimTime ipi) {
  for (auto& n : nodes_) n->start_data_collection(ipi, config_.seed);
}

void Network::collect_metrics(MetricsRegistry& registry) const {
  registry.describe("telea_tx_copies_total", "Link-layer frame copies transmitted");
  registry.describe("telea_send_ops_total", "MAC send operations completed");
  registry.describe("telea_duty_cycle", "Radio duty cycle since last accounting reset");
  registry.describe("telea_beacons_total", "CTP routing beacons sent");
  registry.describe("telea_data_total", "CTP data plane activity by kind");
  registry.describe("telea_parent_changes_total", "CTP parent switches");
  registry.describe("telea_control_total", "TeleAdjusting forwarding-plane decisions by kind");
  registry.describe("telea_phy_transmissions_total", "Frame copies put on the medium");
  registry.describe("telea_code_coverage", "Fraction of non-sink nodes holding a confirmed path code");
  registry.describe("telea_node_duty_cycle", "Distribution of per-node duty cycles");
  registry.describe("telea_trace_records", "Trace ring occupancy");
  registry.describe("telea_trace_dropped_total", "Trace records evicted from the ring");
  registry.describe("telea_sim_events_total", "Simulator events dispatched (profiling runs)");
  registry.describe("telea_sim_max_queue_depth", "Peak event-queue depth (profiling runs)");
  registry.describe("telea_invariant_violations_total", "Protocol invariant violations detected, by rule");
  registry.describe("telea_invariant_checkpoints_total", "Structural invariant checkpoints evaluated");
  registry.describe("telea_invariant_claims_audited_total", "Forwarding claims re-checked by the invariant engine");

  // Label sets are built in key order ("kind" < "node" < "sub"), so the
  // registry's lookup need not copy and sort them on every scrape.
  static constexpr std::array<const char*, 4> kDataKinds{
      "originated", "forwarded", "delivered", "dropped"};
  static constexpr std::array<const char*, 10> kControlKinds{
      "claims",     "forwards",     "deliveries", "duplicates",
      "yields",     "suppressions", "backtracks", "feedback_claims",
      "origin_retries", "origin_failures"};
  while (node_labels_.size() < nodes_.size()) {
    const std::string node = std::to_string(node_labels_.size());
    NodeLabels& l = node_labels_.emplace_back();
    l.lpl = {{"node", node}, {"sub", "lpl"}};
    l.ctp = {{"node", node}, {"sub", "ctp"}};
    for (std::size_t k = 0; k < kDataKinds.size(); ++k) {
      l.data[k] = {{"kind", kDataKinds[k]}, {"node", node}, {"sub", "ctp"}};
    }
    for (std::size_t k = 0; k < kControlKinds.size(); ++k) {
      l.control[k] = {
          {"kind", kControlKinds[k]}, {"node", node}, {"sub", "forwarding"}};
    }
  }

  Histogram& duty_hist = registry.histogram(
      "telea_node_duty_cycle",
      {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0});
  duty_hist.reset();  // collector-style: re-populate on every scrape
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeStack& n = *nodes_[i];
    const NodeLabels& l = node_labels_[i];
    registry.counter("telea_tx_copies_total", l.lpl)
        .set_total(n.mac().copies_sent());
    registry.counter("telea_send_ops_total", l.lpl)
        .set_total(n.mac().send_ops());
    registry.gauge("telea_duty_cycle", l.lpl).set(n.mac().duty_cycle());
    duty_hist.observe(n.mac().duty_cycle());

    const CtpNode::Stats& cs = n.ctp().stats();
    registry.counter("telea_beacons_total", l.ctp).set_total(cs.beacons_sent);
    const std::array<std::uint64_t, 4> data{
        cs.data_originated, cs.data_forwarded, cs.data_delivered,
        cs.data_dropped};
    for (std::size_t k = 0; k < data.size(); ++k) {
      registry.counter("telea_data_total", l.data[k]).set_total(data[k]);
    }
    registry.counter("telea_parent_changes_total", l.ctp)
        .set_total(cs.parent_changes);

    if (TeleAdjusting* tele = n.tele()) {
      const Forwarding::Stats& fs = tele->forwarding().stats();
      const std::array<std::uint64_t, 10> control{
          fs.claims,         fs.forwards,        fs.deliveries,
          fs.duplicates,     fs.yields,          fs.suppressions,
          fs.backtracks,     fs.feedback_claims, fs.origin_retries,
          fs.origin_failures};
      for (std::size_t k = 0; k < control.size(); ++k) {
        registry.counter("telea_control_total", l.control[k])
            .set_total(control[k]);
      }
    }
  }

  registry.counter("telea_phy_transmissions_total", {{"sub", "phy"}})
      .set_total(medium_->total_transmissions());
  registry.gauge("telea_code_coverage", {{"sub", "teleadjusting"}})
      .set(code_coverage());
  if (const Tracer* trace = router_.trace()) {
    registry.gauge("telea_trace_records", {{"sub", "trace"}})
        .set(static_cast<double>(trace->size()));
    registry.counter("telea_trace_dropped_total", {{"sub", "trace"}})
        .set_total(trace->dropped());
  }
  if (invariants_ != nullptr) {
    for_each_enum(invariant_rule_name, [&](InvariantRule rule) {
      registry
          .counter("telea_invariant_violations_total",
                   {{"rule", invariant_rule_name(rule)}, {"sub", "check"}})
          .set_total(invariants_->violation_count(rule));
    });
    registry.counter("telea_invariant_checkpoints_total", {{"sub", "check"}})
        .set_total(invariants_->checkpoints_run());
    registry
        .counter("telea_invariant_claims_audited_total", {{"sub", "check"}})
        .set_total(invariants_->claims_audited());
  }
  if (sim_.profiling()) {
    const SimProfile& prof = sim_.profile();
    registry.counter("telea_sim_events_total", {{"sub", "sim"}})
        .set_total(prof.events_dispatched);
    registry.gauge("telea_sim_max_queue_depth", {{"sub", "sim"}})
        .set(static_cast<double>(prof.max_queue_depth));
  }
  if (health_ != nullptr) {
    health_->collect_metrics(registry, sim_.now());
    registry.describe("telea_health_suppressed_total",
                      "Health reports withheld by the origin rate limiter");
    std::uint64_t attached = 0;
    std::uint64_t bytes = 0;
    std::uint64_t suppressed = 0;
    for (const auto& n : nodes_) {
      if (const HealthReporter* r = n->health_reporter()) {
        attached += r->stats().reports_attached;
        bytes += r->stats().bytes_attached;
        suppressed += r->stats().suppressed;
      }
    }
    const MetricLabels origin{{"side", "origin"}, {"sub", "health"}};
    registry.counter("telea_health_reports_total", origin).set_total(attached);
    registry.counter("telea_health_overhead_bytes", origin).set_total(bytes);
    registry.counter("telea_health_suppressed_total", origin)
        .set_total(suppressed);
  }
  if (timeline_ != nullptr) timeline_->collect_metrics(registry);
  if (router_.rings_armed()) {
    registry.describe("telea_flight_events_total",
                      "Events recorded into per-node flight-recorder rings");
    registry.describe("telea_flight_dumps_total",
                      "Flight-recorder rings dumped on a trigger");
    registry.counter("telea_flight_events_total", {{"sub", "flight"}})
        .set_total(router_.ring_records());
    registry.counter("telea_flight_dumps_total", {{"sub", "flight"}})
        .set_total(router_.dumps_taken());
  }
}

InvariantEngine& Network::enable_invariants(const InvariantConfig& config) {
  if (invariants_ != nullptr) return *invariants_;
  invariants_ = std::make_unique<InvariantEngine>(sim_, router_, config);
  for (auto& n : nodes_) n->set_invariant_engine(invariants_.get());
  invariants_->start([this] { return invariant_views(); });
  return *invariants_;
}

NetworkHealthModel& Network::enable_health(const NetworkHealthConfig& config) {
  if (health_ != nullptr) return *health_;
  // Claim the snapshot stream before any state lands: a collision with a
  // live trial must throw and leave this network health-off.
  claim_artifact(config.snapshot_jsonl);
  health_config_ = config;
  if (health_config_.period == 0) health_config_.period = 60 * kSecond;

  health_ = std::make_unique<NetworkHealthModel>(health_config_.period);
  health_->set_expected_nodes(nodes_.empty() ? 0 : nodes_.size() - 1);

  const EnergyModel energy = energy_model();
  for (auto& n : nodes_) {
    n->enable_health_reporting(health_config_.period, energy);
  }
  sink().on_health_report = [this](NodeId node, const msg::HealthReport& r) {
    health_->on_report(sim_.now(), node, r);
  };

  if (!health_config_.snapshot_jsonl.empty()) {
    if (!health_jsonl_.open(health_config_.snapshot_jsonl)) {
      TELEA_WARN("harness.network")
          << "cannot open " << health_config_.snapshot_jsonl;
    }
    health_timer_ = std::make_unique<Timer>(sim_);
    health_timer_->set_callback([this] { append_health_snapshot(); });
    health_timer_->set_tag("obs.health");
    health_timer_->start_periodic(health_config_.period);
  }
  return *health_;
}

bool Network::append_health_snapshot() {
  if (health_ == nullptr || !health_jsonl_.is_open()) return false;
  if (last_health_snapshot_ == sim_.now()) return true;
  if (!health_jsonl_.write_line(health_->render_snapshot_json(sim_.now()))) {
    return false;
  }
  last_health_snapshot_ = sim_.now();
  return true;
}

TimelineEngine& Network::enable_timeline(const NetworkTimelineConfig& config) {
  if (timeline_ != nullptr) return *timeline_;
  claim_artifact(config.jsonl);
  timeline_ = std::make_unique<TimelineEngine>(sim_, router_, config.timeline);
  // Self-inclusion is intentional: the engine's own telea_timeline_* /
  // telea_alert_* families ride in the same collector pass, one sample late
  // at worst and never recursive (the scratch registry is the engine's own).
  timeline_->set_collector(
      [this](MetricsRegistry& registry) { collect_metrics(registry); });
  timeline_->set_rules(config.rules);
  if (!config.jsonl.empty() && !timeline_->set_jsonl(config.jsonl)) {
    TELEA_WARN("harness.network") << "cannot open " << config.jsonl;
  }
  timeline_->start();
  return *timeline_;
}

void Network::enable_flight_recorders(const std::string& jsonl) {
  if (router_.rings_armed()) return;
  claim_artifact(jsonl);
  if (!router_.arm_rings(nodes_.size(), jsonl)) {
    TELEA_WARN("harness.network") << "cannot open " << jsonl;
  }
}

void Network::claim_artifact(const std::string& path) {
  if (path.empty()) return;
  ArtifactRegistry::instance().claim(path);
  artifact_claims_.push_back(path);
}

std::vector<InvariantNodeView> Network::invariant_views() const {
  std::vector<InvariantNodeView> views;
  views.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    InvariantNodeView v;
    v.id = n->id();
    v.alive = !n->killed();
    v.ctp_parent = n->ctp().parent();
    v.ctp_parent_heard = n->ctp().parent_last_heard();
    v.ctp_cost = n->ctp().path_etx10();
    if (const TeleAdjusting* tele = n->tele()) {
      const Addressing& addr = tele->addressing();
      v.has_addressing = true;
      v.code = addr.code();
      v.old_code = addr.old_code();
      v.code_parent = addr.code_parent();
      v.space_bits = addr.space_bits();
      for (const auto& e : addr.children().entries()) {
        v.children.push_back({e.child, e.position, e.new_code, e.old_code,
                              e.confirmed});
      }
      for (const auto& e : addr.neighbors().entries()) {
        v.neighbors.push_back({e.neighbor, e.new_code, e.old_code,
                               e.unreachable, e.unreachable_since});
      }
    }
    views.push_back(std::move(v));
  }
  return views;
}

Tracer& Network::enable_tracing(std::size_t capacity) {
  if (Tracer* trace = router_.trace()) return *trace;
  // Control-frame copies are recorded only here, so an untraced run adds no
  // transmit hook.
  medium_->add_transmit_hook(
      [this](NodeId src, const Frame& frame, SimTime) {
        if (const auto* cp = std::get_if<msg::ControlPacket>(&frame.payload)) {
          router_.record(src, TraceEvent::kControlTx, cp->seqno,
                         cp->expected_relay);
        }
      });
  return router_.enable_trace(capacity);
}

}  // namespace telea
