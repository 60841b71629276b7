#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "check/invariants.hpp"
#include "core/teleadjusting.hpp"
#include "mac/lpl.hpp"
#include "net/ctp.hpp"
#include "net/link_estimator.hpp"
#include "proto/drip.hpp"
#include "proto/orpl.hpp"
#include "proto/rpl.hpp"
#include "radio/interferer.hpp"
#include "radio/medium.hpp"
#include "radio/noise.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/energy.hpp"
#include "stats/health.hpp"
#include "stats/metrics.hpp"
#include "stats/spans.hpp"
#include "stats/timeline.hpp"
#include "stats/trace.hpp"
#include "topo/topology.hpp"
#include "util/text_file.hpp"

namespace telea {

/// Which downward-control protocol a scenario exercises.
enum class ControlProtocol { kTele, kReTele, kDrip, kRpl, kOrpl };

[[nodiscard]] const char* protocol_name(ControlProtocol p) noexcept;

struct NetworkConfig {
  Topology topology;
  std::uint64_t seed = 1;
  ControlProtocol protocol = ControlProtocol::kReTele;
  bool wifi_interference = false;  // the paper's channel 19 vs 26 contrast

  TeleConfig tele{};
  SyntheticTraceConfig noise_trace{};

  [[nodiscard]] bool uses_tele() const noexcept {
    return protocol == ControlProtocol::kTele ||
           protocol == ControlProtocol::kReTele;
  }
};

/// One sensor node's full protocol stack, wired together the way the paper's
/// TinyOS image is ("Drip, RPL, and TeleAdjusting integrated into the same
/// protocol stack: CTP built upon LPL") — with the protocol under test
/// instantiated. Also the node's frame dispatcher and CTP event fan-out.
/// Every layer records its events (parent and code changes, kill/revive,
/// reboots here) into the network's TraceRouter.
class NodeStack final : public FrameHandler, public CtpListener {
 public:
  NodeStack(Simulator& sim, RadioMedium& medium, TraceRouter& router,
            NodeId id, const NetworkConfig& config, std::uint64_t seed);

  void start();

  // --- FrameHandler ---------------------------------------------------------
  AckDecision handle_frame(const Frame& frame, bool for_me,
                           double rssi_dbm) override;
  void on_duplicate_frame(const Frame& frame, bool for_me) override;

  // --- CtpListener (fans out to the protocols) -------------------------------
  void on_route_found() override;
  void on_parent_changed(NodeId old_parent, NodeId new_parent) override;
  void on_beacon_heard(NodeId from, const msg::CtpBeacon& beacon) override;

  // --- components -------------------------------------------------------------
  [[nodiscard]] NodeId id() const noexcept { return mac_.id(); }
  [[nodiscard]] LplMac& mac() noexcept { return mac_; }
  [[nodiscard]] CtpNode& ctp() noexcept { return ctp_; }
  [[nodiscard]] LinkEstimator& estimator() noexcept { return estimator_; }
  [[nodiscard]] TeleAdjusting* tele() noexcept { return tele_.get(); }
  [[nodiscard]] DripNode* drip() noexcept { return drip_.get(); }
  [[nodiscard]] RplNode* rpl() noexcept { return rpl_.get(); }
  [[nodiscard]] OrplNode* orpl() noexcept { return orpl_.get(); }

  /// Sink-side data delivery (set by the harness / applications).
  std::function<void(const msg::CtpData&)> on_sink_data;

  /// Sink-side piggybacked health reports, fed from the CTP deliver path
  /// before on_sink_data (set by Network::enable_health).
  std::function<void(NodeId, const msg::HealthReport&)> on_health_report;

  /// Turns on in-band health reporting: every locally-originated upward CTP
  /// frame is offered to a HealthReporter rate-limited to one report per
  /// `period` through the CTP origin hook. No-op on the sink (it never
  /// reports to itself). The energy model is used for the report's
  /// energy-spent estimate.
  void enable_health_reporting(SimTime period, const EnergyModel& energy);
  [[nodiscard]] HealthReporter* health_reporter() noexcept {
    return health_reporter_.get();
  }

  /// Samples this node's current local health (what the next report will
  /// quantize). Public for tests.
  [[nodiscard]] HealthSample sample_health();

  /// Starts this node's periodic data-collection traffic (CTP upward).
  void start_data_collection(SimTime ipi, std::uint64_t seed);

  /// Failure injection: silences this node permanently (radio off, no more
  /// protocol activity — a crashed/depleted mote).
  void kill();
  /// Brings a killed node back (reboot): the radio resumes; routing and
  /// addressing state repair through the normal protocol machinery.
  void revive();
  [[nodiscard]] bool killed() const noexcept { return mac_.stopped(); }

  /// The hard reboot: the node comes straight back up but every piece of
  /// volatile protocol state — CTP routes, link estimates, path code, child
  /// and neighbor code tables, forwarding state — is wiped. Neighbors (and
  /// the controller) still hold the node's *old* code, so commands sent in
  /// the repair window exercise the paper's stale-code delivery machinery.
  /// If data collection was running it resumes immediately (the application
  /// restarts with the firmware). The node's flight ring survives the reboot
  /// (noinit-RAM semantics) and is dumped with trigger "reboot".
  void reboot_with_state_loss();

  /// Attaches the invariant engine as this node's forwarding auditor and
  /// reset observer. Pass nullptr to detach.
  void set_invariant_engine(InvariantEngine* engine);

 private:
  LinkEstimator estimator_;
  LplMac mac_;
  CtpNode ctp_;
  std::unique_ptr<TeleAdjusting> tele_;
  std::unique_ptr<DripNode> drip_;
  std::unique_ptr<RplNode> rpl_;
  std::unique_ptr<OrplNode> orpl_;
  Timer data_timer_;
  Simulator* sim_;
  TraceRouter* router_;
  InvariantEngine* invariants_ = nullptr;
  std::unique_ptr<HealthReporter> health_reporter_;
  EnergyModel health_energy_{};
  // Remembered so a state-loss reboot restarts the application workload.
  SimTime data_ipi_ = 0;
  std::uint64_t data_seed_ = 0;
};

/// Harness-level switches for the in-band health telemetry subsystem
/// (docs/OBSERVABILITY.md). One knob, `period`, drives both sides: the
/// per-node attach rate limit and the sink model's staleness cutoff (two
/// periods).
struct NetworkHealthConfig {
  SimTime period = 60 * kSecond;  // telemetry period (attach rate limit)
  /// When non-empty, one snapshot line is written here every `period` —
  /// the telea_top input stream (claimed and truncated like every stream,
  /// see Network::enable_health).
  std::string snapshot_jsonl;
};

/// Harness-level switches for the timeline engine (docs/OBSERVABILITY.md,
/// "Timeline & alerts"): the sampling interval, the optional JSONL stream,
/// and the alert rules to evaluate each sample.
struct NetworkTimelineConfig {
  TimelineConfig timeline{};
  std::string jsonl;             // when non-empty, stream samples here
  std::vector<AlertRule> rules;  // evaluated every sample
};

/// A complete simulated deployment: radio substrate + one NodeStack per
/// node. This is the assembly layer every example and benchmark builds on.
class Network {
 public:
  explicit Network(NetworkConfig config);

  /// Releases this trial's artifact-path claims (see enable_health /
  /// enable_timeline): a later trial may reuse the paths once this network
  /// is gone.
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Boots every node (MAC duty cycling, CTP beaconing, protocol timers).
  void start();

  /// Advances virtual time.
  void run_for(SimTime duration) { sim_.run_until(sim_.now() + duration); }

  [[nodiscard]] Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] RadioMedium& medium() noexcept { return *medium_; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] NodeStack& node(NodeId id) noexcept { return *nodes_[id]; }
  [[nodiscard]] NodeStack& sink() noexcept { return *nodes_[kSinkNode]; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }
  [[nodiscard]] const LinkGainTable& gains() const noexcept { return *gains_; }

  /// The controller's global knowledge (paper Sec. III-C4 assumes the remote
  /// controller knows each node's local topology): picks the destination's
  /// neighbor with a maximally divergent path code over a good link.
  [[nodiscard]] std::optional<DetourSuggestion> suggest_detour(
      NodeId dest) const;

  /// Depth of `id` in the *code tree* (following position allocators), or -1
  /// when the node has no code / the chain is broken. Fig. 6(d)'s
  /// "downwards hop count".
  [[nodiscard]] int code_tree_depth(NodeId id) const;

  /// Depth of `id` in the live CTP tree (following current parents), or -1
  /// when the node has no route / the chain is broken. Unlike the hops field
  /// carried in beacons, this cannot go stale.
  [[nodiscard]] int ctp_tree_depth(NodeId id) const;

  /// Fraction of non-sink nodes holding a confirmed path code.
  [[nodiscard]] double code_coverage() const;

  /// Resets MAC accounting on every node (call after warm-up).
  void reset_accounting();

  /// Mean radio duty cycle across nodes since the last accounting reset.
  [[nodiscard]] double average_duty_cycle() const;

  /// Mean per-node energy (mJ) since the last accounting reset, under the
  /// TelosB energy model at this deployment's TX power.
  [[nodiscard]] double average_energy_mj() const;

  /// Mean per-node battery current (mA) since the last accounting reset.
  [[nodiscard]] double average_current_ma() const;

  /// This deployment's energy model (at the topology's TX power) — what
  /// the averages above and span attribution use.
  [[nodiscard]] EnergyModel energy_model() const noexcept;

  /// Span-attribution energy model: the deployment's currents/voltage plus
  /// the exact PHY airtime of one LPL control-frame copy, ready to hand to
  /// attribute_energy / telea_report.
  [[nodiscard]] SpanEnergyConfig span_energy_config() const;

  /// Command spans reconstructed from the live tracer (empty when tracing
  /// was never enabled).
  [[nodiscard]] std::vector<CommandSpan> command_spans() const;

  /// Starts periodic data-collection traffic on every non-sink node.
  void start_data_collection(SimTime ipi);

  /// Enables structured event tracing (control-packet copies and relay
  /// decisions, parent/code changes, failures) into an in-memory ring of
  /// `capacity` records. Other frames leave no record: per-copy traffic
  /// would evict the control records the span engine needs. Idempotent; the
  /// tracer lives as long as the network.
  Tracer& enable_tracing(std::size_t capacity = 1 << 16);
  [[nodiscard]] Tracer* tracer() noexcept { return router_.trace(); }

  /// The one path every layer records through: trace_event_sink's table
  /// decides whether the trace, the node's flight ring, or both keep an
  /// event, so the enable_* calls may run in any order.
  [[nodiscard]] TraceRouter& router() noexcept { return router_; }

  /// Turns on the runtime invariant engine (src/check): periodic structural
  /// checkpoints over every node's addressing/table/routing state plus
  /// event-driven claim/delivery audits fed by each forwarding plane.
  /// Violations land in the router (the trace, and a flight dump of the
  /// node), the logs, and collect_metrics
  /// (telea_invariant_violations_total). Idempotent — the config of the
  /// first call wins; the engine lives as long as the network.
  InvariantEngine& enable_invariants(const InvariantConfig& config = {});
  [[nodiscard]] InvariantEngine* invariants() noexcept {
    return invariants_.get();
  }

  /// One InvariantNodeView per node, snapshotting the protocol state the
  /// structural invariants range over. Public for tests and tools.
  [[nodiscard]] std::vector<InvariantNodeView> invariant_views() const;

  /// Turns on in-band health telemetry: every non-sink node piggybacks
  /// rate-limited 8-byte reports on its upward traffic, the sink assembles
  /// them into a staleness-aware NetworkHealthModel, and Re-Tele detour
  /// selection starts preferring fresh, healthy candidates. Idempotent —
  /// the config of the first call wins; the model lives as long as the
  /// network.
  ///
  /// Every JSONL stream a network writes (health snapshots here, timeline
  /// samples, flight dumps) follows one policy: the path is claimed in the
  /// process-wide ArtifactRegistry for this network's lifetime — if another
  /// live trial already owns it this throws ArtifactConflictError instead
  /// of silently interleaving two streams (docs/PARALLELISM.md) — then
  /// truncated, and each record is one line, flushed as it is written.
  NetworkHealthModel& enable_health(const NetworkHealthConfig& config = {});
  [[nodiscard]] NetworkHealthModel* health() noexcept { return health_.get(); }
  [[nodiscard]] const NetworkHealthConfig& health_config() const noexcept {
    return health_config_;
  }

  /// Writes one health snapshot line to the configured JSONL stream right
  /// now (also called every period by the snapshot timer). Writes nothing
  /// when the stream already holds the line for this instant, so an
  /// end-of-run call that lands on a timer tick adds no duplicate. False
  /// when health is off, no stream is open, or the write failed.
  bool append_health_snapshot();

  /// Turns on the timeline engine: collect_metrics is sampled every
  /// `config.timeline.interval` of simulated time into bounded series, the
  /// configured alert rules are evaluated each sample (firings land in the
  /// router and the metrics), and samples stream to `config.jsonl` when
  /// set. Idempotent — the config of the first call wins; the engine lives
  /// as long as the network. A non-empty jsonl path follows enable_health's
  /// stream policy.
  TimelineEngine& enable_timeline(const NetworkTimelineConfig& config = {});
  [[nodiscard]] TimelineEngine* timeline() noexcept { return timeline_.get(); }

  /// Arms a flight ring of TraceRouter::kRingCapacity records on every node
  /// (forward decisions, parent changes, backtracks, ack timeouts,
  /// reboots...). Rings are dumped — to the router's storage, the trace and
  /// one line of `jsonl` when set — on invariant violation, command give-up,
  /// alert firing, or node reboot. Idempotent — the first call wins. A
  /// non-empty jsonl path follows enable_health's stream policy.
  void enable_flight_recorders(const std::string& jsonl = {});
  [[nodiscard]] bool flight_recorders_enabled() const noexcept {
    return router_.rings_armed();
  }

  /// Snapshots `node`'s flight-recorder ring into a FlightDump tagged with
  /// `trigger`. No-op when recorders are off or the node id is bogus.
  void dump_flight(NodeId node, std::string trigger) {
    router_.dump(node, std::move(trigger));
  }
  [[nodiscard]] const std::vector<FlightDump>& flight_dumps() const noexcept {
    return router_.dumps();
  }

  /// Mirrors every component's counters into `registry`, scoped per node
  /// (label "node") and per subsystem (label "sub": phy / lpl / ctp /
  /// forwarding / teleadjusting / sim). Collector-style: call it again to
  /// refresh the same registry; values are absolute totals (the timeline
  /// engine turns them into per-sample deltas).
  void collect_metrics(MetricsRegistry& registry) const;

 private:
  /// Claims `path` in the ArtifactRegistry until this network is destroyed
  /// (throws ArtifactConflictError when a live network holds it).
  void claim_artifact(const std::string& path);

  /// One node's label sets for collect_metrics, built on the first scrape
  /// so later scrapes re-resolve instruments without rebuilding them.
  struct NodeLabels {
    MetricLabels lpl;
    MetricLabels ctp;
    std::array<MetricLabels, 4> data;      // telea_data_total, by kind
    std::array<MetricLabels, 10> control;  // telea_control_total, by kind
  };

  NetworkConfig config_;
  Simulator sim_;
  TraceRouter router_{sim_};
  std::unique_ptr<LinkGainTable> gains_;
  std::unique_ptr<CpmNoiseModel> noise_model_;
  std::unique_ptr<RadioMedium> medium_;
  std::unique_ptr<WifiInterferer> interferer_;
  std::vector<std::unique_ptr<NodeStack>> nodes_;
  std::unique_ptr<InvariantEngine> invariants_;
  std::unique_ptr<NetworkHealthModel> health_;
  NetworkHealthConfig health_config_;
  std::unique_ptr<Timer> health_timer_;
  LineWriter health_jsonl_;
  // Sim time of the last snapshot line written; none before the first.
  std::optional<SimTime> last_health_snapshot_;
  std::unique_ptr<TimelineEngine> timeline_;
  // Artifact paths this network holds in the ArtifactRegistry.
  std::vector<std::string> artifact_claims_;
  mutable std::vector<NodeLabels> node_labels_;  // collect_metrics cache
};

}  // namespace telea
