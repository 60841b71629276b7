#pragma once

#include <cstdint>
#include <string>

#include "harness/controller.hpp"
#include "harness/network.hpp"

namespace telea {

/// A randomized robustness soak: a connected random deployment running
/// collection traffic while the controller issues periodic commands, under a
/// mixed fault schedule (node churn, parent-link blackouts, a noise burst,
/// one state-losing reboot) built *after* warm-up from the live CTP tree —
/// so the blackouts sever links the routing actually uses.
struct ChurnSoakConfig {
  std::size_t nodes = 24;
  double side_m = 90.0;
  std::uint64_t seed = 1;

  SimTime warmup = 12 * kMinute;
  SimTime duration = 30 * kMinute;   // command/fault window after warm-up
  SimTime drain = 6 * kMinute;       // long enough for the slowest lifecycle
  SimTime command_interval = 30 * kSecond;
  SimTime data_ipi = 1 * kMinute;

  /// Reliable delivery on/off — the soak's A/B knob. With false the
  /// controller is fire-and-forget (the seed repo's behavior).
  bool reliable = true;
  ControllerRetryConfig retry{};

  // --- fault mix ------------------------------------------------------------
  unsigned outages = 6;
  SimTime outage_downtime = 2 * kMinute;
  unsigned link_blackouts = 3;
  SimTime blackout_duration = 4 * kMinute;
  bool noise_burst = true;
  double noise_dbm = -75.0;
  SimTime noise_duration = 90 * kSecond;
  bool state_loss_reboot = true;

  /// Run the soak under the runtime invariant engine (src/check). The soak
  /// must come out clean: any violation means fault handling corrupted
  /// protocol state rather than merely losing packets.
  bool invariants = true;

  /// Trace the run and reconstruct command spans (src/stats/spans.*) at the
  /// end: every delivered span's segment decomposition must reconcile with
  /// its end-to-end latency even under churn — the observability analogue of
  /// the invariant engine's "faults lose packets, never corrupt state".
  bool spans = true;

  /// Piggybacked health telemetry (src/stats/health.*): the sink model's
  /// coverage/staleness verdict under the same fault mix.
  bool health = false;
  SimTime health_period = 60 * kSecond;

  /// Timeline engine over the soak (docs/OBSERVABILITY.md, "Timeline &
  /// alerts"): sample the full metric set every `timeline_interval`,
  /// evaluate `timeline_rules` each sample, and stream samples + alert
  /// transitions to `timeline_jsonl` when set. Flight recorders are armed
  /// alongside so every firing captures node-level context; the dumps
  /// stream to `flight_jsonl` when set. The sampling overhead is reported
  /// per sample per series (timeline_ns_per_series_sample below), a unit
  /// that does not move with the simulator's speed, and as a share of the
  /// soak's wall-clock, which does not move with the host's; the soak test
  /// gates the two together.
  bool timeline = false;
  SimTime timeline_interval = 10 * kSecond;
  std::vector<AlertRule> timeline_rules;
  std::string timeline_jsonl;
  std::string flight_jsonl;
};

struct ChurnSoakResult {
  unsigned commands = 0;     // commands issued (addressable destinations)
  unsigned acked = 0;        // e2e-acknowledged (resolved or raw acks)
  unsigned gave_up = 0;      // reliable mode: budget exhausted
  unsigned no_code = 0;      // issue attempts rejected for lack of a code
  unsigned unresolved = 0;   // still pending when the run ended
  std::uint64_t retries = 0;
  std::uint64_t escalations = 0;
  unsigned faults_injected = 0;  // logical faults (an outage counts once)
  double tx_per_command = 0.0;   // control-plane LPL send ops / command
  // Invariant engine verdict (cfg.invariants): violations must stay 0.
  std::uint64_t invariant_violations = 0;
  std::uint64_t invariant_checkpoints = 0;
  std::uint64_t claims_audited = 0;
  // Span engine verdict (cfg.spans): reconcile failures must stay 0.
  std::size_t command_spans = 0;
  std::size_t span_reconcile_failures = 0;
  // Health model verdict (cfg.health), read at end of run.
  double health_coverage = 0.0;      // fresh / expected
  std::size_t health_tracked = 0;    // nodes ever heard from
  std::uint64_t health_reports = 0;  // reports the sink accepted or rejected
  std::uint64_t health_bytes = 0;    // piggyback bytes that reached the sink
  // Timeline engine verdict (cfg.timeline), read at end of run.
  std::uint64_t timeline_samples = 0;
  std::size_t timeline_series = 0;
  std::uint64_t alerts_fired = 0;
  std::uint64_t alerts_resolved = 0;
  std::uint64_t counter_resets = 0;     // clamped deltas (reboots observed)
  double timeline_wall_fraction = 0.0;  // sampling wall / soak wall
  // Sampling wall / (samples x series), in nanoseconds.
  double timeline_ns_per_series_sample = 0.0;

  [[nodiscard]] double delivery_ratio() const noexcept {
    return commands == 0
               ? 0.0
               : static_cast<double>(acked) / static_cast<double>(commands);
  }
};

/// Runs one soak end to end. Deterministic in `cfg` (including cfg.seed).
[[nodiscard]] ChurnSoakResult run_churn_soak(const ChurnSoakConfig& cfg);

/// The A/B comparison both the churn bench and the soak tests report: the
/// same scenario (same seed, same fault schedule) with the reliable
/// controller and fire-and-forget. The two arms are independent trials, so
/// they run concurrently on the trial runner (docs/PARALLELISM.md); any
/// timeline/flight JSONL paths in `cfg` are trial-suffixed per arm
/// (".trial0" = reliable, ".trial1" = fire-and-forget) so the arms never
/// share a stream. Results are identical for any `jobs` (0 = resolve_jobs).
struct ChurnSoakPair {
  ChurnSoakResult with_retries;
  ChurnSoakResult without;
};
[[nodiscard]] ChurnSoakPair run_churn_soak_pair(const ChurnSoakConfig& cfg,
                                                unsigned jobs = 0);

/// The robustness_churn artifact: one JSON object comparing the reliable and
/// fire-and-forget arms of the same scenario. Parseable by JsonValue::parse.
[[nodiscard]] std::string churn_soak_json(const ChurnSoakConfig& cfg,
                                          const ChurnSoakResult& with_retries,
                                          const ChurnSoakResult& without);

/// Writes churn_soak_json to `path`. Returns false on I/O failure.
[[nodiscard]] bool write_churn_soak_json(const std::string& path,
                                         const ChurnSoakConfig& cfg,
                                         const ChurnSoakResult& with_retries,
                                         const ChurnSoakResult& without);

}  // namespace telea
