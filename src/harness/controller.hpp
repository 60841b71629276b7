#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "harness/network.hpp"
#include "stats/metrics.hpp"
#include "util/rng.hpp"

namespace telea {

/// Terminal state of a tracked command's lifecycle.
enum class CommandOutcome : std::uint8_t {
  kAcked,   // end-to-end acknowledgement arrived at the sink
  kGaveUp,  // retry budget exhausted without an ack
  kNoCode,  // destination was never addressable (no path code known)
};

/// Reliable-delivery policy for Controller::send_command. With `enabled` the
/// controller tracks every command until an e2e ack arrives: unacked commands
/// are re-sent after 25 s with exponential backoff (factor 2, capped at
/// 2 min, de-synchronized by ±25 %), and after 2 plain retries the re-send
/// goes through the Re-Tele redirect path (Sec. III-C4) instead of the plain
/// encoded path. After 4 re-sends the command is abandoned (kGaveUp).
struct ControllerRetryConfig {
  bool enabled = true;
};

/// Everything known about a command when its lifecycle closes.
struct CommandResolution {
  NodeId dest = kInvalidNode;
  std::uint16_t command = 0;
  std::uint32_t first_seqno = 0;  // seqno of the initial transmission
  std::uint32_t last_seqno = 0;   // seqno of the attempt that closed it
  CommandOutcome outcome = CommandOutcome::kGaveUp;
  unsigned attempts = 0;  // total sends (initial + retries)
  unsigned escalations = 0;
  SimTime issued_at = 0;
  SimTime resolved_at = 0;
};

/// The remote controller of the paper's Fig. 1: the entity behind the sink
/// that watches collected data, detects anomalies, and issues remote-control
/// commands addressed by path code. In a deployment it lives in the data
/// center and learns codes/topology from reports; here it reads them from
/// the simulated network, which is exactly the knowledge the paper grants it
/// ("the local topology information of each node is necessary and likely
/// known", Sec. III-C4).
///
/// Commands are tracked through a full lifecycle (see ControllerRetryConfig):
/// pending until acked, re-sent on ack timeout, escalated to a Re-Tele detour
/// when plain retries keep failing, and finally resolved as kAcked / kGaveUp
/// through `on_command_resolved`.
class Controller {
 public:
  explicit Controller(Network& net, ControllerRetryConfig retry = {});

  // --- data-plane monitoring (anomaly detection) -------------------------
  /// Feed every CtpData delivered at the sink.
  void on_sink_data(const msg::CtpData& data);

  /// Starts an observation window for quiet-node detection.
  void begin_window();

  /// Nodes that had reported at least `expected` packets before the window
  /// but fewer than `floor` inside it — the "observed network anomaly" the
  /// paper's remote control exists to fix (Sec. II).
  [[nodiscard]] std::vector<NodeId> quiet_nodes(unsigned expected,
                                                unsigned floor) const;

  [[nodiscard]] unsigned reports_from(NodeId node) const;

  /// The destination's path code as last *reported in-band* (piggybacked on
  /// its collection traffic), or nullopt if it never reported. This is the
  /// knowledge a real controller has; reading codes out of the simulation
  /// objects is the documented substitution (DESIGN.md §4).
  [[nodiscard]] std::optional<PathCode> reported_code(NodeId node) const;

  /// When true, send_command addresses destinations by their *reported*
  /// codes only (fails for nodes that never reported) instead of reading
  /// the live addressing state. Default false.
  void set_use_reported_codes(bool use) { use_reported_codes_ = use; }

  // --- control plane -------------------------------------------------------
  /// Sends `command` to `node`, addressed by its current reported path code,
  /// and (when retries are enabled) tracks it until it resolves. Returns the
  /// control seqno of the first attempt, or nullopt when the node has no
  /// code or the network runs a non-TeleAdjusting protocol (in which case
  /// on_command_resolved fires immediately with kNoCode).
  std::optional<std::uint32_t> send_command(NodeId node,
                                            std::uint16_t command);

  /// Fires exactly once per tracked command, when its lifecycle closes.
  std::function<void(const CommandResolution&)> on_command_resolved;

  /// Acknowledged command seqnos seen so far (from e2e acks at the sink).
  /// A retried command appears under whichever attempt's seqno got acked.
  [[nodiscard]] const std::vector<std::uint32_t>& acked() const noexcept {
    return acked_;
  }

  // --- lifecycle introspection ---------------------------------------------
  [[nodiscard]] std::size_t pending_commands() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::uint64_t escalations() const noexcept {
    return escalations_;
  }
  [[nodiscard]] std::uint64_t gave_up() const noexcept { return gave_up_; }
  [[nodiscard]] std::uint64_t resolved_acked() const noexcept {
    return resolved_acked_;
  }
  [[nodiscard]] std::uint64_t no_code() const noexcept { return no_code_; }

  /// Mirrors the controller's lifecycle counters into `registry`
  /// (telea_controller_* series; collector-style, call again to refresh).
  void collect_metrics(MetricsRegistry& registry) const;

 private:
  struct PendingCommand {
    NodeId dest = kInvalidNode;
    std::uint16_t command = 0;
    PathCode code;  // the code the last attempt was addressed with
    std::uint32_t first_seqno = 0;
    std::uint32_t last_seqno = 0;
    unsigned attempts = 1;
    unsigned escalations = 0;
    bool last_escalated = false;
    SimTime issued_at = 0;
    SimTime backoff = 0;  // timeout armed for the current attempt
    EventHandle timeout;
  };

  /// Resolves the code to address `node` with, honoring the reported-codes
  /// mode. nullopt when the node is not addressable.
  [[nodiscard]] std::optional<PathCode> address_of(NodeId node) const;

  void arm_timeout(std::uint64_t id, SimTime delay);
  void on_timeout(std::uint64_t id);
  void on_ack(std::uint32_t seqno);
  void on_failed(std::uint32_t seqno);
  void resolve(std::uint64_t id, CommandOutcome outcome);

  Network* net_;
  ControllerRetryConfig retry_;
  Pcg32 rng_;
  bool use_reported_codes_ = false;
  std::map<NodeId, PathCode> reported_;
  std::map<NodeId, unsigned> arrivals_;
  std::map<NodeId, unsigned> window_start_;
  std::vector<std::uint32_t> acked_;

  std::map<std::uint64_t, PendingCommand> pending_;
  std::map<std::uint32_t, std::uint64_t> seqno_to_cmd_;
  std::uint64_t next_cmd_id_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t escalations_ = 0;
  std::uint64_t gave_up_ = 0;
  std::uint64_t resolved_acked_ = 0;
  std::uint64_t no_code_ = 0;
};

}  // namespace telea
