#include "harness/controller.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace telea {

namespace {
constexpr SimTime kAckTimeout = 25 * kSecond;  // first retry delay
constexpr double kBackoffFactor = 2.0;         // exponential retry backoff
constexpr SimTime kMaxBackoff = 2 * kMinute;
constexpr double kJitter = 0.25;  // ± fraction of each retry delay
constexpr unsigned kMaxRetries = 4;
constexpr unsigned kEscalateAfter = 2;  // plain retries before the detour
}  // namespace

Controller::Controller(Network& net, ControllerRetryConfig retry)
    : net_(&net),
      retry_(retry),
      rng_(net.config().seed, /*stream=*/0xC0117ULL) {
  net.sink().on_sink_data = [this](const msg::CtpData& data) {
    on_sink_data(data);
  };
  if (TeleAdjusting* tele = net.sink().tele()) {
    tele->on_e2e_ack = [this](std::uint32_t seqno, NodeId) { on_ack(seqno); };
    tele->on_delivery_failed = [this](std::uint32_t seqno) {
      on_failed(seqno);
    };
  }
}

void Controller::on_sink_data(const msg::CtpData& data) {
  if (data.is_control_ack) return;
  ++arrivals_[data.origin];
  if (data.has_code_report && !data.reported_code.empty()) {
    reported_[data.origin] = data.reported_code;
  }
}

std::optional<PathCode> Controller::reported_code(NodeId node) const {
  const auto it = reported_.find(node);
  if (it == reported_.end()) return std::nullopt;
  return it->second;
}

void Controller::begin_window() { window_start_ = arrivals_; }

std::vector<NodeId> Controller::quiet_nodes(unsigned expected,
                                            unsigned floor) const {
  std::vector<NodeId> out;
  for (const auto& [node, before] : window_start_) {
    const auto now_it = arrivals_.find(node);
    const unsigned delta =
        (now_it != arrivals_.end() ? now_it->second : 0) - before;
    if (before >= expected && delta < floor) out.push_back(node);
  }
  return out;
}

unsigned Controller::reports_from(NodeId node) const {
  const auto it = arrivals_.find(node);
  return it == arrivals_.end() ? 0 : it->second;
}

std::optional<PathCode> Controller::address_of(NodeId node) const {
  if (use_reported_codes_) {
    return reported_code(node);
  }
  const TeleAdjusting* dest_tele =
      node < net_->size() ? net_->node(node).tele() : nullptr;
  if (dest_tele == nullptr || !dest_tele->addressing().has_code()) {
    return std::nullopt;
  }
  return dest_tele->addressing().code();
}

std::optional<std::uint32_t> Controller::send_command(NodeId node,
                                                      std::uint16_t command) {
  TeleAdjusting* sink_tele = net_->sink().tele();
  const bool dest_exists =
      node < net_->size() && net_->node(node).tele() != nullptr;
  const auto code = address_of(node);
  if (sink_tele == nullptr || !dest_exists || !code.has_value()) {
    if (sink_tele == nullptr || !dest_exists) {
      TELEA_WARN("harness.ctl")
          << "cannot command node " << node << ": no TeleAdjusting instance";
    } else {
      TELEA_DEBUG("harness.ctl") << "node " << node << " has no path code yet";
    }
    ++no_code_;
    const SimTime now = net_->sim().now();
    net_->router().record(kSinkNode, TraceEvent::kCommandResolve, 0, node);
    if (on_command_resolved) {
      CommandResolution res;
      res.dest = node;
      res.command = command;
      res.outcome = CommandOutcome::kNoCode;
      res.issued_at = now;
      res.resolved_at = now;
      on_command_resolved(res);
    }
    return std::nullopt;
  }

  const auto seq = sink_tele->send_control(node, *code, command);
  if (!seq.has_value()) return std::nullopt;
  if (!retry_.enabled) return seq;
  // Conservation audit: the engine now expects exactly one resolution.
  if (InvariantEngine* inv = net_->invariants()) {
    inv->note_command_issued(*seq);
  }

  const std::uint64_t id = next_cmd_id_++;
  PendingCommand& cmd = pending_[id];
  cmd.dest = node;
  cmd.command = command;
  cmd.code = *code;
  cmd.first_seqno = *seq;
  cmd.last_seqno = *seq;
  cmd.issued_at = net_->sim().now();
  cmd.backoff = kAckTimeout;
  seqno_to_cmd_[*seq] = id;
  arm_timeout(id, cmd.backoff);
  return seq;
}

void Controller::arm_timeout(std::uint64_t id, SimTime delay) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingCommand& cmd = it->second;
  net_->sim().cancel(cmd.timeout);
  // De-synchronize concurrent retries: scale by 1 ± kJitter, deterministically.
  const double scale = rng_.uniform_real(1.0 - kJitter, 1.0 + kJitter);
  const auto jittered =
      static_cast<SimTime>(static_cast<double>(delay) * scale);
  cmd.timeout = net_->sim().schedule_in(
      jittered, [this, id] { on_timeout(id); }, "controller.retry");
}

void Controller::on_timeout(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingCommand& cmd = it->second;
  const unsigned retries_done = cmd.attempts - 1;
  if (retries_done >= kMaxRetries) {
    resolve(id, CommandOutcome::kGaveUp);
    return;
  }

  TeleAdjusting* sink_tele = net_->sink().tele();
  if (sink_tele == nullptr) {
    resolve(id, CommandOutcome::kGaveUp);
    return;
  }
  // A fresher report may have arrived since the last attempt (e.g. the
  // destination rebooted and re-announced); prefer it over the stored code.
  if (const auto code = address_of(cmd.dest); code.has_value()) {
    cmd.code = *code;
  }
  // A fresh attempt after backoff re-probes relays the previous attempt
  // marked unreachable — the same rule Forwarding applies on its own origin
  // retry (Sec. III-C3). Without this the sink can refuse to transmit until
  // the marks expire, which takes a routing beacon that may be minutes away.
  auto& neighbors = sink_tele->addressing().neighbors();
  for (const auto& entry : neighbors.entries()) {
    neighbors.mark_reachable(entry.neighbor);
  }
  ++retries_;

  // Once the plain-retry threshold is reached, alternate the detour with
  // plain re-sends: the suggested waypoint can itself be a dead end (or the
  // very fault that cleared), so neither strategy may monopolize the budget.
  const unsigned plain_retries_done = retries_done - cmd.escalations;
  bool escalated = false;
  if (plain_retries_done >= kEscalateAfter && !cmd.last_escalated) {
    if (const auto detour = net_->suggest_detour(cmd.dest);
        detour.has_value() && detour->via != kInvalidNode) {
      TELEA_INFO("harness.ctl")
          << "t=" << to_seconds(net_->sim().now()) << "s command to node "
          << cmd.dest << " (seq " << cmd.last_seqno
          << ") escalating to Re-Tele detour via " << detour->via;
      net_->router().record(kSinkNode, TraceEvent::kCommandRetry,
                            cmd.last_seqno, cmd.dest, TraceReason::kEscalated);
      sink_tele->forwarding().send_control_detour(cmd.dest, cmd.code,
                                                  detour->via,
                                                  detour->via_code,
                                                  cmd.command, cmd.last_seqno);
      ++cmd.escalations;
      ++escalations_;
      ++cmd.attempts;
      escalated = true;
    }
  }
  if (!escalated) {
    if (const auto seq = sink_tele->send_control(cmd.dest, cmd.code,
                                                 cmd.command);
        seq.has_value()) {
      TELEA_INFO("harness.ctl")
          << "t=" << to_seconds(net_->sim().now()) << "s command to node "
          << cmd.dest << " unacked; retry " << retries_done + 1 << "/"
          << kMaxRetries << " as seq " << *seq;
      net_->router().record(kSinkNode, TraceEvent::kCommandRetry, *seq,
                            cmd.dest, TraceReason::kAckTimeout);
      seqno_to_cmd_[*seq] = id;
      cmd.last_seqno = *seq;
      ++cmd.attempts;
    } else {
      // Even an unsendable attempt (sink mid-reconfiguration, no viable
      // first relay) consumes budget: the lifecycle must terminate.
      ++cmd.attempts;
    }
  }
  cmd.last_escalated = escalated;

  const double next = static_cast<double>(cmd.backoff) * kBackoffFactor;
  cmd.backoff = std::min<SimTime>(static_cast<SimTime>(next),
                                  kMaxBackoff);
  arm_timeout(id, cmd.backoff);
}

void Controller::on_ack(std::uint32_t seqno) {
  acked_.push_back(seqno);
  const auto it = seqno_to_cmd_.find(seqno);
  if (it == seqno_to_cmd_.end()) return;
  resolve(it->second, CommandOutcome::kAcked);
}

void Controller::on_failed(std::uint32_t seqno) {
  // The forwarding plane exhausted its own recovery (backtracking + one
  // detour) for this attempt. Don't wait out the rest of the ack timeout —
  // retry shortly (not synchronously: this callback fires from inside the
  // forwarding machinery).
  const auto it = seqno_to_cmd_.find(seqno);
  if (it == seqno_to_cmd_.end()) return;
  const auto cmd_it = pending_.find(it->second);
  if (cmd_it == pending_.end()) return;
  if (cmd_it->second.last_seqno != seqno) return;  // an old attempt's corpse
  TELEA_DEBUG("harness.ctl") << "delivery failed for seq " << seqno
                             << "; starting backoff now";
  // Start the *current* backoff from the failure verdict rather than from
  // the eventual ack timeout. Never shorter: retrying a known-dead path
  // within seconds would burn the whole budget before the network heals.
  arm_timeout(it->second, cmd_it->second.backoff);
}

void Controller::resolve(std::uint64_t id, CommandOutcome outcome) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingCommand& cmd = it->second;
  net_->sim().cancel(cmd.timeout);

  CommandResolution res;
  res.dest = cmd.dest;
  res.command = cmd.command;
  res.first_seqno = cmd.first_seqno;
  res.last_seqno = cmd.last_seqno;
  res.outcome = outcome;
  res.attempts = cmd.attempts;
  res.escalations = cmd.escalations;
  res.issued_at = cmd.issued_at;
  res.resolved_at = net_->sim().now();

  if (outcome == CommandOutcome::kAcked) {
    ++resolved_acked_;
  } else if (outcome == CommandOutcome::kGaveUp) {
    ++gave_up_;
    TELEA_WARN("harness.ctl")
        << "t=" << to_seconds(res.resolved_at) << "s giving up on command to "
        << "node " << res.dest << " after " << res.attempts << " attempts ("
        << res.escalations << " escalated)";
    // Post-mortem: capture the destination's recent local decisions while
    // they are still in its ring — the give-up is exactly when an operator
    // would pull the node's log.
    net_->dump_flight(res.dest, "command_give_up");
  }
  net_->router().record(kSinkNode, TraceEvent::kCommandResolve,
                        res.last_seqno, res.dest,
                        outcome == CommandOutcome::kGaveUp
                            ? TraceReason::kBudgetExhausted
                            : TraceReason::kNone);

  for (auto sit = seqno_to_cmd_.begin(); sit != seqno_to_cmd_.end();) {
    sit = sit->second == id ? seqno_to_cmd_.erase(sit) : std::next(sit);
  }
  pending_.erase(it);
  if (InvariantEngine* inv = net_->invariants()) {
    inv->note_command_resolved(res.first_seqno);
  }
  if (on_command_resolved) on_command_resolved(res);
}

void Controller::collect_metrics(MetricsRegistry& registry) const {
  registry.describe("telea_controller_retries_total",
                    "Command re-sends after an ack timeout");
  registry.describe("telea_controller_escalations_total",
                    "Retries escalated to the Re-Tele detour path");
  registry.describe("telea_controller_gave_up_total",
                    "Commands abandoned after the retry budget");
  registry.describe("telea_controller_acked_total",
                    "Tracked commands resolved by an e2e ack");
  registry.describe("telea_controller_no_code_total",
                    "Commands rejected for lack of an addressable path code");
  registry.describe("telea_controller_pending",
                    "Commands currently awaiting an ack");
  registry.counter("telea_controller_retries_total").set_total(retries_);
  registry.counter("telea_controller_escalations_total")
      .set_total(escalations_);
  registry.counter("telea_controller_gave_up_total").set_total(gave_up_);
  registry.counter("telea_controller_acked_total").set_total(resolved_acked_);
  registry.counter("telea_controller_no_code_total").set_total(no_code_);
  registry.gauge("telea_controller_pending")
      .set(static_cast<double>(pending_.size()));
}

}  // namespace telea
