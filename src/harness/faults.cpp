#include "harness/faults.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace telea {

FaultPlan& FaultPlan::outage_with_state_loss(SimTime at, SimTime downtime,
                                             NodeId node) {
  kill_at(at, node);
  events_.push_back(
      Event{at + downtime, node, Action::kRebootStateLoss, kInvalidNode, 0.0});
  return *this;
}

FaultPlan& FaultPlan::reboot_with_state_loss_at(SimTime at, NodeId node) {
  events_.push_back(Event{at, node, Action::kRebootStateLoss, kInvalidNode, 0.0});
  return *this;
}

FaultPlan& FaultPlan::degrade_link(SimTime at, SimTime duration, NodeId a,
                                   NodeId b, double extra_loss_db) {
  events_.push_back(Event{at, a, Action::kLinkLoss, b, extra_loss_db});
  events_.push_back(
      Event{at + duration, a, Action::kLinkLoss, b, -extra_loss_db});
  return *this;
}

FaultPlan& FaultPlan::blackout_link(SimTime at, SimTime duration, NodeId a,
                                    NodeId b) {
  return degrade_link(at, duration, a, b, RadioMedium::kBlackoutLossDb);
}

FaultPlan& FaultPlan::noise_burst(SimTime at, SimTime duration,
                                  const std::vector<NodeId>& region,
                                  double dbm) {
  for (const NodeId node : region) {
    events_.push_back(Event{at, node, Action::kNoiseOn, kInvalidNode, dbm});
    events_.push_back(
        Event{at + duration, node, Action::kNoiseOff, kInvalidNode, 0.0});
  }
  return *this;
}

FaultPlan& FaultPlan::corrupt_path_code(SimTime at, NodeId node,
                                        std::size_t bit) {
  events_.push_back(Event{at, node, Action::kCorruptCode, kInvalidNode,
                          static_cast<double>(bit)});
  return *this;
}

FaultPlan& FaultPlan::corrupt_child_position(SimTime at, NodeId node,
                                             std::size_t slot,
                                             std::uint32_t position) {
  events_.push_back(Event{at, node, Action::kCorruptChildPos,
                          static_cast<NodeId>(slot),
                          static_cast<double>(position)});
  return *this;
}

FaultPlan& FaultPlan::partition(SimTime at, SimTime duration,
                                const std::vector<NodeId>& island,
                                std::size_t node_count) {
  for (NodeId outside = 0; outside < static_cast<NodeId>(node_count);
       ++outside) {
    if (std::find(island.begin(), island.end(), outside) != island.end()) {
      continue;
    }
    for (const NodeId inside : island) {
      blackout_link(at, duration, inside, outside);
    }
  }
  return *this;
}

FaultPlan FaultPlan::random_churn(std::size_t node_count, std::size_t count,
                                  SimTime start, SimTime end, SimTime downtime,
                                  std::uint64_t seed) {
  FaultPlan plan;
  if (node_count <= 1 || end <= start) return plan;
  Pcg32 rng(seed, /*stream=*/0xFA17ULL);
  // Per-node outage windows already placed. A same-node overlap would be
  // nonsense churn: the first outage's revive resurrects the node in the
  // middle of the second outage, so the second never actually happens.
  std::vector<std::pair<NodeId, std::pair<SimTime, SimTime>>> busy;
  for (std::size_t i = 0; i < count; ++i) {
    NodeId node = kInvalidNode;
    SimTime at = start;
    bool placed = false;
    for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
      node = static_cast<NodeId>(
          1 + rng.uniform(static_cast<std::uint32_t>(node_count - 1)));
      at = start + rng.uniform(static_cast<std::uint32_t>(
                       std::min<SimTime>(end - start, 0xFFFFFFFFull)));
      placed = true;
      for (const auto& [busy_node, window] : busy) {
        if (busy_node == node && at <= window.second &&
            window.first <= at + downtime) {
          placed = false;
          break;
        }
      }
    }
    if (!placed) {
      TELEA_WARN("harness.faults")
          << "random_churn: no overlap-free slot for outage " << i
          << " after 64 draws; keeping an overlapping placement";
    }
    busy.emplace_back(node, std::make_pair(at, at + downtime));
    plan.outage(at, downtime, node);
  }
  return plan;
}

void FaultPlan::apply(Network& net) const {
  TELEA_INFO("harness.faults") << "applying fault plan: " << events_.size()
                               << " events";
  // Schedule in time order so a clamped-to-now batch still fires in the
  // order the plan intended (kill before its own revive, on before off).
  std::vector<Event> ordered = events_;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  const SimTime now = net.sim().now();
  for (Event event : ordered) {
    if (event.node >= net.size()) {
      TELEA_WARN("harness.faults")
          << "skipping event for out-of-range node " << event.node;
      continue;
    }
    if (event.action == Action::kLinkLoss && event.peer >= net.size()) {
      TELEA_WARN("harness.faults")
          << "skipping link event for out-of-range peer " << event.peer;
      continue;
    }
    if (event.at < now) {
      TELEA_WARN("harness.faults")
          << "event at t=" << to_seconds(event.at) << "s is in the past "
          << "(now t=" << to_seconds(now) << "s); clamping to now";
      event.at = now;
    }
    net.sim().schedule_at(event.at, [&net, event] {
      const SimTime when = net.sim().now();
      switch (event.action) {
        case Action::kKill:
          TELEA_INFO("harness.faults")
              << "t=" << to_seconds(when) << "s kill node " << event.node;
          net.node(event.node).kill();
          break;
        case Action::kRevive:
          TELEA_INFO("harness.faults")
              << "t=" << to_seconds(when) << "s revive node " << event.node;
          net.node(event.node).revive();
          break;
        case Action::kRebootStateLoss:
          TELEA_INFO("harness.faults")
              << "t=" << to_seconds(when) << "s reboot node " << event.node
              << " with state loss";
          net.node(event.node).reboot_with_state_loss();
          break;
        case Action::kLinkLoss:
          TELEA_INFO("harness.faults")
              << "t=" << to_seconds(when) << "s link " << event.node << "<->"
              << event.peer << " " << (event.value >= 0 ? "+" : "")
              << event.value << " dB loss";
          net.medium().add_link_loss_db(event.node, event.peer, event.value);
          net.router().record(
              event.node, TraceEvent::kLinkFault,
              static_cast<std::uint64_t>(std::llround(std::abs(event.value))),
              event.peer);
          break;
        case Action::kNoiseOn:
          TELEA_INFO("harness.faults")
              << "t=" << to_seconds(when) << "s noise burst at node "
              << event.node << ": " << event.value << " dBm";
          net.medium().set_extra_noise_dbm(event.node, event.value);
          net.router().record(
              event.node, TraceEvent::kNoiseBurst,
              static_cast<std::uint64_t>(std::llround(std::abs(event.value))));
          break;
        case Action::kNoiseOff:
          TELEA_INFO("harness.faults")
              << "t=" << to_seconds(when) << "s noise cleared at node "
              << event.node;
          net.medium().clear_extra_noise(event.node);
          break;
        case Action::kCorruptCode:
          if (TeleAdjusting* tele = net.node(event.node).tele()) {
            const auto bit = static_cast<std::size_t>(event.value);
            if (tele->addressing().corrupt_code_bit(bit)) {
              TELEA_INFO("harness.faults")
                  << "t=" << to_seconds(when) << "s corrupt code bit " << bit
                  << " at node " << event.node;
            }
          }
          break;
        case Action::kCorruptChildPos:
          if (TeleAdjusting* tele = net.node(event.node).tele()) {
            const auto pos = static_cast<std::uint32_t>(event.value);
            if (tele->addressing().corrupt_child_position(event.peer, pos)) {
              TELEA_INFO("harness.faults")
                  << "t=" << to_seconds(when) << "s corrupt child slot "
                  << event.peer << " position to " << pos << " at node "
                  << event.node;
            }
          }
          break;
      }
    }, "fault.inject");
  }
}

}  // namespace telea
