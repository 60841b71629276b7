#include "check/invariants.hpp"

#include <algorithm>
#include <sstream>

#include "core/addressing.hpp"
#include "util/enum_name.hpp"
#include "util/logging.hpp"

namespace telea {

const char* invariant_rule_name(InvariantRule r) noexcept {
  switch (r) {
    case InvariantRule::kAddrParentPrefix: return "addr.parent_prefix";
    case InvariantRule::kAddrSiblingUnique: return "addr.sibling_unique";
    case InvariantRule::kAddrCodeBounds: return "addr.code_bounds";
    case InvariantRule::kFwdClaimJustified: return "fwd.claim_justified";
    case InvariantRule::kFwdUniqueDelivery: return "fwd.unique_delivery";
    case InvariantRule::kFwdVerdictConservation:
      return "fwd.verdict_conservation";
    case InvariantRule::kTblLeaseMonotone: return "tbl.lease_monotone";
    case InvariantRule::kCtpNoLoop: return "ctp.no_loop";
  }
  return "?";
}

const char* invariant_rule_section(InvariantRule r) noexcept {
  switch (r) {
    case InvariantRule::kAddrParentPrefix: return "Sec. III-B1/B4, Alg. 2";
    case InvariantRule::kAddrSiblingUnique: return "Sec. III-B2, Alg. 1-2";
    case InvariantRule::kAddrCodeBounds: return "Sec. III-B1/B3";
    case InvariantRule::kFwdClaimJustified: return "Sec. III-C1/C2";
    case InvariantRule::kFwdUniqueDelivery: return "Sec. III-C5";
    case InvariantRule::kFwdVerdictConservation: return "Sec. III-C3/C5";
    case InvariantRule::kTblLeaseMonotone: return "Sec. III-C3";
    case InvariantRule::kCtpNoLoop: return "CTP (Gnawali et al.)";
  }
  return "?";
}

std::optional<InvariantRule> invariant_rule_from_name(
    std::string_view name) noexcept {
  return enum_from_name(name, invariant_rule_name);
}

namespace {

std::string format_violation(const InvariantViolation& v) {
  std::ostringstream out;
  out << "invariant " << invariant_rule_name(v.rule) << " ("
      << invariant_rule_section(v.rule) << ") violated at node " << v.node
      << " t=" << to_seconds(v.time) << "s: " << v.detail;
  return out.str();
}

}  // namespace

InvariantViolationError::InvariantViolationError(const InvariantViolation& v)
    : std::runtime_error(format_violation(v)), violation_(v) {}

InvariantEngine::InvariantEngine(Simulator& sim, TraceRouter& router,
                                 const InvariantConfig& config)
    : sim_(&sim), router_(&router), config_(config), checkpoint_timer_(sim) {
  checkpoint_timer_.set_tag("check.invariants");
  checkpoint_timer_.set_callback([this] {
    if (provider_) run_checkpoint(provider_());
  });
}

void InvariantEngine::start(ViewProvider provider) {
  provider_ = std::move(provider);
  if (config_.checkpoint_interval > 0) {
    checkpoint_timer_.start_periodic(config_.checkpoint_interval);
  }
}

void InvariantEngine::stop() { checkpoint_timer_.stop(); }

void InvariantEngine::report(NodeId node, InvariantRule rule,
                             std::uint64_t aux, std::string detail) {
  InvariantViolation v;
  v.time = sim_->now();
  v.node = node;
  v.rule = rule;
  v.aux = aux;
  v.detail = std::move(detail);
  router_->record(v.node, TraceEvent::kInvariantViolation,
                  static_cast<std::uint64_t>(rule), aux);
  TELEA_WARN("check.invariants") << format_violation(v);
  ++by_rule_[static_cast<std::uint8_t>(rule)];
  violations_.push_back(v);
  // Before fail_fast throws, so the post-mortem outlives an aborted run.
  router_->dump(node, std::string("invariant:") + invariant_rule_name(rule));
  if (config_.fail_fast) throw InvariantViolationError(violations_.back());
}

std::size_t InvariantEngine::violation_count(
    InvariantRule rule) const noexcept {
  const auto it = by_rule_.find(static_cast<std::uint8_t>(rule));
  return it == by_rule_.end() ? 0 : it->second;
}

std::string InvariantEngine::render_report() const {
  std::ostringstream out;
  for (const auto& v : violations_) out << format_violation(v) << "\n";
  return out.str();
}

void InvariantEngine::clear() {
  violations_.clear();
  by_rule_.clear();
  pending_child_mismatch_.clear();
  pending_loops_.clear();
  last_dead_checkpoint_.clear();
  lease_since_.clear();
  delivered_by_.clear();
  delivery_epoch_.clear();
  reset_epoch_.clear();
  commands_.clear();
}

// ---------------------------------------------------------------------------
// Structural checkpoint rules
// ---------------------------------------------------------------------------

std::size_t InvariantEngine::run_checkpoint(
    const std::vector<InvariantNodeView>& views) {
  const std::size_t before = violations_.size();
  ++checkpoints_;
  for (const auto& v : views) {
    if (!v.alive) last_dead_checkpoint_[v.id] = checkpoints_;
  }
  std::map<std::uint64_t, SimTime> leases;
  for (const auto& v : views) {
    if (!v.alive || !v.has_addressing) continue;
    check_addressing(v);
    check_leases(v, &leases);
  }
  lease_since_ = std::move(leases);

  std::set<std::string> pending_children;
  check_child_cross(views, &pending_children);
  pending_child_mismatch_ = std::move(pending_children);

  std::set<std::string> pending_loops;
  check_ctp_loops(views, &pending_loops);
  pending_loops_ = std::move(pending_loops);
  last_checkpoint_time_ = sim_->now();
  return violations_.size() - before;
}

void InvariantEngine::check_addressing(const InvariantNodeView& v) {
  // --- code bounds (the code is sink-rooted and within capacity) -----------
  if (!v.code.empty()) {
    if (v.code.size() > BitString::kCapacity) {
      report(v.id, InvariantRule::kAddrCodeBounds, v.code.size(),
             "code length " + std::to_string(v.code.size()) +
                 " exceeds capacity " + std::to_string(BitString::kCapacity));
    } else if (v.code.bit(0) != false) {
      report(v.id, InvariantRule::kAddrCodeBounds, 0,
             "code " + v.code.to_string() +
                 " does not extend the sink code '0' (first bit must be 0)");
    }
  }

  // --- parent-side allocation table (positions + derived codes) ------------
  if (v.children.empty()) return;
  const std::uint32_t first = kFirstPosition;
  std::set<std::uint32_t> positions;
  for (const auto& e : v.children) {
    if (v.space_bits > 0) {
      const bool in_space =
          e.position >= first &&
          (v.space_bits >= 32 ||
           e.position < (1ULL << v.space_bits));
      if (!in_space) {
        report(v.id, InvariantRule::kAddrCodeBounds, e.child,
               "child " + std::to_string(e.child) + " position " +
                   std::to_string(e.position) + " outside the " +
                   std::to_string(v.space_bits) + "-bit space [" +
                   std::to_string(first) + ", 2^" +
                   std::to_string(v.space_bits) + ")");
      }
    }
    if (!positions.insert(e.position).second) {
      report(v.id, InvariantRule::kAddrSiblingUnique, e.child,
             "child " + std::to_string(e.child) + " shares position " +
                 std::to_string(e.position) + " with a sibling");
    }
    // An empty entry code means the allocation itself failed (code capacity
    // exhausted) — there is nothing to hold the entry to.
    if (!v.code.empty() && v.space_bits > 0 && !e.new_code.empty()) {
      const PathCode expected =
          make_child_code(v.code, e.position, v.space_bits);
      if (!expected.empty() && e.new_code != expected) {
        report(v.id, InvariantRule::kAddrParentPrefix, e.child,
               "child " + std::to_string(e.child) + " table code " +
                   e.new_code.to_string() + " != derived code " +
                   expected.to_string() + " (own code " + v.code.to_string() +
                   " + position " + std::to_string(e.position) + " in " +
                   std::to_string(v.space_bits) + " bits)");
      }
    }
  }
}

bool InvariantEngine::in_revival_grace(NodeId node) const {
  const auto it = last_dead_checkpoint_.find(node);
  if (it == last_dead_checkpoint_.end()) return false;
  return checkpoints_ - it->second <= kRevivalGraceCheckpoints;
}

void InvariantEngine::check_child_cross(
    const std::vector<InvariantNodeView>& views,
    std::set<std::string>* pending) {
  std::map<NodeId, const InvariantNodeView*> by_id;
  for (const auto& v : views) by_id[v.id] = &v;

  for (const auto& c : views) {
    if (!c.alive || !c.has_addressing || c.code.empty()) continue;
    if (c.code_parent == kInvalidNode || c.code_parent == c.id) continue;
    const auto pit = by_id.find(c.code_parent);
    if (pit == by_id.end()) continue;
    const InvariantNodeView& p = *pit->second;
    // A dead or state-wiped allocator no longer vouches for anything; the
    // child legitimately keeps (and uses) its stale code (Sec. III-B6).
    if (!p.alive || !p.has_addressing) continue;
    // Either side freshly back from an outage is still reconciling: the
    // allocator may have re-allocated while the child was deaf (or the
    // allocator's table went stale while it was down). Give the normal
    // repair exchange a bounded number of checkpoints before flagging.
    if (in_revival_grace(c.id) || in_revival_grace(p.id)) continue;
    const auto entry =
        std::find_if(p.children.begin(), p.children.end(),
                     [&c](const auto& e) { return e.child == c.id; });
    if (entry == p.children.end()) continue;
    // An empty entry code means the allocator itself could not derive one
    // (code capacity exhausted, e.g. deep re-parenting churn in a
    // partitioned island) — it vouches for nothing.
    if (entry->new_code.empty()) continue;
    if (c.code == entry->new_code || c.code == entry->old_code) continue;
    // Candidate mismatch: report only if it also held one checkpoint ago —
    // an AllocationAck in flight is consistency repair, not corruption.
    std::string fp = "a1:" + std::to_string(c.id) + ":" + c.code.to_string() +
                     ":" + entry->new_code.to_string();
    if (pending_child_mismatch_.contains(fp)) {
      report(c.id, InvariantRule::kAddrParentPrefix, c.code_parent,
             "own code " + c.code.to_string() + " matches neither code the "
                 "allocator (node " +
                 std::to_string(c.code_parent) + ") holds for it (new " +
                 entry->new_code.to_string() + ", old " +
                 entry->old_code.to_string() + ") across two checkpoints");
    } else {
      pending->insert(std::move(fp));
    }
  }
}

void InvariantEngine::check_leases(const InvariantNodeView& v,
                                   std::map<std::uint64_t, SimTime>* leases) {
  const SimTime now = sim_->now();
  for (const auto& e : v.neighbors) {
    if (!e.unreachable) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(v.id) << 16) | e.neighbor;
    if (e.unreachable_since > now) {
      report(v.id, InvariantRule::kTblLeaseMonotone, e.neighbor,
             "unreachable lease for neighbor " + std::to_string(e.neighbor) +
                 " stamped in the future (" +
                 std::to_string(to_seconds(e.unreachable_since)) + "s > now " +
                 std::to_string(to_seconds(now)) + "s)");
    } else if (const auto it = lease_since_.find(key);
               it != lease_since_.end() && e.unreachable_since < it->second) {
      report(v.id, InvariantRule::kTblLeaseMonotone, e.neighbor,
             "unreachable lease for neighbor " + std::to_string(e.neighbor) +
                 " moved backwards (" +
                 std::to_string(to_seconds(it->second)) + "s -> " +
                 std::to_string(to_seconds(e.unreachable_since)) + "s)");
    }
    (*leases)[key] = e.unreachable_since;
  }
}

void InvariantEngine::check_ctp_loops(
    const std::vector<InvariantNodeView>& views,
    std::set<std::string>* pending) {
  // Only *fresh* parent edges participate: the node must have heard its
  // parent's beacon since the previous checkpoint. A pointer frozen by a
  // link blackout or partition is stale state awaiting repair — CTP's
  // loop-freedom guarantee only applies where beacons actually flow.
  std::map<NodeId, NodeId> parent;
  std::map<NodeId, std::uint16_t> cost;
  for (const auto& v : views) {
    if (v.alive && v.ctp_parent != kInvalidNode &&
        v.ctp_parent_heard >= last_checkpoint_time_) {
      parent[v.id] = v.ctp_parent;
      cost[v.id] = v.ctp_cost;
    }
  }
  std::set<std::string> handled;
  for (const auto& [start, unused] : parent) {
    (void)unused;
    std::vector<NodeId> walk;
    std::set<NodeId> seen;
    NodeId cur = start;
    while (parent.contains(cur) && seen.insert(cur).second) {
      walk.push_back(cur);
      cur = parent[cur];
    }
    if (!parent.contains(cur)) continue;  // chain left the graph: no cycle
    // `cur` re-appeared: the cycle is the walk suffix starting at cur.
    const auto at = std::find(walk.begin(), walk.end(), cur);
    if (at == walk.end()) continue;  // entered the cycle upstream of it
    std::vector<NodeId> cycle(at, walk.end());
    std::vector<NodeId> sorted = cycle;
    std::sort(sorted.begin(), sorted.end());
    // The fingerprint carries each member's advertised cost: a cycle whose
    // costs rise between checkpoints is count-to-infinity repair in motion
    // (the costs climb until one crosses kMaxPathEtx10 and the cycle tears
    // itself down) — only a cycle *frozen* in both shape and cost is stuck.
    std::string fp = "loop:";
    std::string path;
    for (const NodeId n : sorted) {
      fp += std::to_string(n) + "@" + std::to_string(cost[n]) + ",";
    }
    for (const NodeId n : cycle) path += std::to_string(n) + "->";
    path += std::to_string(cur);
    // One report per distinct cycle, however many chains lead into it.
    if (!handled.insert(fp).second) continue;
    if (pending_loops_.contains(fp)) {
      report(sorted.front(), InvariantRule::kCtpNoLoop, cycle.size(),
             "routing loop persisted across two checkpoints: " + path);
    } else {
      pending->insert(std::move(fp));
    }
  }
}

// ---------------------------------------------------------------------------
// Event-driven forwarding rules
// ---------------------------------------------------------------------------

bool InvariantEngine::claim_justified(const InvariantNodeView& v,
                                      const msg::ControlPacket& packet,
                                      bool rescue, std::string* why) {
  const bool detoured = packet.detour_via != kInvalidNode;
  const NodeId target = detoured ? packet.detour_via : packet.dest;
  const PathCode& route = detoured ? packet.detour_code : packet.dest_code;
  if (v.id == packet.dest || v.id == target) return true;   // delivery leg
  if (v.id == packet.expected_relay) return true;           // condition (1)

  const std::size_t bar = packet.expected_relay_code_len;
  const auto progress = [&route](const PathCode& code) -> std::size_t {
    return !code.empty() && code.is_prefix_of(route) ? code.size() : 0;
  };
  // Condition (2): own on-path prefix beats (rescue: meets) the expectation.
  const std::size_t mine = std::max(progress(v.code), progress(v.old_code));
  if (mine > bar || (rescue && mine > 0 && mine >= bar)) return true;
  // Condition (3): a known neighbor or child could beat the expectation.
  // The live decision additionally gates on link quality and unreachable
  // marks; auditing against the unrestricted candidate set means no claim
  // the forwarding plane could legitimately make is ever flagged.
  for (const auto& e : v.neighbors) {
    if (std::max(progress(e.new_code), progress(e.old_code)) > bar) {
      return true;
    }
  }
  for (const auto& e : v.children) {
    if (std::max(progress(e.new_code), progress(e.old_code)) > bar) {
      return true;
    }
  }
  if (why != nullptr) {
    *why = "no claim condition holds: not the expected relay (" +
           std::to_string(packet.expected_relay) + "), own progress " +
           std::to_string(mine) + " vs expectation " + std::to_string(bar) +
           " toward " + route.to_string() +
           ", and no known neighbor progresses further";
  }
  return false;
}

void InvariantEngine::on_claim(NodeId node, const msg::ControlPacket& packet,
                               TraceReason stated, bool rescue) {
  if (!provider_) return;
  const std::vector<InvariantNodeView> views = provider_();
  const auto it = std::find_if(views.begin(), views.end(),
                               [node](const auto& v) { return v.id == node; });
  if (it == views.end()) return;
  ++claims_audited_;
  std::string why;
  if (!claim_justified(*it, packet, rescue, &why)) {
    report(node, InvariantRule::kFwdClaimJustified, packet.seqno,
           "claim of control seqno " + std::to_string(packet.seqno) +
               " (stated condition: " + trace_reason_name(stated) +
               (rescue ? ", feedback rescue" : "") + ") is unjustified — " +
               why);
  }
}

void InvariantEngine::on_final_delivery(NodeId node,
                                        const msg::ControlPacket& packet,
                                        bool /*direct*/) {
  if (node != packet.dest) {
    report(node, InvariantRule::kFwdUniqueDelivery, packet.seqno,
           "control seqno " + std::to_string(packet.seqno) +
               " consumed at node " + std::to_string(node) +
               " but is addressed to node " + std::to_string(packet.dest));
    return;
  }
  const unsigned epoch = [this, node] {
    const auto it = reset_epoch_.find(node);
    return it == reset_epoch_.end() ? 0u : it->second;
  }();
  const auto it = delivered_by_.find(packet.seqno);
  if (it == delivered_by_.end()) {
    delivered_by_[packet.seqno] = node;
    delivery_epoch_[packet.seqno] = epoch;
    return;
  }
  if (it->second != node) {
    report(node, InvariantRule::kFwdUniqueDelivery, packet.seqno,
           "control seqno " + std::to_string(packet.seqno) +
               " already delivered at node " + std::to_string(it->second));
    return;
  }
  // Same node again: legitimate only if a state-loss reboot wiped the
  // destination's dedup state in between.
  if (delivery_epoch_[packet.seqno] >= epoch) {
    report(node, InvariantRule::kFwdUniqueDelivery, packet.seqno,
           "control seqno " + std::to_string(packet.seqno) +
               " delivered twice at node " + std::to_string(node) +
               " with no state loss in between");
  }
  delivery_epoch_[packet.seqno] = epoch;
}

void InvariantEngine::note_node_reset(NodeId node) {
  ++reset_epoch_[node];
}

// ---------------------------------------------------------------------------
// Command lifecycle conservation
// ---------------------------------------------------------------------------

void InvariantEngine::note_command_issued(std::uint32_t first_seqno) {
  commands_.try_emplace(first_seqno, 0);
}

void InvariantEngine::note_command_resolved(std::uint32_t first_seqno) {
  const auto it = commands_.find(first_seqno);
  if (it == commands_.end()) {
    report(kSinkNode, InvariantRule::kFwdVerdictConservation, first_seqno,
           "command (first seqno " + std::to_string(first_seqno) +
               ") resolved without ever being issued");
    return;
  }
  if (++it->second > 1) {
    report(kSinkNode, InvariantRule::kFwdVerdictConservation, first_seqno,
           "command (first seqno " + std::to_string(first_seqno) +
               ") resolved " + std::to_string(it->second) +
               " times — a lifecycle must close exactly once");
  }
}

std::size_t InvariantEngine::final_audit() {
  const std::size_t before = violations_.size();
  if (config_.expect_all_resolved) {
    for (const auto& [seqno, resolutions] : commands_) {
      if (resolutions == 0) {
        report(kSinkNode, InvariantRule::kFwdVerdictConservation, seqno,
               "command (first seqno " + std::to_string(seqno) +
                   ") never resolved — no verdict reached the controller");
      }
    }
  }
  return violations_.size() - before;
}

}  // namespace telea
