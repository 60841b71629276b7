#include "core/tables.hpp"

#include <algorithm>

namespace telea {

const ChildTable::Entry* ChildTable::find(NodeId child) const noexcept {
  for (const auto& e : entries_) {
    if (e.child == child) return &e;
  }
  return nullptr;
}

ChildTable::Entry* ChildTable::find(NodeId child) noexcept {
  for (auto& e : entries_) {
    if (e.child == child) return &e;
  }
  return nullptr;
}

bool ChildTable::position_taken(std::uint32_t position) const noexcept {
  return std::any_of(entries_.begin(), entries_.end(),
                     [position](const Entry& e) {
                       return e.position == position;
                     });
}

std::optional<std::uint32_t> ChildTable::free_position(
    std::uint8_t space_bits, std::uint32_t first) const noexcept {
  if (space_bits >= 32) return std::nullopt;
  const std::uint32_t limit = 1u << space_bits;
  for (std::uint32_t p = first; p < limit; ++p) {
    if (!position_taken(p)) return p;
  }
  return std::nullopt;
}

ChildTable::Entry& ChildTable::upsert(NodeId child, std::uint32_t position,
                                      const PathCode& code) {
  if (Entry* e = find(child); e != nullptr) {
    if (e->new_code != code) e->old_code = e->new_code;
    e->position = position;
    e->new_code = code;
    e->confirmed = false;
    return *e;
  }
  entries_.push_back(Entry{child, position, code, PathCode{}, false});
  return entries_.back();
}

void ChildTable::remove(NodeId child) {
  std::erase_if(entries_, [child](const Entry& e) { return e.child == child; });
}

void ChildTable::rederive_codes(const PathCode& parent_code,
                                std::uint8_t space_bits) {
  for (auto& e : entries_) {
    const PathCode updated =
        make_child_code(parent_code, e.position, space_bits);
    if (updated != e.new_code) {
      e.old_code = e.new_code;
      e.new_code = updated;
    }
  }
}

const NeighborCodeTable::Entry* NeighborCodeTable::find(
    NodeId neighbor) const noexcept {
  for (const auto& e : entries_) {
    if (e.neighbor == neighbor) return &e;
  }
  return nullptr;
}

NeighborCodeTable::Entry& NeighborCodeTable::find_or_insert(NodeId neighbor) {
  for (auto& e : entries_) {
    if (e.neighbor == neighbor) return e;
  }
  entries_.push_back(Entry{});
  entries_.back().neighbor = neighbor;
  return entries_.back();
}

void NeighborCodeTable::observe(NodeId neighbor, const PathCode& code,
                                SimTime now) {
  if (code.empty()) return;
  Entry& e = find_or_insert(neighbor);
  if (e.new_code == code) return;
  if (!e.new_code.empty()) {
    e.old_code = e.new_code;
    e.code_changed_at = now;
  }
  e.new_code = code;
}

void NeighborCodeTable::mark_unreachable(NodeId neighbor, SimTime now) {
  Entry& e = find_or_insert(neighbor);
  // The lease runs from the FIRST failure: re-marking an already-marked
  // neighbor (every retry that skips it re-reports it blocked) must not
  // extend the lease, or a retry cadence shorter than the timeout keeps the
  // mark alive forever and the kUnreachableTimeout safety valve never fires.
  if (!e.unreachable) e.unreachable_since = now;
  e.unreachable = true;
}

void NeighborCodeTable::mark_reachable(NodeId neighbor) {
  for (auto& e : entries_) {
    if (e.neighbor == neighbor) {
      e.unreachable = false;
      return;
    }
  }
}

bool NeighborCodeTable::is_unreachable(NodeId neighbor) const noexcept {
  const Entry* e = find(neighbor);
  return e != nullptr && e->unreachable;
}

void NeighborCodeTable::expire_unreachable(SimTime now, SimTime timeout) {
  for (auto& e : entries_) {
    if (e.unreachable && e.unreachable_since + timeout <= now) {
      e.unreachable = false;
    }
  }
}

void NeighborCodeTable::remove(NodeId neighbor) {
  std::erase_if(entries_, [neighbor](const Entry& e) {
    return e.neighbor == neighbor;
  });
}

}  // namespace telea
