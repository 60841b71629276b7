#include "sim/event_queue.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace telea {

EventHandle EventQueue::schedule(SimTime when, Callback cb, const char* tag) {
  const std::uint64_t seq = next_seq_;
  const bool grow = free_.empty();
  const std::size_t slot_index = grow ? slots_.size() : free_.back();
  // The heap entry packs seq and slot into one word; checked in every build
  // because an overflow would silently reorder or misroute events.
  if (slot_index > kSlotMask || (seq >> (64 - kSlotBits)) != 0) {
    throw std::length_error("EventQueue: seq or slot exceeds its packing");
  }
  ++next_seq_;
  const auto slot = static_cast<std::uint32_t>(slot_index);
  if (grow) {
    slots_.push_back(Slot{seq, std::move(cb), tag});
  } else {
    free_.pop_back();
    slots_[slot] = Slot{seq, std::move(cb), tag};
  }

  const Entry entry{when, (seq << kSlotBits) | slot};
  if (hole_) {
    // Replace-top: the entry takes the root the last pop vacated.
    hole_ = false;
    sift_down(entry);
  } else {
    // Sift up: move parents down until the new entry fits.
    const Key k = key(entry);
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    Entry* h = heap_.data();
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (key(h[parent]) < k) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = entry;
  }
  ++live_;
  return EventHandle{seq, slot};
}

void EventQueue::pop_root() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(last);
}

void EventQueue::sift_down(Entry entry) {
  // At each level the hole takes the smallest of its children until
  // `entry` is no larger than them.
  const std::size_t n = heap_.size();
  const Key k = key(entry);
  Entry* h = heap_.data();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    if (first + 4 <= n) {
      // A full group: the winners of two pairs meet. The winner's index is
      // built from the three verdicts with bit operations, so no branch
      // depends on how the keys compare.
      const Key k0 = key(h[first]);
      const Key k1 = key(h[first + 1]);
      const Key k2 = key(h[first + 2]);
      const Key k3 = key(h[first + 3]);
      const std::size_t b01 = k1 < k0;
      const std::size_t b23 = k3 < k2;
      const std::size_t right = (b23 != 0 ? k3 : k2) < (b01 != 0 ? k1 : k0);
      best += (right << 1) | (right & b23) | ((right ^ 1) & b01);
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (key(h[c]) < key(h[best])) best = c;
      }
    }
    if (k < key(h[best])) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = entry;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;
  s.callback = nullptr;
  s.tag = nullptr;
  free_.push_back(slot);
  --live_;
}

void EventQueue::cancel(EventHandle& handle) {
  if (!handle.valid()) return;
  // A seq mismatch means the event already fired, was cancelled, or the
  // queue was cleared since; all are harmless no-ops by contract.
  if (handle.slot_ < slots_.size() && slots_[handle.slot_].seq == handle.seq_) {
    release(handle.slot_);
  }
  handle.reset();
}

void EventQueue::fill_hole() {
  if (!hole_) return;
  hole_ = false;
  pop_root();
}

void EventQueue::skim() {
  fill_hole();
  while (!heap_.empty() && stale(heap_.front())) pop_root();
}

SimTime EventQueue::next_time() {
  skim();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  skim();
  assert(!heap_.empty());
  const Entry top = heap_.front();
  hole_ = true;
  Slot& s = slots_[top.slot()];
  Fired fired{top.time, std::move(s.callback), s.tag};
  release(top.slot());
  return fired;
}

void EventQueue::clear() {
  hole_ = false;
  heap_.clear();
  slots_.clear();
  free_.clear();
  live_ = 0;
}

}  // namespace telea
