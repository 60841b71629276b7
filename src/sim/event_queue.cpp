#include "sim/event_queue.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace telea {

std::uint64_t EventQueue::take_seq() {
  // The heap entry packs seq and slot into one word; checked in every build
  // because an overflow would silently reorder or misroute events.
  if ((next_seq_ >> (64 - kSlotBits)) != 0) {
    throw std::length_error("EventQueue: seq exceeds its packing");
  }
  return next_seq_++;
}

std::uint32_t EventQueue::take_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (slots_.size() > kSlotMask) {
    throw std::length_error("EventQueue: slot exceeds its packing");
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventHandle EventQueue::schedule(SimTime when, Callback cb, const char* tag) {
  const std::uint64_t seq = take_seq();
  const std::uint32_t slot = take_slot();
  Slot& s = slots_[slot];
  s.seq = seq;
  s.callback = std::move(cb);
  s.tag = tag;
  push(Entry{when, (seq << kSlotBits) | slot});
  ++live_;
  return EventHandle{seq, slot};
}

std::uint32_t EventQueue::add_timer(TimerFire fire, void* target) {
  const std::uint32_t slot = take_slot();
  slots_[slot].fire = fire;
  slots_[slot].target = target;
  return slot;
}

void EventQueue::arm_timer(std::uint32_t slot, SimTime when, const char* tag) {
  const std::uint64_t seq = take_seq();
  Slot& s = slots_[slot];
  assert(s.fire != nullptr);
  if (s.seq == 0) ++live_;  // else the armed entry goes stale
  s.seq = seq;
  s.tag = tag;
  push(Entry{when, (seq << kSlotBits) | slot});
}

void EventQueue::disarm_timer(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  assert(s.fire != nullptr);
  if (s.seq == 0) return;
  s.seq = 0;
  --live_;
}

void EventQueue::remove_timer(std::uint32_t slot) noexcept {
  disarm_timer(slot);
  slots_[slot] = Slot{};
  free_.push_back(slot);
}

void EventQueue::push(Entry entry) {
  if (hole_) {
    // Replace-top: the entry takes the root the last pop vacated.
    hole_ = false;
    sift_down(entry);
    return;
  }
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
  if (s.fire != nullptr) {
    // A timer's entry: the slot stays the timer's, disarmed.
    s.seq = 0;
    --live_;
    return Fired{top.time, nullptr, s.fire, s.target, s.tag};
  }
  Fired fired{top.time, std::move(s.callback), nullptr, nullptr, s.tag};
  release(top.slot());
  return fired;
}

void EventQueue::clear() {
  hole_ = false;
  heap_.clear();
  free_.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    s.seq = 0;
    if (s.fire == nullptr) {
      s.callback = nullptr;
      s.tag = nullptr;
      free_.push_back(i);
    }
  }
  live_ = 0;
}

}  // namespace telea
