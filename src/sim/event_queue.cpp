#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace telea {

EventHandle EventQueue::schedule(SimTime when, Callback cb, const char* tag) {
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{seq, std::move(cb), tag});
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = Slot{seq, std::move(cb), tag};
  }
  heap_.push_back(Entry{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end());
  ++live_;
  return EventHandle{seq, slot};
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

void EventQueue::skim() {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() {
  skim();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  skim();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end());
  const Entry top = heap_.back();
  heap_.pop_back();
  Slot& s = slots_[top.slot];
  Fired fired{top.time, std::move(s.callback), s.tag};
  release(top.slot);
  return fired;
}

void EventQueue::clear() {
  heap_.clear();
  slots_.clear();
  free_.clear();
  live_ = 0;
}

}  // namespace telea
