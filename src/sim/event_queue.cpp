#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace telea {

EventHandle EventQueue::schedule(SimTime when, Callback cb, const char* tag) {
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(Entry{when, seq, std::move(cb), tag});
  std::push_heap(heap_.begin(), heap_.end());
  live_.insert(seq);
  return EventHandle{seq};
}

void EventQueue::cancel(EventHandle& handle) {
  if (!handle.valid()) return;
  // erase() returning 0 means the event already fired or was cancelled;
  // both are harmless no-ops by contract.
  live_.erase(handle.id_);
  handle.reset();
}

void EventQueue::skim() {
  while (!heap_.empty() && !live_.contains(heap_.front().seq)) {
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
  Entry& top = heap_.back();
  Fired fired{top.time, std::move(top.callback), top.tag};
  live_.erase(top.seq);
  heap_.pop_back();
  return fired;
}

void EventQueue::clear() {
  heap_.clear();
  live_.clear();
}

}  // namespace telea
