#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"

namespace telea {

/// Handle for a scheduled event, used to cancel it. Default-constructed
/// handles are inert.
class EventHandle {
 public:
  constexpr EventHandle() = default;
  [[nodiscard]] constexpr bool valid() const noexcept { return id_ != 0; }
  constexpr void reset() noexcept { id_ = 0; }

 private:
  friend class EventQueue;
  explicit constexpr EventHandle(std::uint64_t id) noexcept : id_(id) {}
  std::uint64_t id_ = 0;
};

/// Deterministic discrete-event queue. Events at equal times fire in
/// scheduling order (FIFO tie-break via a monotone sequence number), which
/// makes runs bit-reproducible regardless of heap internals.
///
/// Cancellation is lazy: a live-set of pending event ids is kept alongside
/// the heap; cancel is an O(1) erase and stale heap entries are skipped on
/// pop. Important because the LPL MAC cancels a pending retransmission on
/// every acknowledgement.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` at absolute time `when`. `when` may equal the current
  /// head time; ordering among equal-time events is FIFO. `tag` optionally
  /// names the event kind for the simulator's self-profiler; it must point
  /// to a string literal (or otherwise outlive the event).
  EventHandle schedule(SimTime when, Callback cb, const char* tag = nullptr);

  /// Cancels a previously scheduled event. Safe to call with an invalid or
  /// already-fired handle (no-op). Invalidates `handle`.
  void cancel(EventHandle& handle);

  [[nodiscard]] bool empty() const noexcept { return live_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return live_.size(); }

  /// Time of the next live event. Precondition: !empty().
  [[nodiscard]] SimTime next_time();

  /// Pops and returns the next live event. Precondition: !empty().
  struct Fired {
    SimTime time;
    Callback callback;
    const char* tag = nullptr;  // event-kind tag, nullptr when untagged
  };
  Fired pop();

  void clear();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // scheduling order, also the handle id
    Callback callback;
    const char* tag = nullptr;

    // Min-heap: the std heap algorithms build a max-heap, so invert.
    friend bool operator<(const Entry& a, const Entry& b) noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Drops cancelled entries from the top of the heap.
  void skim();

  std::vector<Entry> heap_;  // std::push_heap/pop_heap order
  std::unordered_set<std::uint64_t> live_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace telea
