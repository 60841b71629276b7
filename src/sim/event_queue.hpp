#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace telea {

/// Handle for a scheduled event, used to cancel it. Default-constructed
/// handles are inert.
class EventHandle {
 public:
  constexpr EventHandle() = default;
  [[nodiscard]] constexpr bool valid() const noexcept { return seq_ != 0; }
  constexpr void reset() noexcept { seq_ = 0; }

 private:
  friend class EventQueue;
  constexpr EventHandle(std::uint64_t seq, std::uint32_t slot) noexcept
      : seq_(seq), slot_(slot) {}
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

/// Deterministic discrete-event queue. Events at equal times fire in
/// scheduling order (FIFO tie-break via a monotone sequence number), which
/// makes runs bit-reproducible regardless of heap internals.
///
/// Callbacks and tags live in a slot vector recycled through a free list;
/// the heap holds only 16-byte `{time, seq:slot}` entries, so one node's
/// four children share a cache line or two. A slot records the seq of its
/// current occupant, and cancellation is by that seq: cancel frees the slot
/// only if the handle's seq still matches, and a heap entry whose slot no
/// longer carries its seq is stale and is skipped on pop. Cancel is O(1)
/// and allocation-free, which matters because the LPL MAC cancels a
/// pending retransmission on every acknowledgement.
///
/// pop() leaves the root as a hole instead of sifting the last leaf down
/// at once: most callbacks schedule an event, and the next schedule() puts
/// it straight into the hole and sifts it down from the root. Every other
/// reader of the heap (next_time(), pop(), clear()) fills the hole the
/// usual way first.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` at absolute time `when`. `when` may equal the current
  /// head time; ordering among equal-time events is FIFO. `tag` optionally
  /// names the event kind for the simulator's self-profiler; it must point
  /// to a string literal (or otherwise outlive the event). Throws
  /// std::length_error past 2^24 pending slots or 2^40 schedules in the
  /// queue's lifetime (the heap entry's packing limits).
  EventHandle schedule(SimTime when, Callback cb, const char* tag = nullptr);

  /// Cancels a previously scheduled event. Safe to call with an invalid or
  /// already-fired handle, or one issued before clear() (no-op).
  /// Invalidates `handle`.
  void cancel(EventHandle& handle);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Time of the next live event. Precondition: !empty().
  [[nodiscard]] SimTime next_time();

  /// Pops and returns the next live event. Precondition: !empty().
  struct Fired {
    SimTime time;
    Callback callback;
    const char* tag = nullptr;  // event-kind tag, nullptr when untagged
  };
  Fired pop();

  /// Drops every pending event. Sequence numbers keep increasing, so
  /// handles issued before the clear stay inert.
  void clear();

 private:
  struct Slot {
    std::uint64_t seq = 0;  // occupant's seq; 0 while the slot is free
    Callback callback;
    const char* tag = nullptr;
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;

  /// A heap entry: (time, seq) is the firing order, and seq is unique, so
  /// the order is total and any correct heap pops the same sequence.
  struct Entry {
    SimTime time;
    std::uint64_t order;  // seq << kSlotBits | slot

    [[nodiscard]] std::uint64_t seq() const noexcept {
      return order >> kSlotBits;
    }
    [[nodiscard]] std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(order & kSlotMask);
    }
  };

  /// (time, order) as one 128-bit number: one compare, no branch on ties.
  __extension__ using Key = unsigned __int128;
  [[nodiscard]] static Key key(const Entry& e) noexcept {
    return (static_cast<Key>(e.time) << 64) | e.order;
  }

  [[nodiscard]] bool stale(const Entry& e) const noexcept {
    return slots_[e.slot()].seq != e.seq();
  }

  void release(std::uint32_t slot);

  /// Removes the root of the heap.
  void pop_root();
  /// Places `entry` at the root, whose old content is discarded, and
  /// sifts it down. Precondition: !heap_.empty().
  void sift_down(Entry entry);
  /// Removes the root left by the last pop(), if no schedule() took it.
  void fill_hole();

  // Fills the hole, then drops cancelled entries from the top of the heap.
  void skim();

  /// 4-ary min-heap on key(): the children of i are 4i+1 .. 4i+4.
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // indices of free slots
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  /// heap_[0] is the popped root, still to be replaced or removed.
  bool hole_ = false;
};

}  // namespace telea
