#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace telea {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsHead) {
  EventQueue q;
  q.schedule(42, [] {});
  q.schedule(7, [] {});
  EXPECT_EQ(q.next_time(), 7u);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(10, [&] { fired = true; });
  q.cancel(h);
  EXPECT_FALSE(h.valid());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUpdatesNextTime) {
  EventQueue q;
  EventHandle h = q.schedule(5, [] {});
  q.schedule(10, [] {});
  q.cancel(h);
  EXPECT_EQ(q.next_time(), 10u);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  EventHandle h = q.schedule(1, [] {});
  q.pop().callback();
  EXPECT_TRUE(q.empty());
  q.cancel(h);  // must not corrupt state
  EXPECT_TRUE(q.empty());
  bool fired = false;
  q.schedule(2, [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelInvalidHandleIsNoop) {
  EventQueue q;
  EventHandle h;
  q.cancel(h);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue q;
  EventHandle h = q.schedule(10, [] {});
  EventHandle copy = h;
  q.cancel(h);
  q.cancel(copy);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  EventHandle a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopReturnsTimeAndCallback) {
  EventQueue q;
  int value = 0;
  q.schedule(99, [&] { value = 7; });
  auto fired = q.pop();
  EXPECT_EQ(fired.time, 99u);
  fired.callback();
  EXPECT_EQ(value, 7);
}

/// Counts copies of itself; moves are free.
struct CopyCounter {
  int* copies;
  int* calls;
  CopyCounter(int* copies_out, int* calls_out)
      : copies(copies_out), calls(calls_out) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), calls(other.calls) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  void operator()() const { ++*calls; }
};

TEST(EventQueue, CallbackIsNotCopiedBetweenScheduleAndInvoke) {
  EventQueue q;
  int copies = 0;
  int calls = 0;
  // Enough neighbours that the heap reorders the entry on push and pop.
  for (int i = 0; i < 16; ++i) q.schedule(static_cast<SimTime>(10 + i), [] {});
  q.schedule(5, CopyCounter(&copies, &calls));
  auto fired = q.pop();
  EXPECT_EQ(fired.time, 5u);
  fired.callback();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(copies, 0);
}

TEST(EventQueue, ManyInterleavedScheduleCancel) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
  }
  for (size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
  EXPECT_EQ(q.size(), 50u);
  SimTime last = 0;
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    EXPECT_EQ(fired.time % 2, 1u);  // even-indexed were cancelled
    last = fired.time;
  }
}

TEST(EventQueue, StaleHandleCopyDoesNotCancelSlotReuser) {
  EventQueue q;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = q.schedule(10, [&] { a_fired = true; });
  EventHandle stale = a;
  q.cancel(a);
  // B takes over A's freed slot; the copy of A's handle must not reach it.
  q.schedule(20, [&] { b_fired = true; });
  q.cancel(stale);
  EXPECT_FALSE(stale.valid());
  ASSERT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(EventQueue, FiredHandleDoesNotCancelSlotReuser) {
  EventQueue q;
  EventHandle a = q.schedule(10, [] {});
  q.pop().callback();
  bool b_fired = false;
  q.schedule(20, [&] { b_fired = true; });
  q.cancel(a);
  ASSERT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(b_fired);
}

TEST(EventQueue, HandleFromBeforeClearStaysInert) {
  EventQueue q;
  EventHandle a = q.schedule(10, [] {});
  q.schedule(11, [] {});
  q.clear();
  bool b_fired = false;
  q.schedule(20, [&] { b_fired = true; });
  q.cancel(a);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20u);
  q.pop().callback();
  EXPECT_TRUE(b_fired);
}

/// One input of the differential test below: how many operations, the
/// percentage of each operation, and the times scheduled.
struct RandomOps {
  int ops;
  std::uint32_t schedule_pct;  // then cancel, then pop, then clear
  std::uint32_t cancel_pct;
  std::uint32_t pop_pct;
  std::uint32_t span;     // times drawn from [0, span) ...
  std::uint32_t quantum;  // ... rounded down to multiples of this
  /// Percentage of pops followed at once by a schedule at the popped time
  /// plus a drawn time (plus 0 for a quarter of them), as a callback does.
  /// When non-zero, half the pops also skip next_time(), so a pop can meet
  /// the hole the previous pop left.
  std::uint32_t follow_pct = 0;
  /// Percentage of operations on timer slots, taken from clear()'s share:
  /// add a timer, arm one (re-arming it if armed), stop one, or destroy one
  /// (armed or not). A timer whose entry pops re-arms itself from its own
  /// callback half the time.
  std::uint32_t timer_pct = 0;
};

/// A timer slot's owner in the differential test: its queue slot, its id
/// in the reference, and its armed entry's key while armed.
struct FakeTimer {
  std::uint32_t slot = 0;
  int id = 0;
  bool armed = false;
  std::pair<SimTime, std::uint64_t> key{};
  std::function<void()> on_fire;
};

/// What a timer configuration of the differential test exercised.
struct TimerCoverage {
  int rearmed_while_armed = 0;
  int armed_from_own_callback = 0;
  int destroyed_while_armed = 0;
  int fired = 0;
};

/// Runs `input` against a reference ordered map keyed by (time, seq), which
/// must agree with the queue on every pop and on size() after every
/// operation. Returns the most events the queue held at once; `coverage`,
/// when given, counts the timer cases met.
std::size_t check_against_reference(const RandomOps& input,
                                    TimerCoverage* coverage = nullptr) {
  using Key = std::pair<SimTime, std::uint64_t>;
  EventQueue q;
  std::multimap<Key, int> ref;
  struct Held {
    EventHandle handle;
    Key key;
  };
  std::vector<Held> held;  // copies: cancelling one leaves stale twins
  Pcg32 rng(2024, 7);
  std::uint64_t seq = 0;
  int next_id = 0;
  int fired_id = -1;
  int pops = 0;
  std::size_t most = 0;
  const auto add = [&](SimTime when) {
    const int id = next_id++;
    const EventHandle h = q.schedule(when, [&fired_id, id] { fired_id = id; });
    const Key key{when, ++seq};
    ref.emplace(key, id);
    held.push_back({h, key});
  };
  const auto draw_time = [&] {
    return SimTime{rng.uniform(input.span) / input.quantum * input.quantum};
  };
  TimerCoverage seen;
  std::vector<std::unique_ptr<FakeTimer>> timers;  // the live ones
  SimTime now = 0;  // the time of the entry being run
  const auto arm = [&](FakeTimer& t, SimTime when) {
    q.arm_timer(t.slot, when, nullptr);
    if (t.armed) ref.erase(t.key);  // its entry goes stale
    t.key = Key{when, ++seq};
    t.armed = true;
    ref.emplace(t.key, t.id);
  };
  const auto disarm = [&](FakeTimer& t) {
    if (t.armed) ref.erase(t.key);
    t.armed = false;
  };
  const auto timer_op = [&] {
    const std::uint32_t kind = rng.uniform(8);
    if (timers.empty() || kind == 0) {
      if (timers.size() >= 64) return;
      auto t = std::make_unique<FakeTimer>();
      FakeTimer* tp = t.get();
      tp->id = next_id++;
      tp->slot = q.add_timer(
          [](void* target) { static_cast<FakeTimer*>(target)->on_fire(); },
          tp);
      EXPECT_FALSE(q.timer_armed(tp->slot));
      tp->on_fire = [&, tp] {
        fired_id = tp->id;
        ++seen.fired;
        // The reference popped its key: a one-shot is no longer running.
        tp->armed = false;
        EXPECT_FALSE(q.timer_armed(tp->slot));
        if (rng.uniform(2) == 0) {
          arm(*tp, now + draw_time());
          ++seen.armed_from_own_callback;
          EXPECT_TRUE(q.timer_armed(tp->slot));
        }
      };
      timers.push_back(std::move(t));
      return;
    }
    const auto pick = rng.uniform(static_cast<std::uint32_t>(timers.size()));
    FakeTimer& t = *timers[pick];
    if (kind <= 4) {
      if (t.armed) ++seen.rearmed_while_armed;
      arm(t, draw_time());
    } else if (kind <= 6) {
      q.disarm_timer(t.slot);
      disarm(t);
    } else {
      if (t.armed) ++seen.destroyed_while_armed;
      q.remove_timer(t.slot);
      disarm(t);
      timers.erase(timers.begin() + pick);
    }
    for (const auto& other : timers) {
      EXPECT_EQ(q.timer_armed(other->slot), other->armed);
    }
  };
  for (int op = 0; op < input.ops; ++op) {
    const std::uint32_t dice = rng.uniform(100);
    const std::uint32_t timer_end = input.schedule_pct + input.cancel_pct +
                                    input.pop_pct + input.timer_pct;
    if (dice < input.schedule_pct) {
      add(draw_time());
    } else if (dice < input.schedule_pct + input.cancel_pct) {
      if (held.empty()) continue;
      const auto pick = rng.uniform(static_cast<std::uint32_t>(held.size()));
      const Held& victim = held[pick];
      EventHandle copy = victim.handle;
      q.cancel(copy);
      EXPECT_FALSE(copy.valid());
      ref.erase(victim.key);
    } else if (dice < input.schedule_pct + input.cancel_pct + input.pop_pct) {
      EXPECT_EQ(q.empty(), ref.empty());
      if (ref.empty()) continue;
      const auto head = ref.begin();
      if (input.follow_pct == 0 || rng.uniform(2) == 0) {
        EXPECT_EQ(q.next_time(), head->first.first);
      }
      const Key expected_key = head->first;
      const int expected_id = head->second;
      ref.erase(head);  // before the run: a timer may re-arm in it
      auto fired = q.pop();
      now = fired.time;
      fired.run();
      EXPECT_EQ(fired.time, expected_key.first) << "op " << op;
      EXPECT_EQ(fired_id, expected_id) << "op " << op;
      ++pops;
      if (input.follow_pct != 0 && rng.uniform(100) < input.follow_pct) {
        EXPECT_EQ(q.size(), ref.size()) << "op " << op;
        add(fired.time + (rng.uniform(4) == 0 ? 0 : draw_time()));
      }
    } else if (dice < timer_end) {
      timer_op();
    } else {
      q.clear();
      ref.clear();
      // Timers keep their slots, disarmed.
      for (const auto& t : timers) {
        t->armed = false;
        EXPECT_FALSE(q.timer_armed(t->slot));
      }
    }
    EXPECT_EQ(q.size(), ref.size()) << "op " << op;
    if (q.size() != ref.size() || ::testing::Test::HasFailure()) break;
    most = std::max(most, q.size());
  }
  EXPECT_GT(pops, input.ops / 4);
  if (coverage != nullptr) *coverage = seen;
  return most;
}

TEST(EventQueue, MatchesReferenceOnRandomOperations) {
  // Few distinct times, so equal-time FIFO order is exercised heavily;
  // times land before ones already popped, and clear() runs mid-stream.
  check_against_reference({.ops = 20000,
                           .schedule_pct = 45,
                           .cancel_pct = 20,
                           .pop_pct = 34,
                           .span = 200,
                           .quantum = 1});
  // Thousands of live events over a wide span in 1,024 tie groups: every
  // level of the 4-ary heap, and a last child group of every length.
  const std::size_t most = check_against_reference({.ops = 60000,
                                                    .schedule_pct = 55,
                                                    .cancel_pct = 10,
                                                    .pop_pct = 35,
                                                    .span = 1u << 30,
                                                    .quantum = 1u << 20});
  EXPECT_GT(most, 4000u);  // 4^6 = 4096: seven levels
  // The simulator's pattern: most pops are followed at once by a schedule
  // at or after the popped time, often a FIFO tie with it, which takes the
  // root the pop left. The other pops leave that hole open for the next
  // operation: a cancel, clear(), size(), a schedule or another pop.
  const std::size_t steady = check_against_reference({.ops = 60000,
                                                      .schedule_pct = 25,
                                                      .cancel_pct = 5,
                                                      .pop_pct = 69,
                                                      .span = 64,
                                                      .quantum = 4,
                                                      .follow_pct = 90});
  EXPECT_GT(steady, 85u);  // 1 + 4 + 16 + 64: four levels
  // Timer slots among the one-shots, in the same pattern: armed, re-armed
  // while armed, stopped, re-armed from their own callbacks and destroyed
  // with an entry still in the heap, with clear() now and then; their
  // arms draw seqs from the same counter as schedule().
  TimerCoverage timers;
  check_against_reference({.ops = 60000,
                           .schedule_pct = 20,
                           .cancel_pct = 5,
                           .pop_pct = 50,
                           .span = 64,
                           .quantum = 4,
                           .follow_pct = 50,
                           .timer_pct = 24},
                          &timers);
  EXPECT_GT(timers.fired, 1000);
  EXPECT_GT(timers.rearmed_while_armed, 100);
  EXPECT_GT(timers.armed_from_own_callback, 500);
  EXPECT_GT(timers.destroyed_while_armed, 50);
}

}  // namespace
}  // namespace telea
