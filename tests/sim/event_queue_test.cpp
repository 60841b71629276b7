#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace telea
