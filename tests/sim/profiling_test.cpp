#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace telea {
namespace {

TEST(SimProfiling, OffByDefaultAndCostsNothing) {
  Simulator sim;
  sim.schedule_in(10, [] {}, "work");
  sim.run();
  EXPECT_FALSE(sim.profiling());
  EXPECT_EQ(sim.profile().events_dispatched, 0u);
  EXPECT_TRUE(sim.profile().by_kind.empty());
}

TEST(SimProfiling, CountsEventsByTag) {
  Simulator sim;
  sim.set_profiling(true);
  for (SimTime i = 0; i < 3; ++i) sim.schedule_in(10 + i, [] {}, "alpha");
  sim.schedule_in(5, [] {}, "beta");
  sim.schedule_in(7, [] {});  // untagged
  sim.run();

  const SimProfile& p = sim.profile();
  EXPECT_EQ(p.events_dispatched, 5u);
  ASSERT_TRUE(p.by_kind.contains("alpha"));
  EXPECT_EQ(p.by_kind.at("alpha").count, 3u);
  EXPECT_EQ(p.by_kind.at("beta").count, 1u);
  EXPECT_EQ(p.by_kind.at("(untagged)").count, 1u);
  EXPECT_GE(p.by_kind.at("alpha").wall_seconds, 0.0);
}

TEST(SimProfiling, TracksMaxQueueDepth) {
  Simulator sim;
  sim.set_profiling(true);
  for (SimTime i = 0; i < 8; ++i) sim.schedule_in(10 + i, [] {}, "w");
  sim.run();
  // Depth is sampled before each pop: the first pop sees all 8 pending.
  EXPECT_EQ(sim.profile().max_queue_depth, 8u);
}

TEST(SimProfiling, CancelledEventsDoNotCount) {
  Simulator sim;
  sim.set_profiling(true);
  auto h = sim.schedule_in(10, [] {}, "doomed");
  sim.schedule_in(20, [] {}, "kept");
  sim.cancel(h);
  sim.run();
  EXPECT_EQ(sim.profile().events_dispatched, 1u);
  EXPECT_FALSE(sim.profile().by_kind.contains("doomed"));
}

TEST(SimProfiling, TimersCarryTheirTag) {
  Simulator sim;
  sim.set_profiling(true);
  int fired = 0;
  Timer t(sim);
  t.set_tag("test.timer");
  t.set_callback([&fired] { ++fired; });
  t.start_one_shot(50);
  sim.run_until(100);
  EXPECT_EQ(fired, 1);
  ASSERT_TRUE(sim.profile().by_kind.contains("test.timer"));
  EXPECT_EQ(sim.profile().by_kind.at("test.timer").count, 1u);
}

TEST(SimProfiling, RenderAndClear) {
  Simulator sim;
  sim.set_profiling(true);
  sim.schedule_in(1, [] {}, "phase.a");
  sim.run();
  const std::string text = sim.profile().render();
  EXPECT_NE(text.find("phase.a"), std::string::npos);
  EXPECT_NE(text.find("1 event"), std::string::npos);

  sim.clear_profile();
  EXPECT_EQ(sim.profile().events_dispatched, 0u);
  EXPECT_TRUE(sim.profile().by_kind.empty());

  sim.reset();  // reset() also clears the profile
  sim.set_profiling(true);
  sim.schedule_in(1, [] {}, "x");
  sim.run();
  EXPECT_EQ(sim.profile().events_dispatched, 1u);
}

TEST(SimProfiling, TagSeenBeforeClearCountsAfterIt) {
  Simulator sim;
  sim.set_profiling(true);
  sim.schedule_in(1, [] {}, "again");
  sim.run();
  sim.clear_profile();
  sim.schedule_in(1, [] {}, "again");
  sim.schedule_in(2, [] {}, "again");
  sim.run();
  ASSERT_TRUE(sim.profile().by_kind.contains("again"));
  EXPECT_EQ(sim.profile().by_kind.at("again").count, 2u);

  sim.reset();
  sim.set_profiling(true);
  sim.schedule_in(1, [] {}, "again");
  sim.run();
  EXPECT_EQ(sim.profile().by_kind.at("again").count, 1u);
}

TEST(SimProfiling, EqualTagTextAggregatesAcrossPointers) {
  // Two distinct buffers holding the same text must land in one row.
  static const char kFirst[] = "same.kind";
  static const char kSecond[] = "same.kind";
  ASSERT_NE(static_cast<const void*>(kFirst),
            static_cast<const void*>(kSecond));
  Simulator sim;
  sim.set_profiling(true);
  sim.schedule_in(1, [] {}, kFirst);
  sim.schedule_in(2, [] {}, kSecond);
  sim.schedule_in(3, [] {}, kFirst);
  sim.run();
  EXPECT_EQ(sim.profile().by_kind.size(), 1u);
  EXPECT_EQ(sim.profile().by_kind.at("same.kind").count, 3u);
}

}  // namespace
}  // namespace telea
