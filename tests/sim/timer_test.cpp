#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace telea {
namespace {

TEST(Timer, OneShotFiresOnce) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] { ++fired; });
  t.start_one_shot(100);
  EXPECT_TRUE(t.running());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.running());
}

TEST(Timer, PeriodicFiresRepeatedly) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] { ++fired; });
  t.start_periodic(10);
  sim.run_until(55);
  EXPECT_EQ(fired, 5);
  EXPECT_TRUE(t.running());
}

TEST(Timer, PeriodicWithInitialDelay) {
  Simulator sim;
  Timer t(sim);
  std::vector<SimTime> at;
  t.set_callback([&] { at.push_back(sim.now()); });
  t.start_periodic_at(3, 10);
  sim.run_until(35);
  ASSERT_EQ(at.size(), 4u);
  EXPECT_EQ(at[0], 3u);
  EXPECT_EQ(at[1], 13u);
  EXPECT_EQ(at[3], 33u);
}

TEST(Timer, StopPreventsFiring) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] { ++fired; });
  t.start_one_shot(10);
  t.stop();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RestartRearms) {
  Simulator sim;
  Timer t(sim);
  std::vector<SimTime> at;
  t.set_callback([&] { at.push_back(sim.now()); });
  t.start_one_shot(100);
  sim.run_until(50);
  t.start_one_shot(100);  // re-arm from t=50
  sim.run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 150u);
}

TEST(Timer, ResetDisarmsAndRearmFiresOnce) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] { ++fired; });
  t.start_one_shot(100);
  sim.reset();
  EXPECT_FALSE(t.running());
  EXPECT_TRUE(sim.idle());
  t.start_one_shot(50);
  EXPECT_TRUE(t.running());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_FALSE(t.running());
}

TEST(Timer, ResetDisarmsPeriodic) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] { ++fired; });
  t.start_periodic(10);
  sim.run_until(25);
  EXPECT_EQ(fired, 2);
  sim.reset();
  EXPECT_FALSE(t.running());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 2);
}

TEST(Timer, DestructionCancels) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim);
    t.set_callback([&] { ++fired; });
    t.start_one_shot(10);
  }
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CallbackMayRestartItself) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] {
    if (++fired < 3) t.start_one_shot(10);
  });
  t.start_one_shot(10);
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Timer, RunningInsideOwnCallback) {
  Simulator sim;
  Timer one_shot(sim);
  Timer periodic(sim);
  std::vector<bool> seen;
  one_shot.set_callback([&] { seen.push_back(one_shot.running()); });
  periodic.set_callback([&] { seen.push_back(periodic.running()); });
  one_shot.start_one_shot(5);
  periodic.start_periodic(10);
  sim.run_until(10);
  EXPECT_EQ(seen, (std::vector<bool>{false, true}));
}

TEST(Timer, StopInsideCallbackStopsPeriodic) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.set_callback([&] {
    if (++fired == 2) t.stop();
  });
  t.start_periodic(10);
  sim.run_until(100);
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace telea
