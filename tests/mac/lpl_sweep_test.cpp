// Parameter sweeps over the LPL wake interval: the protocol stack must work
// across duty-cycling regimes, with idle duty scaling inversely with the
// interval and unicast latency scaling with it.

#include <gtest/gtest.h>

#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

class WakeIntervalSweep : public ::testing::TestWithParam<SimTime> {};

TEST_P(WakeIntervalSweep, StackConvergesAndDelivers) {
  NetworkConfig cfg;
  cfg.topology = make_line(4, 22.0);
  cfg.seed = 7;
  cfg.protocol = ControlProtocol::kReTele;
  cfg.lpl.wake_interval = GetParam();
  Network net(cfg);
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(3).tele()->addressing().has_code())
      << "wake " << to_millis(GetParam()) << " ms";

  bool delivered = false;
  net.node(3).tele()->on_control_delivered =
      [&delivered](const msg::ControlPacket&, bool) { delivered = true; };
  net.sink().tele()->send_control(
      3, net.node(3).tele()->addressing().code(), 1);
  net.run_for(1_min);
  EXPECT_TRUE(delivered);
}

TEST_P(WakeIntervalSweep, IdleDutyScalesInversely) {
  NetworkConfig cfg;
  cfg.topology = make_line(2, 500.0);  // out of range: pure idle listening
  cfg.seed = 8;
  cfg.protocol = ControlProtocol::kDrip;
  cfg.lpl.wake_interval = GetParam();
  Network net(cfg);
  net.start();
  net.run_for(2_min);
  net.reset_accounting();
  net.run_for(5_min);
  const double duty = net.average_duty_cycle();
  const double expected =
      to_millis(kCcaWindow) / to_millis(GetParam());
  // The wake window plus the multi-sample sleep check: within ~2.5x of the
  // ideal CCA/interval ratio, and always below 20%.
  EXPECT_GT(duty, expected * 0.8);
  EXPECT_LT(duty, expected * 2.5 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Intervals, WakeIntervalSweep,
                         ::testing::Values(256 * kMillisecond,
                                           512 * kMillisecond,
                                           1024 * kMillisecond));

TEST(WakeIntervalEffect, LatencyGrowsWithInterval) {
  auto latency_for = [](SimTime wake) {
    NetworkConfig cfg;
    cfg.topology = make_line(4, 22.0);
    cfg.seed = 9;
    cfg.protocol = ControlProtocol::kReTele;
    cfg.lpl.wake_interval = wake;
    Network net(cfg);
    net.start();
    net.run_for(8_min);
    SimTime sum = 0;
    int got = 0;
    for (int i = 0; i < 5; ++i) {
      SimTime at = 0;
      bool ok = false;
      net.node(3).tele()->on_control_delivered =
          [&](const msg::ControlPacket&, bool) {
            ok = true;
            at = net.sim().now();
          };
      const SimTime t0 = net.sim().now();
      net.sink().tele()->send_control(
          3, net.node(3).tele()->addressing().code(), 1);
      net.run_for(30_s);
      if (ok) {
        sum += at - t0;
        ++got;
      }
    }
    return got > 0 ? sum / static_cast<SimTime>(got) : SimTime{0};
  };
  const SimTime fast = latency_for(128 * kMillisecond);
  const SimTime slow = latency_for(1024 * kMillisecond);
  ASSERT_GT(fast, 0u);
  ASSERT_GT(slow, 0u);
  EXPECT_GT(slow, fast);  // per-hop rendezvous scales with the interval
}

}  // namespace
}  // namespace telea
