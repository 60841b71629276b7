// The protocol stack at the LPL wake interval: it converges and delivers,
// and idle duty stays near the ideal CCA window / wake interval ratio.

#include <gtest/gtest.h>

#include "harness/network.hpp"
#include "topo/topology.hpp"

namespace telea {
namespace {

using namespace time_literals;

TEST(WakeInterval, StackConvergesAndDelivers) {
  NetworkConfig cfg;
  cfg.topology = make_line(4, 22.0);
  cfg.seed = 7;
  cfg.protocol = ControlProtocol::kReTele;
  Network net(cfg);
  net.start();
  net.run_for(6_min);
  ASSERT_TRUE(net.node(3).tele()->addressing().has_code());

  bool delivered = false;
  net.node(3).tele()->on_control_delivered =
      [&delivered](const msg::ControlPacket&, bool) { delivered = true; };
  net.sink().tele()->send_control(
      3, net.node(3).tele()->addressing().code(), 1);
  net.run_for(1_min);
  EXPECT_TRUE(delivered);
}

TEST(WakeInterval, IdleDutyNearCcaRatio) {
  NetworkConfig cfg;
  cfg.topology = make_line(2, 500.0);  // out of range: pure idle listening
  cfg.seed = 8;
  cfg.protocol = ControlProtocol::kDrip;
  Network net(cfg);
  net.start();
  net.run_for(2_min);
  net.reset_accounting();
  net.run_for(5_min);
  const double duty = net.average_duty_cycle();
  const double expected = to_millis(kCcaWindow) / to_millis(kWakeInterval);
  // The wake window plus the multi-sample sleep check: within ~2.5x of the
  // ideal CCA/interval ratio.
  EXPECT_GT(duty, expected * 0.8);
  EXPECT_LT(duty, expected * 2.5 + 0.01);
}

}  // namespace
}  // namespace telea
