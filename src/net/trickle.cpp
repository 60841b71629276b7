#include "net/trickle.hpp"

namespace telea {

TrickleTimer::TrickleTimer(Simulator& sim, const Config& config,
                           std::uint64_t seed)
    : sim_(&sim),
      config_(config),
      rng_(seed, /*stream=*/0x7121CC1EULL),
      fire_timer_(sim),
      interval_timer_(sim) {
  fire_timer_.set_callback([this] { on_fire(); });
  interval_timer_.set_callback([this] { on_interval_end(); });
  fire_timer_.set_tag("trickle.fire");
  interval_timer_.set_tag("trickle.interval");
}

void TrickleTimer::start() {
  running_ = true;
  interval_ = config_.i_min;
  begin_interval();
}

void TrickleTimer::stop() {
  running_ = false;
  fire_timer_.stop();
  interval_timer_.stop();
}

void TrickleTimer::begin_interval() {
  heard_ = 0;
  // Fire at a uniform point in the second half of the interval (RFC 6206).
  const SimTime half = interval_ / 2;
  const SimTime t =
      half + rng_.uniform(static_cast<std::uint32_t>(
                 std::min<SimTime>(half, 0xFFFFFFFFull))) +
      1;
  fire_timer_.start_one_shot(t);
  interval_timer_.start_one_shot(interval_);
}

void TrickleTimer::on_fire() {
  if (config_.k != 0 && heard_ >= config_.k) return;  // suppressed
  if (fire_) fire_();
}

void TrickleTimer::on_interval_end() {
  if (!running_) return;
  interval_ = std::min(interval_ * 2, config_.i_max);
  begin_interval();
}

void TrickleTimer::hear_consistent() { ++heard_; }

void TrickleTimer::hear_inconsistent() {
  if (running_ && interval_ != config_.i_min) reset();
}

void TrickleTimer::reset() {
  if (!running_) return;
  fire_timer_.stop();
  interval_timer_.stop();
  interval_ = config_.i_min;
  begin_interval();
}

}  // namespace telea
