#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.hpp"

namespace telea {

/// RAII one-shot / periodic timer bound to a Simulator — the C++ analogue of
/// TinyOS's Timer interface. Destroying (or stopping) the timer cancels any
/// pending firing, so a component can never be called back after teardown.
///
/// The timer owns one event-queue slot from construction to destruction
/// (EventQueue::add_timer), so arming builds no callback: it takes a seq
/// and pushes a heap entry. Simulator::reset() disarms it.
class Timer {
 public:
  using Callback = std::function<void()>;

  explicit Timer(Simulator& sim)
      : sim_(&sim), slot_(sim.queue_.add_timer(&Timer::dispatch, this)) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { sim_->queue_.remove_timer(slot_); }

  void set_callback(Callback cb) { callback_ = std::move(cb); }

  /// Names this timer's firings for the simulator self-profiler (string
  /// literal lifetime required). Optional; untagged timers profile together.
  void set_tag(const char* tag) noexcept { tag_ = tag; }

  /// Fires once after `delay`. Restarting an armed timer re-arms it.
  void start_one_shot(SimTime delay) {
    period_ = 0;
    arm(delay);
  }

  /// Fires every `period`, first firing after `period`.
  void start_periodic(SimTime period) {
    period_ = period;
    arm(period);
  }

  /// Fires every `period`, first firing after `initial_delay`.
  void start_periodic_at(SimTime initial_delay, SimTime period) {
    period_ = period;
    arm(initial_delay);
  }

  void stop() noexcept { sim_->queue_.disarm_timer(slot_); }

  /// Whether a firing is pending: false inside a one-shot's own callback,
  /// true inside a periodic timer's (it re-arms before calling back).
  [[nodiscard]] bool running() const noexcept {
    return sim_->queue_.timer_armed(slot_);
  }

 private:
  void arm(SimTime delay) {
    sim_->queue_.arm_timer(slot_, sim_->now_ + delay, tag_);
  }

  static void dispatch(void* timer) { static_cast<Timer*>(timer)->fire(); }

  void fire() {
    if (period_ > 0) arm(period_);
    if (callback_) callback_();
  }

  Simulator* sim_;
  std::uint32_t slot_;
  Callback callback_;
  SimTime period_ = 0;
  const char* tag_ = nullptr;
};

}  // namespace telea
