#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace telea {

/// Self-profiling counters the kernel gathers about its own dispatch loop
/// when profiling is enabled: how many events ran, how deep the queue got,
/// and where the host wall-clock actually went, per event-kind tag.
struct SimProfile {
  struct KindStats {
    std::uint64_t count = 0;
    double wall_seconds = 0.0;
  };

  std::uint64_t events_dispatched = 0;
  std::size_t max_queue_depth = 0;
  double wall_seconds = 0.0;
  /// Keyed by the tag passed at schedule time; untagged events aggregate
  /// under "(untagged)".
  std::map<std::string, KindStats> by_kind;

  /// Human-readable table, sorted by wall-clock share.
  [[nodiscard]] std::string render() const;
};

/// The discrete-event simulation kernel: a virtual clock plus an event queue.
/// Components schedule callbacks at absolute or relative virtual times; run()
/// advances the clock event-by-event. Single-threaded and deterministic.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` after `delay` from now. `tag` labels the event kind for
  /// the self-profiler (string literal lifetime required).
  EventHandle schedule_in(SimTime delay, EventQueue::Callback cb,
                          const char* tag = nullptr) {
    return queue_.schedule(now_ + delay, std::move(cb), tag);
  }

  /// Schedules `cb` at absolute time `when`; times in the past fire
  /// immediately-next (clamped to now).
  EventHandle schedule_at(SimTime when, EventQueue::Callback cb,
                          const char* tag = nullptr) {
    return queue_.schedule(when < now_ ? now_ : when, std::move(cb), tag);
  }

  void cancel(EventHandle& handle) { queue_.cancel(handle); }

  /// Runs until the queue drains or the clock passes `until` (events at
  /// exactly `until` still fire). Returns the number of events executed.
  std::uint64_t run_until(SimTime until);

  /// Runs until the queue drains. Returns the number of events executed.
  std::uint64_t run();

  /// Executes at most one pending event. Returns false when the queue is
  /// empty or the next event is beyond `until`.
  bool step(SimTime until) {
    if (profiling_) return step_profiled(until);
    if (queue_.empty()) return false;
    if (queue_.next_time() > until) return false;
    auto fired = queue_.pop();
    now_ = fired.time;
    fired.callback();
    return true;
  }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }

  /// Drops all pending events and resets the clock to zero (profiling
  /// counters included).
  void reset();

  /// Toggles dispatch-loop self-profiling. Off by default: the profiled
  /// path adds two steady_clock reads per event, so step() only takes it
  /// when enabled.
  void set_profiling(bool enabled) noexcept { profiling_ = enabled; }
  [[nodiscard]] bool profiling() const noexcept { return profiling_; }
  [[nodiscard]] const SimProfile& profile() const noexcept { return profile_; }
  void clear_profile() {
    profile_ = SimProfile{};
    kind_cache_.clear();
  }

 private:
  bool step_profiled(SimTime until);

  /// `profile_.by_kind` entry for `tag`, found by pointer in `kind_cache_`
  /// so a dispatch builds no string and walks no map once a tag is seen.
  SimProfile::KindStats& kind_stats(const char* tag);

  EventQueue queue_;
  SimTime now_ = 0;
  bool profiling_ = false;
  SimProfile profile_;
  // Tag pointer -> its by_kind entry (map nodes are stable). A handful of
  // tags exist, so a linear scan beats hashing.
  std::vector<std::pair<const char*, SimProfile::KindStats*>> kind_cache_;
};

}  // namespace telea
