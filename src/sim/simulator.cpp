#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

namespace telea {

std::string SimProfile::render() const {
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "events dispatched: %llu, max queue depth: %zu, wall: %.3fs\n",
                static_cast<unsigned long long>(events_dispatched),
                max_queue_depth, wall_seconds);
  out += buf;
  std::vector<std::pair<std::string, KindStats>> rows(by_kind.begin(),
                                                      by_kind.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.wall_seconds > b.second.wall_seconds;
  });
  for (const auto& [tag, stats] : rows) {
    std::snprintf(buf, sizeof(buf), "  %-24s %10llu events  %10.6fs wall\n",
                  tag.c_str(), static_cast<unsigned long long>(stats.count),
                  stats.wall_seconds);
    out += buf;
  }
  return out;
}

bool Simulator::step_profiled(SimTime until) {
  if (queue_.empty()) return false;
  if (queue_.next_time() > until) return false;
  profile_.max_queue_depth = std::max(profile_.max_queue_depth, queue_.size());
  auto fired = queue_.pop();
  now_ = fired.time;
  const auto t0 = std::chrono::steady_clock::now();
  fired.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double elapsed = std::chrono::duration<double>(t1 - t0).count();
  ++profile_.events_dispatched;
  profile_.wall_seconds += elapsed;
  auto& kind = kind_stats(fired.tag);
  ++kind.count;
  kind.wall_seconds += elapsed;
  return true;
}

SimProfile::KindStats& Simulator::kind_stats(const char* tag) {
  for (const auto& [cached, stats] : kind_cache_) {
    if (cached == tag) return *stats;
  }
  auto& stats = profile_.by_kind[tag != nullptr ? tag : "(untagged)"];
  kind_cache_.emplace_back(tag, &stats);
  return stats;
}

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t executed = 0;
  while (step(until)) ++executed;
  // Even with no event exactly at `until`, the clock should land there so
  // callers can continue from a well-defined point.
  if (now_ < until) now_ = until;
  return executed;
}

std::uint64_t Simulator::run() {
  std::uint64_t executed = 0;
  while (step(std::numeric_limits<SimTime>::max())) ++executed;
  return executed;
}

void Simulator::reset() {
  queue_.clear();
  now_ = 0;
  clear_profile();
}

}  // namespace telea
