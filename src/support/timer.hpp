// The process-wide monotonic clock and a wall-clock stopwatch on it.
#pragma once

#include <chrono>
#include <cstdint>

namespace mcgp {

/// Nanoseconds on the process-wide monotonic clock. Every wall-clock
/// consumer (WallTimer, the profiler's ProfScope, the flight recorder's
/// sample timestamps) reads this one helper, so their numbers are
/// subtractable against each other.
inline std::int64_t monotonic_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_ns_(monotonic_now_ns()) {}

  void restart() { start_ns_ = monotonic_now_ns(); }

  /// Seconds elapsed since construction or last restart().
  double seconds() const {
    return static_cast<double>(monotonic_now_ns() - start_ns_) * 1e-9;
  }

 private:
  std::int64_t start_ns_;
};

}  // namespace mcgp
