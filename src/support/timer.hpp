// The process-wide monotonic clock.
#pragma once

#include <chrono>
#include <cstdint>

namespace mcgp {

/// Nanoseconds on the process-wide monotonic clock. Every wall-clock
/// consumer (the profiler's ProfScope and so every phase time, the flight
/// recorder's and the trace's timestamps) reads this one helper, so
/// their numbers are subtractable against each other.
inline std::int64_t monotonic_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace mcgp
