#include "support/timer.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace mcgp {
namespace {

// Every phase time is a difference of two monotonic_now_ns() readings, so
// successive readings must never go backwards.
TEST(MonotonicClock, NonDecreasing) {
  std::int64_t prev = monotonic_now_ns();
  EXPECT_GT(prev, 0);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t now = monotonic_now_ns();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace mcgp
