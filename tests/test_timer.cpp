#include "support/timer.hpp"

#include <gtest/gtest.h>

namespace mcgp {
namespace {

TEST(WallTimer, NonNegativeAndMonotone) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(WallTimer, RestartResets) {
  WallTimer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<double>(i);
  volatile double keep = sink;
  (void)keep;
  t.restart();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace mcgp
