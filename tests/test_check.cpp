// Boundary tests for the checked sum_t arithmetic in support/check.hpp:
// exact behavior at the INT64 rails and the checked_narrow range gates.
// The audit layer leans on these primitives to recompute invariants over
// adversarial inputs, so "throws exactly when the mathematical result
// leaves [INT64_MIN, INT64_MAX]" is itself an invariant worth pinning.
#include "support/check.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace mcgp {
namespace {

constexpr sum_t kMax = std::numeric_limits<sum_t>::max();
constexpr sum_t kMin = std::numeric_limits<sum_t>::min();

TEST(CheckedAdd, ExactAtUpperRail) {
  EXPECT_EQ(checked_add(checked_sub(kMax, 1), 1), kMax);
  EXPECT_EQ(checked_add(kMax, 0), kMax);
  EXPECT_EQ(checked_add(0, kMax), kMax);
  EXPECT_THROW(checked_add(kMax, 1), AuditFailure);
  EXPECT_THROW(checked_add(1, kMax), AuditFailure);
  EXPECT_THROW(checked_add(checked_add(kMax / 2, 1), checked_add(kMax / 2, 1)),
               AuditFailure);
}

TEST(CheckedAdd, ExactAtLowerRail) {
  EXPECT_EQ(checked_add(checked_add(kMin, 1), -1), kMin);
  EXPECT_EQ(checked_add(kMin, 0), kMin);
  EXPECT_THROW(checked_add(kMin, -1), AuditFailure);
  EXPECT_THROW(checked_add(-1, kMin), AuditFailure);
}

TEST(CheckedAdd, MixedSignsNeverOverflow) {
  EXPECT_EQ(checked_add(kMax, kMin), -1);
  EXPECT_EQ(checked_add(kMin, kMax), -1);
}

TEST(CheckedSub, ExactAtRails) {
  EXPECT_EQ(checked_sub(kMax, 0), kMax);
  EXPECT_EQ(checked_sub(kMin, 0), kMin);
  EXPECT_EQ(checked_sub(checked_add(kMin, 1), 1), kMin);
  EXPECT_EQ(checked_sub(-1, kMax), kMin);
  EXPECT_THROW(checked_sub(kMin, 1), AuditFailure);
  EXPECT_THROW(checked_sub(kMax, -1), AuditFailure);
  // -kMin does not exist in two's complement.
  EXPECT_THROW(checked_sub(0, kMin), AuditFailure);
  EXPECT_EQ(checked_sub(0, kMax), checked_add(kMin, 1));
}

TEST(CheckedMul, ExactAtRails) {
  EXPECT_EQ(checked_mul(kMax, 1), kMax);
  EXPECT_EQ(checked_mul(kMin, 1), kMin);
  EXPECT_EQ(checked_mul(kMax / 2, 2), checked_sub(kMax, 1));
  EXPECT_THROW(checked_mul(checked_add(kMax / 2, 1), 2), AuditFailure);
  EXPECT_THROW(checked_mul(kMax, 2), AuditFailure);
  // kMin * -1 == kMax + 1: the one asymmetric two's-complement case.
  EXPECT_THROW(checked_mul(kMin, -1), AuditFailure);
  EXPECT_EQ(checked_mul(kMin / 2, 2), kMin);
  EXPECT_THROW(checked_mul(checked_sub(kMin / 2, 1), 2), AuditFailure);
}

TEST(CheckedMul, ZeroAndSigns) {
  EXPECT_EQ(checked_mul(kMax, 0), 0);
  EXPECT_EQ(checked_mul(kMin, 0), 0);
  EXPECT_EQ(checked_mul(-3, 7), -21);
  EXPECT_EQ(checked_mul(-3, -7), 21);
}

TEST(CheckedNarrow, Wgt32Rails) {
  constexpr sum_t lo = std::numeric_limits<wgt_t>::min();
  constexpr sum_t hi = std::numeric_limits<wgt_t>::max();
  EXPECT_EQ(checked_narrow<wgt_t>(hi), std::numeric_limits<wgt_t>::max());
  EXPECT_EQ(checked_narrow<wgt_t>(lo), std::numeric_limits<wgt_t>::min());
  EXPECT_EQ(checked_narrow<wgt_t>(0), 0);
  EXPECT_EQ(checked_narrow<wgt_t>(-1), -1);
  EXPECT_THROW(checked_narrow<wgt_t>(checked_add(hi, 1)), AuditFailure);
  EXPECT_THROW(checked_narrow<wgt_t>(checked_sub(lo, 1)), AuditFailure);
  EXPECT_THROW(checked_narrow<wgt_t>(kMax), AuditFailure);
  EXPECT_THROW(checked_narrow<wgt_t>(kMin), AuditFailure);
}

TEST(CheckedNarrow, Idx32Rails) {
  constexpr sum_t hi = std::numeric_limits<idx_t>::max();
  EXPECT_EQ(checked_narrow<idx_t>(hi), std::numeric_limits<idx_t>::max());
  EXPECT_THROW(checked_narrow<idx_t>(checked_add(hi, 1)), AuditFailure);
}

TEST(CheckedNarrow, NarrowerTypes) {
  EXPECT_EQ(checked_narrow<std::int16_t>(32767), 32767);
  EXPECT_THROW(checked_narrow<std::int16_t>(32768), AuditFailure);
  EXPECT_EQ(checked_narrow<std::uint8_t>(255), 255);
  EXPECT_THROW(checked_narrow<std::uint8_t>(256), AuditFailure);
  // Unsigned targets reject negatives outright.
  EXPECT_THROW(checked_narrow<std::uint8_t>(-1), AuditFailure);
}

TEST(CheckedOps, ErrorMessagesCarryOperands) {
  try {
    checked_add(kMax, 25);
    FAIL() << "checked_add(kMax, 25) must throw";
  } catch (const AuditFailure& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checked_add"), std::string::npos);
    EXPECT_NE(msg.find("25"), std::string::npos);
  }
  try {
    checked_narrow<wgt_t>(kMax);
    FAIL() << "checked_narrow(kMax) must throw";
  } catch (const AuditFailure& e) {
    EXPECT_NE(std::string(e.what()).find("checked_narrow"),
              std::string::npos);
  }
}

// The throw sits in a cold out-of-line reporter; the message each checked
// operation raises is part of the diagnosis and must read exactly as it
// did when every function built its own.
TEST(CheckedOps, ErrorMessagesAreExact) {
  auto what = [](auto&& op) -> std::string {
    try {
      op();
    } catch (const AuditFailure& e) {
      return e.what();
    }
    return "<no throw>";
  };
  EXPECT_EQ(what([] { checked_add(kMax, 25); }),
            "sum_t overflow in checked_add(9223372036854775807, 25)");
  EXPECT_EQ(what([] { checked_sub(kMin, 1); }),
            "sum_t overflow in checked_sub(-9223372036854775808, 1)");
  EXPECT_EQ(what([] { checked_sub(-7, kMax); }),
            "sum_t overflow in checked_sub(-7, 9223372036854775807)");
  EXPECT_EQ(what([] { checked_mul(kMax, -2); }),
            "sum_t overflow in checked_mul(9223372036854775807, -2)");
  EXPECT_EQ(what([] { checked_narrow<wgt_t>(2147483648); }),
            "value 2147483648 does not fit the narrow type in checked_narrow");
  EXPECT_EQ(what([] { checked_narrow<std::uint8_t>(-1); }),
            "value -1 does not fit the narrow type in checked_narrow");
}

// The audit layer treats AuditFailure as "bug in the partitioner", not
// "bad input" — pin the exception taxonomy the fuzz harnesses rely on.
TEST(CheckedOps, AuditFailureIsLogicError) {
  EXPECT_THROW(checked_add(kMax, 1), std::logic_error);
  static_assert(std::is_base_of_v<std::logic_error, AuditFailure>);
}

}  // namespace
}  // namespace mcgp
