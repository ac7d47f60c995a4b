// Checked arithmetic and invariant-assertion macros for the audit layer.
//
// The partitioner's bookkeeping (part weights, cut values, FM gains) is
// maintained incrementally for speed and therefore drifts silently when a
// code path forgets an update. The audit layer (core/audit.hpp) recomputes
// those quantities from scratch at pipeline seams and compares; this
// header supplies its two building blocks:
//
//  * checked sum_t arithmetic — recomputations over adversarial inputs
//    (huge weights from a fuzzer or a hostile file) must report overflow
//    as a diagnosable failure instead of wrapping into silently-wrong
//    "expected" values that mask or fabricate violations;
//
//  * MCGP_AUDIT / MCGP_AUDIT_MSG — assertion macros that compile to a
//    null-pointer test when auditing is off and raise AuditFailure with
//    file/line/expression context when an invariant does not hold.
#pragma once

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "support/types.hpp"

namespace mcgp {

/// Thrown when a runtime invariant audit fails (or when a checked
/// recomputation overflows). Deriving from logic_error rather than
/// runtime_error: a violation is a bug in the partitioner, not bad input.
class AuditFailure : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// a + b with overflow detection.
inline sum_t checked_add(sum_t a, sum_t b) {
  sum_t r;
  if (__builtin_add_overflow(a, b, &r)) {
    throw AuditFailure("sum_t overflow in checked_add(" + std::to_string(a) +
                       ", " + std::to_string(b) + ")");
  }
  return r;
}

/// a - b with overflow detection.
inline sum_t checked_sub(sum_t a, sum_t b) {
  sum_t r;
  if (__builtin_sub_overflow(a, b, &r)) {
    throw AuditFailure("sum_t overflow in checked_sub(" + std::to_string(a) +
                       ", " + std::to_string(b) + ")");
  }
  return r;
}

/// a * b with overflow detection.
inline sum_t checked_mul(sum_t a, sum_t b) {
  sum_t r;
  if (__builtin_mul_overflow(a, b, &r)) {
    throw AuditFailure("sum_t overflow in checked_mul(" + std::to_string(a) +
                       ", " + std::to_string(b) + ")");
  }
  return r;
}

/// Narrow a wide accumulator to a smaller integer type (idx_t, wgt_t) with
/// a range check. This is the only sanctioned way to go from sum_t back to
/// the narrow graph types — mcgp-lint's `narrowing` rule rejects raw
/// static_casts of sum_t expressions so that every narrowing either proves
/// its range or fails loudly instead of wrapping.
template <typename To>
inline To checked_narrow(sum_t v) {
  static_assert(std::is_integral_v<To> && sizeof(To) < sizeof(sum_t),
                "checked_narrow targets a strictly narrower integer type");
  To r = static_cast<To>(v);
  if (static_cast<sum_t>(r) != v) {
    throw AuditFailure("value " + std::to_string(v) +
                       " does not fit the narrow type in checked_narrow");
  }
  return r;
}

namespace detail {

/// Stream-concatenate arbitrary values into the audit message.
template <typename... Args>
std::string audit_msg(const Args&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}

/// Null test for the audit macros. Routing the comparison through a
/// function keeps `MCGP_AUDIT(this, ...)` inside InvariantAuditor methods
/// free of -Wnonnull-compare (a literal `this != nullptr` is flagged).
inline bool audit_on(const void* aud) { return aud != nullptr; }

}  // namespace detail

}  // namespace mcgp

/// Assert `cond` under a (possibly null) auditor. `aud` must point to an
/// object with `fail(file, line, expr, msg)`; a null auditor makes the
/// whole statement one pointer test. The message expression is evaluated
/// only on failure.
#define MCGP_AUDIT_MSG(aud, cond, ...)                                      \
  do {                                                                      \
    if (::mcgp::detail::audit_on(aud) && !(cond)) {                         \
      (aud)->fail(__FILE__, __LINE__, #cond,                                \
                  ::mcgp::detail::audit_msg(__VA_ARGS__));                  \
    }                                                                       \
  } while (0)

/// Message-free form: the stringified condition is the diagnosis.
#define MCGP_AUDIT(aud, cond) MCGP_AUDIT_MSG(aud, cond, "")
