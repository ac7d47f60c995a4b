// Lightweight wall-clock timers and a named phase-timing accumulator.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/thread_annotations.hpp"
#include "support/types.hpp"

namespace mcgp {

/// Nanoseconds on the process-wide monotonic clock. Every wall-clock
/// consumer (WallTimer/PhaseTimes, the profiler's ProfScope, the flight
/// recorder's sample timestamps) reads this one helper, so their numbers
/// are subtractable against each other: a phase's profile row and the
/// same phase in a ledger record come from the same clock by
/// construction.
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

/// Accumulates per-phase timings (coarsening / initial / refinement / ...)
/// across a partitioning run. add()/get() are thread-safe so concurrent
/// subproblems of the task-parallel drivers can share one accumulator; the
/// totals then sum CPU-side time across threads, which can exceed wall
/// time. entries() is unsynchronized — read it only after parallel work
/// has been joined.
class PhaseTimes {
 public:
  PhaseTimes() = default;
  PhaseTimes(const PhaseTimes& o);
  PhaseTimes& operator=(const PhaseTimes& o);

  /// Add `seconds` to the named phase, creating it on first use.
  void add(const std::string& phase, double seconds);

  /// Total accumulated for the named phase (0 if never recorded).
  double get(const std::string& phase) const;

  /// All (phase, seconds) pairs in first-use order. Unsynchronized by
  /// contract (see class comment): callers read it only after parallel
  /// work has been joined, and a returned reference could not stay
  /// protected past the accessor anyway — hence the analysis opt-out.
  const std::vector<std::pair<std::string, double>>& entries() const
      MCGP_NO_THREAD_SAFETY_ANALYSIS {
    return entries_;
  }

  void clear() {
    MutexLock lk(mu_);
    entries_.clear();
    index_.clear();
  }

 private:
  mutable Mutex mu_;
  std::vector<std::pair<std::string, double>> entries_ MCGP_GUARDED_BY(mu_);
  /// Phase name -> position in entries_ (O(1) add/get; entries_ keeps
  /// first-use order for reporting).
  std::unordered_map<std::string, std::size_t> index_ MCGP_GUARDED_BY(mu_);
};

/// RAII helper that adds its lifetime to a PhaseTimes entry.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimes& times, std::string phase)
      : times_(times), phase_(std::move(phase)) {}
  ~ScopedPhase() { times_.add(phase_, timer_.seconds()); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimes& times_;
  std::string phase_;
  WallTimer timer_;
};

}  // namespace mcgp
