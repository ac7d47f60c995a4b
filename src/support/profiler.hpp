// Per-(phase, level) profiling on the thread CPU clock.
//
// The trace layer answers "where did the wall time go" and the flight
// recorder "how did the solution evolve"; this layer answers "how much
// CPU did each phase burn at each hierarchy level, on how many threads".
// Every interval reads two clocks: the process-wide monotonic clock (wall
// time) and CLOCK_THREAD_CPUTIME_ID (on-CPU time of the calling thread).
// Both exist on every POSIX host, so the report has the same columns
// everywhere; task_clock_ns / wall_ns is the per-phase parallelism.
//
// Two pieces:
//
//  * Profiler — the object a run attaches through Options::profile,
//    following the trace/flight/audit pattern exactly: a null pointer
//    costs one test per hook, and attaching never changes the partition.
//    Deltas fold into (phase, level) buckets under one cold mutex (folds
//    happen per level, never per move).
//
//  * ProfScope — RAII measurement interval used at the existing
//    ScopedPhase/TraceSpan seams. Nested scopes each count their full
//    interval (inclusive semantics, like a sampling profiler's call
//    stack): the "run" scope contains everything once, so it is the
//    denominator for per-phase percentages and the ledger headline.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/thread_annotations.hpp"

namespace mcgp {

class JsonWriter;

/// One (phase, level) aggregation bucket. All additive, so buckets from
/// concurrent scopes merge by summation.
struct ProfBucket {
  std::int64_t scopes = 0;   ///< measurement intervals folded in
  std::int64_t edges = 0;    ///< work items: edges of the graphs measured
  std::int64_t vtxs = 0;     ///< work items: vertices of the graphs measured
  std::int64_t wall_ns = 0;  ///< summed wall time of the intervals
  std::int64_t task_clock_ns = 0;  ///< summed on-CPU time of every thread
};

/// Snapshot entry: one bucket plus its identity.
struct ProfPhase {
  std::string phase;
  int level = -1;  ///< hierarchy level (0 = finest); -1 = not level-scoped
  int threads = 0;  ///< distinct threads that folded into this bucket
  ProfBucket stats;
};

class Profiler {
 public:
  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Merge one measured interval into the (phase, level) bucket. The
  /// calling thread is registered in the bucket's distinct-thread set, so
  /// per-phase reports can show how many threads contributed.
  void fold(const char* phase, int level, const ProfBucket& delta);

  /// Record the run's configured thread count (Options::num_threads);
  /// emitted as the top-level "threads" member of the profile section.
  void set_threads(int n);

  /// All buckets, ordered by (phase, level).
  std::vector<ProfPhase> snapshot() const;
  /// Sum of one phase's buckets across levels (e.g. phase_total("run")
  /// is the ledger headline: the whole-run scope counts everything once).
  ProfBucket phase_total(const std::string& phase) const;

  /// The run report's "profile" section: {"schema_version", "threads",
  /// "phases": [...]}. Each phase object carries its bucket plus the
  /// derived "parallelism" (task_clock_ns / wall_ns) where wall_ns > 0.
  void write_json_value(JsonWriter& w) const;

  /// Drop all buckets. Only valid while no scope is live.
  void clear();

 private:
  friend class ProfScope;

  const std::uint64_t id_;  ///< process-unique; keys the thread-local slot

  mutable Mutex mu_;
  std::map<std::pair<std::string, int>, ProfBucket> buckets_
      MCGP_GUARDED_BY(mu_);
  /// Distinct thread ordinals that folded into each bucket (kept beside
  /// buckets_ so ProfBucket itself stays plain additive data).
  std::map<std::pair<std::string, int>, std::set<std::uint64_t>>
      bucket_threads_ MCGP_GUARDED_BY(mu_);
  int threads_ MCGP_GUARDED_BY(mu_) = 1;
};

/// RAII measurement interval. Detached (null profiler) is one pointer
/// test in the constructor and one in the destructor. Attached, it reads
/// the wall and thread CPU clocks at entry and exit and folds the delta —
/// cheap enough for per-level seams, not meant for per-move granularity.
///
/// An `aux` scope measures a parallel task's slice of a phase whose
/// enclosing scope lives on the submitting thread. It contributes on-CPU
/// time (and its thread identity) but neither wall time nor a scope
/// count — the enclosing scope already supplies both — and it disarms
/// itself when a non-aux scope of the same profiler is already live on
/// the current thread (work helping: the enclosing scope is counting this
/// thread, a second interval would double-count the chunk).
class ProfScope {
 public:
  ProfScope(Profiler* p, const char* phase, int level = -1, bool aux = false)
      : p_(p), phase_(phase), level_(level), aux_(aux) {
    if (p_ == nullptr) return;
    begin();
  }
  ~ProfScope() { finish(); }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  /// Attach work-item counts (the measured graph's edges and vertices)
  /// so the bucket can report CPU time per edge.
  void work(std::int64_t edges, std::int64_t vtxs) {
    edges_ = edges;
    vtxs_ = vtxs;
  }

  /// Fold now instead of at scope exit; idempotent.
  void finish() {
    if (p_ == nullptr) return;
    end();
  }

 private:
  void begin();
  void end();

  Profiler* p_;
  const char* phase_;
  int level_;
  bool aux_ = false;
  std::int64_t edges_ = 0;
  std::int64_t vtxs_ = 0;
  /// monotonic_now_ns() at begin() (support/timer.hpp: one shared clock
  /// for profiler, PhaseTimes and flight recorder).
  std::int64_t t0_ns_ = 0;
  std::int64_t cpu0_ns_ = 0;  ///< thread_cpu_now_ns() at begin()
};

}  // namespace mcgp
