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
// Three pieces:
//
//  * Profiler — the buckets of one run. partition() and
//    refine_partition() own one per call and hand it to the drivers next
//    to the pool; measuring never changes the partition. Deltas fold into
//    (phase, level) buckets under one cold mutex (folds happen per level,
//    never per move).
//
//  * RunProfile — what a run returns of its profiler
//    (PartitionResult::profile): the thread count and the buckets.
//
//  * ProfScope — RAII measurement interval at the pipeline's seams.
//    Nested scopes each count their full interval (inclusive semantics,
//    like a sampling profiler's call stack): the "run" scope contains
//    everything once, so it is the denominator for per-phase percentages
//    and the ledger headline.
//
// The run's phase times (PartitionResult::phases) come from the same
// scopes. A top-level phase scope is one that no other phase scope
// encloses on its thread (the "run" scope does not count). Its thread CPU
// time is added to the phase's cpu total on every thread; its wall time
// only on the run's calling thread, the critical path. Top-level scopes
// on one thread never overlap, so the wall totals sum to at most the
// run's wall time and the cpu totals to at most the process CPU time.
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

/// Totals of one phase's top-level scopes (see the file comment).
struct PhaseClock {
  std::int64_t wall_ns = 0;  ///< on the run's calling thread only
  std::int64_t cpu_ns = 0;   ///< thread CPU time on every thread
};

/// Snapshot entry: one bucket plus its identity.
struct ProfPhase {
  std::string phase;
  int level = -1;  ///< hierarchy level (0 = finest); -1 = not level-scoped
  int threads = 0;  ///< distinct threads that folded into this bucket
  ProfBucket stats;
};

/// A run's profile as PartitionResult::profile returns it.
struct RunProfile {
  int threads = 1;                ///< the run's Options::num_threads
  std::vector<ProfPhase> phases;  ///< every bucket, ordered by (phase, level)

  /// Sum of one phase's buckets across levels (total("run") is the
  /// ledger headline: the whole-run scope counts everything once).
  ProfBucket total(const std::string& phase) const;

  /// The run report's "profile" section: {"schema_version", "threads",
  /// "phases": [...]}. Each phase object carries its bucket plus the
  /// derived "parallelism" (task_clock_ns / wall_ns) where wall_ns > 0.
  void write_json_value(JsonWriter& w) const;
};

class Profiler {
 public:
  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Merge one measured interval into the (phase, level) bucket. The
  /// calling thread is registered in the bucket's distinct-thread set, so
  /// per-phase reports can show how many threads contributed. A non-null
  /// `top` is the interval's share of the phase's top-level totals.
  void fold(const char* phase, int level, const ProfBucket& delta,
            const PhaseClock* top = nullptr);

  /// All buckets, ordered by (phase, level).
  std::vector<ProfPhase> snapshot() const;
  /// RunProfile::total of the buckets so far.
  ProfBucket phase_total(const std::string& phase) const;
  /// Top-level totals by phase, levels summed: the run's phases.
  std::map<std::string, PhaseClock> top_level() const;
  /// On-CPU time of every top-level interval folded so far, all threads
  /// and phases together.
  std::int64_t top_level_cpu_ns() const;

  /// The buckets so far as a one-thread RunProfile's "profile" section.
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
  std::map<std::string, PhaseClock> top_ MCGP_GUARDED_BY(mu_);
  std::int64_t top_cpu_ns_ MCGP_GUARDED_BY(mu_) = 0;
};

/// RAII measurement interval. Detached (null profiler) is one pointer
/// test in the constructor and one in the destructor. Attached, it reads
/// the wall and thread CPU clocks at entry and exit and folds the delta —
/// cheap enough for per-level seams, not meant for per-move granularity.
///
/// A `kAux` scope measures a parallel task's slice of a phase whose
/// enclosing scope lives on the submitting thread. It contributes on-CPU
/// time (and its thread identity) but neither wall time nor a scope
/// count — the enclosing scope already supplies both — and it disarms
/// itself when a non-aux scope of the same profiler is already live on
/// the current thread (work helping: the enclosing scope is counting this
/// thread, a second interval would double-count the chunk).
///
/// The `kRun` scope is the whole run: it marks its thread as the run's
/// calling thread and encloses no top-level phase. Its on-CPU time is the
/// calling thread's plus the top-level time every other thread folded
/// while it was live, so it covers the CPU the run's pool tasks burned.
/// (Tasks are joined before the run ends, and a run owns its profiler.)
///
/// A `kWait` scope times the run's calling thread while it joins forked
/// tasks. It arms only on that thread and only where no phase scope is
/// live (a wait inside a phase stays that phase's time), and it does not
/// enclose: phases the thread runs while it helps stay top-level. Its
/// wall and CPU time are its interval minus the top-level time folded on
/// the thread inside it, nested waits included.
class ProfScope {
 public:
  enum Kind { kPhase, kAux, kRun, kWait };

  ProfScope(Profiler* p, const char* phase, int level = -1, Kind kind = kPhase)
      : p_(p), phase_(phase), level_(level), kind_(kind) {
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

  /// Fold now instead of at scope exit; idempotent. Returns the
  /// interval's wall time (0 when detached, aux or already folded).
  std::int64_t finish() {
    if (p_ == nullptr) return 0;
    return end();
  }

 private:
  void begin();
  std::int64_t end();

  Profiler* p_;
  const char* phase_;
  int level_;
  Kind kind_;
  bool top_ = false;       ///< no other phase scope encloses this one
  bool critical_ = false;  ///< top_ and on the run's calling thread
  std::int64_t edges_ = 0;
  std::int64_t vtxs_ = 0;
  /// monotonic_now_ns() at begin() (support/timer.hpp: one shared clock
  /// for the profiler and the flight recorder).
  std::int64_t t0_ns_ = 0;
  std::int64_t cpu0_ns_ = 0;  ///< thread_cpu_now_ns() at begin()
  /// kWait and kRun: the thread's folded top-level wall and CPU time at
  /// begin().
  std::int64_t top_wall0_ns_ = 0;
  std::int64_t top_cpu0_ns_ = 0;
  /// kRun: the profiler's top_level_cpu_ns() at begin().
  std::int64_t all_top_cpu0_ns_ = 0;
};

}  // namespace mcgp
