// The one context every multilevel layer takes in place of observer
// pointers.
#pragma once

#include "core/config.hpp"

namespace mcgp {

class ThreadPool;
class WorkspacePool;

/// What a run carries through coarsening, initial partitioning and
/// refinement besides the data: the observers Options attaches, the run's
/// profiler, the pool the data-parallel phases run chunk tasks on, the
/// workspace pool those chunks lease scratch from, and the hierarchy level
/// (0 = finest) their profiler buckets are keyed by. Every field is
/// optional: a detached observer costs one null test, and a null pool
/// runs the identical work inline (each phase picks its algorithm by graph
/// size alone), so partitions stay bit-identical across `num_threads`.
/// Options stays the public surface; the drivers build one context per
/// run with run_context() and per level set only `level`.
struct RunContext {
  TraceRecorder* trace = nullptr;
  InvariantAuditor* audit = nullptr;
  FlightRecorder* flight = nullptr;
  Profiler* profile = nullptr;
  ThreadPool* pool = nullptr;
  WorkspacePool* wspool = nullptr;  ///< per-chunk scratch leases
  int level = 0;                    ///< hierarchy level for the bucket
};

/// The context of a run with `opts`' observers and `profile` on `pool`,
/// leasing chunk scratch from `wspool`, at the finest level.
inline RunContext run_context(const Options& opts, ThreadPool* pool,
                              WorkspacePool* wspool,
                              Profiler* profile = nullptr) {
  return {opts.trace, opts.audit, opts.flight, profile, pool, wspool, 0};
}

}  // namespace mcgp
