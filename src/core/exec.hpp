// Execution context of the data-parallel phases: handshake matching,
// chunked contraction, and the colored k-way sweep.
#pragma once

namespace mcgp {

class ThreadPool;
class WorkspacePool;
class Profiler;

/// Where a data-parallel phase runs its chunk tasks, where the chunks
/// lease scratch, and how their on-CPU time is attributed. Every field is
/// optional: each phase selects its algorithm by graph size alone, never
/// by the pool or thread count, so a null exec (or null pool) runs the
/// identical work inline and partitions stay bit-identical across
/// `num_threads`.
struct PhaseExec {
  ThreadPool* pool = nullptr;
  WorkspacePool* wspool = nullptr;  ///< per-chunk scratch leases
  Profiler* profile = nullptr;      ///< aux attribution of worker chunks
  int level = -1;                   ///< hierarchy level for the bucket
};

}  // namespace mcgp
