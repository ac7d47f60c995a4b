// MC-RB: multilevel recursive bisection for multi-constraint k-way
// partitioning (pmetis-style).
//
// Each bisection is itself multilevel (coarsen -> initial bisection ->
// refined uncoarsening); k-way partitions are obtained by recursing on the
// two induced halves with proportional target fractions (ceil(k/2) /
// floor(k/2)), so any k >= 1 is supported. Per-bisection tolerances are
// ub^(1/ceil(log2 k)) because nested bisection imbalances multiply.
//
// Parallelism: the two halves of every split recurse as independent tasks
// on an optional thread pool, and initial-bisection trials fan out on the
// same pool. Every subproblem seeds a private RNG stream from the root
// seed and its (part0, k) position in the recursion tree, so the result is
// a pure function of the seed — identical for every thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "core/bisection.hpp"
#include "core/coarsen.hpp"
#include "core/config.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "support/workspace.hpp"

namespace mcgp {

/// The top hierarchy of a multilevel run (either driver fills levels and
/// coarsest_nvtxs) and, for one bisection, its cut.
struct MlBisectStats {
  int levels = 0;
  idx_t coarsest_nvtxs = 0;
  sum_t cut = 0;
};

/// One multilevel bisection of g according to `targets`. Fills `where`
/// with a 0/1 assignment and returns the cut. A non-null `ws` supplies
/// scratch buffers for coarsening and projection. `parent` is the context
/// of the enclosing MC-RB run (its pool runs the initial-bisection trials
/// concurrently); null runs serially with opts' observers.
sum_t multilevel_bisect(const Graph& g, std::vector<idx_t>& where,
                        const BisectionTargets& targets, const Options& opts,
                        Rng& rng, MlBisectStats* stats = nullptr,
                        Workspace* ws = nullptr,
                        const RunContext* parent = nullptr);

/// Full MC-RB k-way partitioning. Returns the part vector (size g.nvtxs,
/// ids in [0, opts.nparts)). Runs on `pool` when non-null; otherwise
/// creates its own pool when opts.num_threads > 1. A non-null `profile`
/// receives the run's phase scopes, the calling thread's idle joins
/// among them ("rb.wait").
std::vector<idx_t> partition_recursive_bisection(
    const Graph& g, const Options& opts, Rng& rng,
    MlBisectStats* top_stats = nullptr, ThreadPool* pool = nullptr,
    Profiler* profile = nullptr);

/// The six-argument form perfbench's replay calls, from when a phase-time
/// accumulator filled the fourth slot; like the spelled-out kway_refine
/// overload, it exists only for the replay.
inline std::vector<idx_t> partition_recursive_bisection(
    const Graph& g, const Options& opts, Rng& rng, std::nullptr_t,
    MlBisectStats* top_stats, ThreadPool* pool) {
  return partition_recursive_bisection(g, opts, rng, top_stats, pool);
}

}  // namespace mcgp
