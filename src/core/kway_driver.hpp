// MC-KW: multilevel k-way multi-constraint partitioning (kmetis-style).
//
// Coarsen the whole graph once, partition the coarsest graph k ways with
// MC-RB (cheap: the coarsest graph is small), then uncoarsen with greedy
// multi-constraint k-way refinement at every level.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/rb_driver.hpp"
#include "graph/csr_graph.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"

namespace mcgp {

/// `stats` receives the hierarchy's levels and coarsest size (its `cut`
/// stays 0). `pool` (optional) runs the data-parallel phases of
/// coarsening and k-way refinement and the RB initial partitioning of the
/// coarsest graph; the partition is the same at every thread count. A
/// non-null `profile` receives the run's phase scopes.
std::vector<idx_t> partition_kway(const Graph& g, const Options& opts,
                                  Rng& rng, MlBisectStats* stats = nullptr,
                                  ThreadPool* pool = nullptr,
                                  Profiler* profile = nullptr);

}  // namespace mcgp
