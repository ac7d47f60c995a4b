// Explicit 2-way balancing: drive an infeasible bisection into the
// feasible region with the least possible cut damage.
//
// Used after initial bisection construction and as a safety net during
// uncoarsening: the FM refinement only *preserves* feasibility; when a
// projected partition starts out of tolerance (coarse vertex granularity
// can force this), this pass restores it.
#pragma once

#include <vector>

#include "core/bisection.hpp"
#include "core/run_context.hpp"
#include "support/random.hpp"

namespace mcgp {

/// Greedily move vertices from overloaded sides until every constraint is
/// within tolerance or no move reduces the balance potential. Returns true
/// if the final bisection is feasible. A non-null `run.audit` verifies the
/// incremental side-weight bookkeeping against a fresh recompute when the
/// pass finishes.
bool balance_2way(const Graph& g, std::vector<idx_t>& where,
                  const BisectionTargets& targets, Rng& rng,
                  const RunContext& run = {});

}  // namespace mcgp
