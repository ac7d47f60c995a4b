// Greedy multi-constraint rebalancing (Maas-style gain-to-relief moves)
// plus a bounded restricted V-cycle (Sanders/Schulz iterated multilevel),
// invoked whenever kway_balance exits with residual overload. This is the
// feasibility backstop of the pipeline: kway_balance is a fast drain of the
// current peak, while rebalance_partition keeps working the instance until
// every constraint of every part is within ubvec or the bounded effort is
// exhausted. Its stages, each of which decides verdicts on some instance:
//  - greedy episodes: relief-ordered heap moves out of the argmax
//    overloaded (part, constraint);
//  - swap escape (small graphs): pairwise swaps that lower the peak when
//    no single move can;
//  - summed-overload descent: single moves alternating with pairwise swaps
//    (small graphs), each strictly lowering the summed relative overload;
//  - partition-restricted V-cycles: re-coarsen merging only same-part
//    vertices and run the same chain where whole clusters move;
//  - random kicks with re-descent (small graphs) out of joint local minima.
//
// Determinism contract (PR 7): everything here is serial and derives every
// ordering decision from vertex ids, edge weights, and the caller's Rng
// stream — never from threads or arrival order. The pass runs after the
// parallel phases, on a `where` that is already bit-identical across
// num_threads, and keeps it that way.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/run_context.hpp"
#include "graph/csr_graph.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace mcgp {

/// Outcome of a rebalance_partition call.
struct RebalanceStats {
  int episodes = 0;       ///< greedy episodes run (peak re-selections)
  int vcycles = 0;        ///< restricted V-cycles run
  sum_t moves = 0;        ///< single-vertex moves committed
  sum_t swaps = 0;        ///< pairwise swaps committed (small graphs only)
  /// (vertex, destination) pairs the single-move overload descent
  /// evaluated, coarse V-cycle levels included: a deterministic work count.
  sum_t descent_evals = 0;
  bool feasible = false;  ///< final state satisfies every constraint
  real_t max_overload = 0.0;  ///< final max tolerance-relative load
};

/// Per-constraint lower bound on any achievable balance tolerance: no
/// partition of `g` into nparts parts (under the given target fractions,
/// uniform when tpwgts is null) can beat these, whatever the algorithm.
/// Three sound bounds are combined per constraint i (all >= 1.0):
///  - heaviest vertex: some part holds the heaviest vertex, so
///    ub_i >= wmax_i / (max_frac * tvwgt_i);
///  - count pigeonhole: some part holds h = ceil(n/nparts) vertices, whose
///    weight is at least the sum of the h smallest, so
///    ub_i >= S_min(h) / (max_frac * tvwgt_i);
///  - weight pigeonhole (uniform targets only): integer part weights sum
///    to tvwgt_i, so some part carries >= ceil(tvwgt_i/nparts) and
///    ub_i >= nparts * ceil(tvwgt_i/nparts) / tvwgt_i.
/// Constraints with tvwgt_i <= 0 get 1.0.
std::vector<real_t> min_feasible_ubvec(const Graph& g, idx_t nparts,
                                       const std::vector<real_t>* tpwgts);

/// The tolerance vector a run actually refines against: the requested
/// Options::ubvec (or its 1.05 default) clamped up, per constraint, to
/// min_feasible_ubvec. validate_options rejects an EXPLICIT ubvec below
/// the bound; the empty default is clamped silently so coarse instances
/// (few heavy vertices per part) still pursue the best achievable balance
/// instead of an impossible one.
std::vector<real_t> effective_ubvec(const Graph& g, const Options& opts);

/// Drive `where` to feasibility under `ub`: greedy gain-to-relief episodes
/// first (heap-ordered moves out of the argmax-overloaded part), pairwise
/// swaps and summed-overload descent when single moves deadlock, then up
/// to `max_vcycles` partition-restricted V-cycles (re-coarsen merging only
/// same-part vertices, rebalance the coarse problem where whole clusters
/// move at once, project back with per-level refinement), then random
/// kicks on small graphs. Returns the final
/// feasibility; `where` is left with the best (lowest max-overload) state
/// reached, never a worse one than the input. Serial and deterministic for
/// a fixed Rng stream. Of `run`, the trace gets a "rebalance" span and
/// counters, the auditor checks the final part weights, and the flight
/// recorder one sample; the V-cycles' refiners see the trace and auditor.
bool rebalance_partition(const Graph& g, idx_t nparts,
                         std::vector<idx_t>& where,
                         const std::vector<real_t>& ub, Rng& rng,
                         const std::vector<real_t>* tpwgts = nullptr,
                         RebalanceStats* stats = nullptr,
                         const RunContext& run = {}, int max_vcycles = 3);

/// The rebalance stage every driver ends with (MC-KW after uncoarsening,
/// MC-RB after its balance fix-up, refine_partition() after refinement):
/// when `where` violates `ub`, rebalance_partition runs in `run` under a
/// ("rebalance", 0) profiler bucket with opts' nparts and tpwgts. A
/// feasible partition is left untouched.
void rebalance_if_infeasible(const Graph& g, std::vector<idx_t>& where,
                             const std::vector<real_t>& ub, Rng& rng,
                             const Options& opts, const RunContext& run);

}  // namespace mcgp
