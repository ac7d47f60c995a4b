// Greedy multi-constraint rebalancing (Maas-style gain-to-relief moves)
// plus a bounded restricted V-cycle (Sanders/Schulz iterated multilevel),
// invoked whenever kway_balance exits with residual overload. This is the
// feasibility backstop of the pipeline: kway_balance runs the peak drain
// once, while rebalance_partition keeps working the instance until every
// constraint of every part is within ubvec or the bounded effort is
// exhausted. Its stages, each of which decides verdicts on some instance:
//  - the peak drain (drain_peaks, core/kway_context.hpp, the same code
//    kway_balance runs): relief-ordered heap moves out of the argmax
//    overloaded (part, constraint);
//  - swap escape (small graphs): pairwise swaps that lower the peak when
//    no single move can;
//  - summed-overload descent (overload_descent, swap_descent): single
//    moves alternating with pairwise swaps (small graphs), each strictly
//    lowering the summed relative overload. Both skip the scans an exact
//    memo proves fruitless: a scan from a source part and weight vector
//    that found nothing stays fruitless until a part it reads changes;
//  - partition-restricted V-cycles: re-coarsen merging only same-part
//    vertices and run the same chain where whole clusters move;
//  - random kicks with re-descent (small graphs) out of joint local minima.
//
// Determinism contract: everything here is serial and derives every
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

class KWayContext;

/// Outcome of a rebalance_partition call.
struct RebalanceStats {
  int episodes = 0;       ///< peak-drain episodes that moved a vertex
  int vcycles = 0;        ///< restricted V-cycles run
  sum_t moves = 0;        ///< single-vertex moves committed
  sum_t swaps = 0;        ///< pairwise swaps committed (small graphs only)
  /// (vertex, destination) pairs the single-move overload descent's full
  /// scans would evaluate, coarse V-cycle levels included: a deterministic
  /// work count.
  sum_t descent_evals = 0;
  /// Of those, the pairs it evaluated: its memo skips the rest.
  sum_t descent_scanned = 0;
  /// (source, partner) pairs the pairwise-swap descent evaluated, coarse
  /// V-cycle levels included.
  sum_t swap_scanned = 0;
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

/// Drive `where` to feasibility under `ub`: the peak drain first
/// (heap-ordered moves out of the argmax-overloaded part), pairwise
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

/// The largest integer W with static_cast<real_t>(W) / limit < bound, for
/// limit > 0 and bound > 0; the largest sum_t when every value passes
/// (limit 1e300 marks a constraint with no weight). W / limit is monotone
/// in W, so a part weight w is below `bound` exactly when w <= W: the
/// swap escape compares weights with it instead of dividing.
sum_t max_weight_below(real_t limit, real_t bound);

/// Pairwise-swap escape for small graphs (at most 10,000 vertices; larger
/// ones return 0 at once): when no single move is potential-reducing
/// (every part with room in the scarce constraint is itself near the peak
/// in another), exchanging a heavy-in-c vertex of the peak part q for a
/// light-in-c vertex elsewhere can still reduce the peak. Per swap, the
/// 128 heaviest-in-c vertices of q (id tie-break) are paired with every
/// vertex outside q; the pair that leaves both touched parts strictly
/// below the peak at the lowest larger load wins (lowest source, then
/// partner id, within 1e-12). Per-part weight bounds from
/// max_weight_below() reject the other pairs without dividing. Commits
/// swaps while one exists, at most 4n. Returns swaps committed. Exposed
/// for testing.
sum_t swap_escape(const Graph& g, KWayContext& ctx);

/// Best-improvement single-move descent on the summed relative overload
/// sum_i max(0, load - 1) over all (part, constraint) pairs: rounds over
/// the vertices in ascending id; each vertex of an overloaded part that
/// can spare it moves to the destination with the most negative delta
/// (the first within 1e-12, in ascending part order), if that delta is
/// below -1e-9. Every committed move strictly decreases the potential, so
/// the loop cannot cycle; a cap of 8n moves bounds it anyway. A scan that
/// found no destination for source part q and weight vector w is
/// remembered; while q is unchanged, a later scan from (q, w) evaluates
/// only the parts moved since (none at all if nothing moved), which gives
/// the full scan's answer exactly. Adds the pairs a full scan visits to
/// st.descent_evals and the pairs evaluated to st.descent_scanned;
/// returns the moves committed. At paranoid audit every memo hit is
/// re-run as a full scan and checked (run.audit). Exposed for testing.
sum_t overload_descent(const Graph& g, KWayContext& ctx, RebalanceStats& st,
                       const RunContext& run = {});

/// Pairwise-swap descent on the same potential, for small graphs (at most
/// 10,000 vertices; larger ones return 0 at once): rounds over the
/// sources, vertices of overloaded parts in ascending id, each exchanged
/// with the partner outside its part that lowers the potential most (the
/// first within 1e-12, in ascending id), if by more than 1e-9. A round
/// stops once 2^22 (source, partner) pairs are charged, every partner
/// outside the source's part counting; at most 4n swaps. Uses the same
/// memo as overload_descent, over partners in the parts moved since.
/// Adds the pairs evaluated to st.swap_scanned; returns swaps committed.
/// Exposed for testing.
sum_t swap_descent(const Graph& g, KWayContext& ctx, RebalanceStats& st,
                   const RunContext& run = {});

/// The rebalance stage every driver ends with (MC-KW after uncoarsening,
/// MC-RB after its balance fix-up, refine_partition() after refinement):
/// when `where` violates `ub`, rebalance_partition runs in `run` under a
/// ("rebalance", 0) profiler bucket with opts' nparts and tpwgts. A
/// feasible partition is left untouched.
void rebalance_if_infeasible(const Graph& g, std::vector<idx_t>& where,
                             const std::vector<real_t>& ub, Rng& rng,
                             const Options& opts, const RunContext& run);

}  // namespace mcgp
