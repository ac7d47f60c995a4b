// Multi-constraint 2-way FM refinement (the SC'98 core refinement).
//
// Classic FM keeps one gain-bucket queue per side. With m constraints, a
// single queue cannot steer which *kind* of weight leaves the heavy side,
// so the multi-constraint algorithm keeps m queues per side (2m total):
// vertex v lives in queue (side(v), dom(v)) where dom(v) is v's dominant
// (largest normalized) weight component. Each step selects the constraint
// with the largest tolerance-relative overload, pops the best-gain vertex
// from that constraint's queue on the heavy side, and moves it if the move
// does not leave the feasible region (or strictly improves balance when
// already infeasible). Within the feasible region the algorithm
// hill-climbs like classic FM, with rollback to the best prefix.
#pragma once

#include <vector>

#include "core/bisection.hpp"
#include "core/config.hpp"
#include "core/run_context.hpp"
#include "support/random.hpp"

namespace mcgp {

struct Refine2WayStats {
  int passes = 0;
  idx_t moves = 0;       ///< committed (kept after rollback) moves
  sum_t initial_cut = 0;
  sum_t final_cut = 0;
};

/// Refine a bisection in place. `where` must be a valid 0/1 assignment.
/// Returns the final cut. Guarantees: the final cut is never worse than
/// the initial cut unless the initial bisection was infeasible and
/// feasibility required cut-increasing moves; the balance potential never
/// ends worse than it started.
/// Cost: one O(n + edges) setup per call, independent of ncon (degrees,
/// dominant constraints, one node array for all queues), then per pass
/// the RNG permutation that orders the boundary seeding plus the moves
/// and their rollback. Degrees are kept exact across passes by the
/// rollback's inverse updates instead of being recomputed.
/// Of `run`: a non-null `trace` records one "fm.pass" span per pass plus the
/// fm.passes / fm.moves / fm.rollbacks counters, the fm.degree_scans
/// counter (vertices whose degrees were computed from their adjacency:
/// nvtxs per call) and the gain.histogram of committed move gains. A
/// non-null `audit` verifies the incremental side-weight/cut bookkeeping
/// against fresh recomputes after every pass (kBoundaries); at kParanoid
/// it also checks every carried degree and the seeded boundary at each
/// pass start and cross-checks sampled queue gains.
/// A non-null `flight` appends one telemetry sample per pass (cut
/// before/after, committed moves) to its bounded ring.
sum_t refine_2way(const Graph& g, std::vector<idx_t>& where,
                  const BisectionTargets& targets, QueuePolicy policy,
                  int max_passes, idx_t move_limit, Rng& rng,
                  Refine2WayStats* stats = nullptr,
                  const RunContext& run = {});

/// Dominant constraint of vertex v: index of its largest normalized weight
/// component (ties to the lower index). Exposed for testing.
int dominant_constraint(const Graph& g, idx_t v);

}  // namespace mcgp
