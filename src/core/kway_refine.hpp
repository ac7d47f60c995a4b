// Greedy multi-constraint k-way refinement (the MC-KW uncoarsening step).
//
// A randomized greedy sweep over boundary vertices: each vertex may move
// to a neighboring subdomain if the move improves the cut without pushing
// any constraint of the destination past its tolerance (or if it improves
// balance at no cut cost). When the projected partition arrives out of
// tolerance — coarse-vertex granularity can force this — the peak drain
// runs first, preferring minimum-cut-damage moves out of overloaded parts.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/run_context.hpp"
#include "core/seam.hpp"
#include "graph/csr_graph.hpp"
#include "support/random.hpp"

namespace mcgp {

/// The run context under the name perfbench's replay gives it.
using KWayExec = RunContext;

struct KWayRefineStats {
  int passes = 0;
  idx_t moves = 0;
  idx_t proposed = 0;  ///< vertices whose best move was evaluated
  idx_t skipped = 0;   ///< dead candidates not re-proposed
  idx_t widest_class = 0;  ///< most candidates one color class proposed
  sum_t final_cut = 0;
  bool feasible = false;
};

/// True iff every part is within tolerance on every constraint:
/// pwgts[p][i] <= ub[i] * tpwgts[p] * tvwgt[i], where tpwgts defaults to
/// the uniform 1/nparts when null.
bool kway_feasible(const Graph& g, const std::vector<sum_t>& pwgts,
                   idx_t nparts, const std::vector<real_t>& ub,
                   const std::vector<real_t>* tpwgts = nullptr);

/// Candidate-range grain of the colored sweep's parallel propose phase.
/// Small enough that a finest-level class (a few thousand candidates on
/// the benchmark grids) splits across threads; fixed, so the chunk
/// boundaries depend only on sizes, never on the pool.
inline constexpr idx_t kSweepChunk = 512;

/// Balancing: when `where` violates `ub`, run the peak drain (drain_peaks,
/// core/kway_context.hpp — the same drain the rebalancer starts with) until
/// feasible or stuck. Returns true when feasible. `tpwgts` (optional)
/// gives per-part target fractions; null = uniform. Of `run`, the trace
/// gets a "kway.balance" span and the kway.balance.{moves, episodes,
/// scanned, bail.<reason>} counters, and the auditor checks the part
/// weights when the drain finishes. `rng` is not read: the drain draws no
/// random numbers. The parameter stays because perfbench/replay.cpp calls
/// this signature.
bool kway_balance(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                  const std::vector<real_t>& ub, Rng& rng,
                  const std::vector<real_t>* tpwgts = nullptr,
                  const RunContext& run = {});

/// Greedy refinement. Runs up to `max_passes` sweeps (plus balancing when
/// needed) and returns the final cut. `tpwgts` (optional) gives per-part
/// target fractions; null = uniform. Of `run`: a non-null `trace` records
/// one "kway.pass" span per sweep plus the kway.moves / kway.passes /
/// kway.proposed / kway.skipped counters. A non-null `audit` verifies the incrementally
/// maintained part weights and vertex counts against fresh recomputes when
/// refinement finishes (kBoundaries) and, per sweep, that the accumulated
/// move gains account exactly for the cut change and that the maintained
/// boundary and degrees match a recompute (kParanoid). A non-null `flight`
/// appends one telemetry sample per sweep (moves, gain, max overload).
///
/// Each sweep is a colored sweep: boundary vertices are bucketed by a
/// greedy vertex coloring (adjacent vertices never share a color) and
/// visited color by color. Within one color the best moves are PROPOSED
/// concurrently from a frozen snapshot — same-color vertices are pairwise
/// non-adjacent, so no proposal can change another's connectivity — and
/// the proposals that found a destination are then COMMITTED serially in
/// a per-pass hashed order, re-validating balance against the live state. A non-null
/// `run.pool` runs the propose phases, each chunk attributing its on-CPU
/// time to `run.profile`'s bucket at `run.level`; the result is
/// bit-identical at every thread count. The boundary and every vertex's
/// internal and external degree are maintained across commits
/// (core/kway_boundary.hpp), so a sweep neither rescans the graph nor
/// proposes a vertex whose external degree is below its internal one;
/// edge weights must be non-negative for that skip to be exact. Nor is a
/// vertex proposed again once a proposal found no part whose connectivity
/// reaches its internal degree, until it or a neighbor moves.
sum_t kway_refine(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                  const std::vector<real_t>& ub, int max_passes, Rng& rng,
                  KWayRefineStats* stats = nullptr,
                  const std::vector<real_t>* tpwgts = nullptr,
                  const RunContext& run = {});

/// kway_refine with the observers spelled out, as perfbench's replay
/// calls it: `exec` (optional) supplies the pool, workspace pool, profiler
/// and level, and the three observer arguments replace its observers.
sum_t kway_refine(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                  const std::vector<real_t>& ub, int max_passes, Rng& rng,
                  KWayRefineStats* stats, const std::vector<real_t>* tpwgts,
                  TraceRecorder* trace, InvariantAuditor* audit,
                  FlightRecorder* flight, const KWayExec* exec);

/// Priority-queue k-way refinement: boundary vertices are kept in a gain
/// bucket queue keyed by their best potential move (kmetis-style), so the
/// highest-gain moves commit first and newly exposed gains are picked up
/// within the same pass. Same admissibility rules and observers as the
/// sweep variant; serial, so `run`'s pool goes unused.
sum_t kway_refine_pq(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                     const std::vector<real_t>& ub, int max_passes, Rng& rng,
                     KWayRefineStats* stats = nullptr,
                     const std::vector<real_t>* tpwgts = nullptr,
                     const RunContext& run = {});

/// One k-way refinement of `where` at hierarchy level `run.level`, as the
/// drivers run it: opts.kway_scheme picks the colored sweep or the
/// priority-queue refiner, with opts' nparts and tpwgts, on the seam
/// `spec` plus a "kway_refine" / "kway_refine_pq" bucket. Returns the cut.
sum_t kway_refine_level(const Graph& g, std::vector<idx_t>& where,
                        const std::vector<real_t>& ub, int passes, Rng& rng,
                        const Options& opts, const RunContext& run,
                        SeamSpec spec = {});

}  // namespace mcgp
