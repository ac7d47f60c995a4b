// Initial partitioning: construct a bisection of the (small) coarsest
// graph that is balanced in all m constraints.
//
// Two constructions, combined best-of-N:
//
//  * Greedy graph growing (GGG): grow side 0 from a random seed, always
//    absorbing the frontier vertex with the highest edge-gain whose
//    addition keeps every constraint of side 0 within its target share.
//    Produces connected, low-cut sides but can stall on balance.
//
//  * Multi-dimensional LPT bin packing: place vertices in decreasing order
//    of their largest normalized weight component onto the side that
//    minimizes the resulting balance potential. Ignores edges entirely but
//    yields excellent balance, which the paper notes is critical — an
//    initial partitioning more than ~20% imbalanced is unlikely to be
//    repaired during multilevel refinement.
//
// Every trial is polished with an explicit balancing pass plus a short FM
// refinement; the best trial by (feasible, cut, potential) wins.
#pragma once

#include <vector>

#include "core/bisection.hpp"
#include "core/config.hpp"
#include "core/run_context.hpp"
#include "support/random.hpp"

namespace mcgp {

/// Single-construction entry points (exposed for tests and ablations).
void grow_bisection(const Graph& g, std::vector<idx_t>& where,
                    const BisectionTargets& targets, Rng& rng);
void binpack_bisection(const Graph& g, std::vector<idx_t>& where,
                       const BisectionTargets& targets, Rng& rng);

/// Best-of-`trials` initial bisection with polishing. Fills `where`.
/// Returns the cut of the selected bisection. Its seam is an "initpart"
/// span, with one "initpart.trial" instant per attempt, and profiler
/// bucket; the trials polish with only `run.audit` attached.
///
/// Each trial draws from its own RNG stream derived from one value taken
/// off `rng`, and the best trial is selected by a serial reduction in
/// trial order — so the result is a pure function of the rng state and is
/// identical whether the trials run serially or concurrently on
/// `run.pool`. Trials on other threads add their on-CPU time to the
/// "initpart" bucket as aux scopes (the seam keeps the wall time, trials
/// contribute counters and thread identity).
sum_t init_bisection(const Graph& g, std::vector<idx_t>& where,
                     const BisectionTargets& targets, InitScheme scheme,
                     int trials, QueuePolicy policy, Rng& rng,
                     const RunContext& run = {});

}  // namespace mcgp
