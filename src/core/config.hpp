// Public configuration and result types for the multi-constraint
// partitioner.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/counters.hpp"
#include "support/types.hpp"

namespace mcgp {

class TraceRecorder;
class InvariantAuditor;
class FlightRecorder;
class Profiler;

/// How aggressively the pipeline verifies its own bookkeeping invariants
/// at runtime (see core/audit.hpp). Violations raise AuditFailure.
enum class AuditLevel {
  kOff = 0,         ///< no checks (production default; one pointer test)
  kBoundaries = 1,  ///< recompute-and-compare at every pipeline seam:
                    ///< coarse-level conservation, projection cut
                    ///< equality, refiner pwgts/cut bookkeeping
  kParanoid = 2,    ///< boundaries + per-pass bookkeeping audits and
                    ///< sampled FM gain cross-checks inside refinement
};

/// Which multilevel partitioner to run.
enum class Algorithm {
  kRecursiveBisection,  ///< MC-RB: every bisection is multilevel (pmetis-style)
  kKWay,                ///< MC-KW: coarsen once, RB on coarsest, k-way refine
};

/// Coarsening matching scheme.
enum class MatchScheme {
  kRandom,              ///< random matching (RM)
  kHeavyEdge,           ///< heavy-edge matching (HEM), random tie-break
  kHeavyEdgeBalanced,   ///< HEM with the SC'98 balanced-edge tie-break
};

/// Queue-selection policy of the multi-constraint 2-way FM refinement
/// (paper scheme + two ablation baselines).
enum class QueuePolicy {
  kMostImbalanced,  ///< m queues/side, pop from the most imbalanced
                    ///< constraint's queue on the heavier side (paper)
  kRoundRobin,      ///< m queues/side, constraints visited cyclically
  kSingleQueue,     ///< one queue/side, pure gain order (single-constraint
                    ///< relaxation)
};

/// k-way refinement flavor used during MC-KW uncoarsening.
enum class KWayRefineScheme {
  kSweep,          ///< randomized greedy sweeps over the boundary
  kPriorityQueue,  ///< gain-bucket queue, best moves first (kmetis-style)
};

/// Initial-bisection construction scheme.
enum class InitScheme {
  kMixed,       ///< alternate graph growing and bin packing across trials
  kGreedyGrow,  ///< greedy graph growing only
  kBinPack,     ///< multi-dimensional LPT bin packing only
};

struct Options {
  idx_t nparts = 2;

  /// Per-constraint balance tolerance (>= 1.0). Empty = 1.05 everywhere.
  std::vector<real_t> ubvec;

  /// Per-part target fractions (size nparts, positive, summing to ~1).
  /// Empty = uniform 1/nparts. Lets heterogeneous machines receive
  /// proportionally sized subdomains; every constraint is balanced
  /// against these fractions.
  std::vector<real_t> tpwgts;

  std::uint64_t seed = 1;

  Algorithm algorithm = Algorithm::kKWay;
  MatchScheme matching = MatchScheme::kHeavyEdgeBalanced;
  QueuePolicy queue_policy = QueuePolicy::kMostImbalanced;
  InitScheme init_scheme = InitScheme::kMixed;
  KWayRefineScheme kway_scheme = KWayRefineScheme::kSweep;

  /// Coarsest-graph size. 0 = automatic (scales with nparts and ncon).
  idx_t coarsen_to = 0;
  /// Abort coarsening when a level shrinks by less than this factor.
  real_t min_coarsen_reduction = 0.95;

  /// Number of initial-bisection attempts (best kept).
  int init_trials = 8;
  /// Maximum FM passes per level in 2-way refinement.
  int refine_passes = 8;
  /// Maximum greedy passes per level in k-way refinement.
  int kway_passes = 8;
  /// FM early-exit: abort a pass after this many consecutive
  /// non-improving moves (0 = automatic: max(64, nvtxs/100)).
  idx_t fm_move_limit = 0;

  /// Worker threads for the task-parallel drivers (>= 1). 1 (the default)
  /// runs fully serial with no pool. Larger values run the two halves of
  /// every recursive-bisection split and the initial-bisection trials
  /// concurrently, plus the in-node data-parallel phases: handshake
  /// matching rounds, chunked contraction, and the colored k-way sweep's
  /// propose phases. Results are identical for every value of num_threads
  /// at a fixed seed: each subproblem draws from its own deterministic RNG
  /// stream derived from the seed and the subproblem's position (never a
  /// shared sequential stream), data-parallel phases decompose work by
  /// fixed size-based chunk boundaries, and every cross-chunk conflict is
  /// resolved by a fixed total order (hashed keys / ascending ids), never
  /// by arrival order.
  int num_threads = 1;

  /// Optional trace recorder (see support/trace.hpp). When non-null the
  /// pipeline records hierarchical span events (run -> bisection ->
  /// coarsen level -> FM pass) and per-run counters/histograms into it;
  /// null (the default) disables all instrumentation at the cost of one
  /// pointer test per site. The recorder must outlive the run.
  TraceRecorder* trace = nullptr;

  /// Runtime invariant auditing (see core/audit.hpp). At kOff every audit
  /// site is a single null-pointer test; kBoundaries recomputes conserved
  /// quantities at pipeline seams; kParanoid additionally cross-checks
  /// incremental refinement bookkeeping per pass and samples FM gains.
  /// Violations throw AuditFailure. Audits never alter results.
  AuditLevel audit_level = AuditLevel::kOff;

  /// Optional flight recorder (see support/flight_recorder.hpp). When
  /// non-null the pipeline appends one telemetry sample per coarsening
  /// level, uncoarsening level, and refinement pass (graph size, cut,
  /// per-constraint imbalances, memory high-water marks) into its bounded
  /// ring, and partition() dumps the retained window to the recorder's
  /// dump path when an AuditFailure aborts the run. Null (the default)
  /// costs one pointer test per site. Attaching a recorder never changes
  /// results; it must outlive the run and may be shared across threads.
  FlightRecorder* flight = nullptr;

  /// Optional profiler (see support/profiler.hpp). The pipeline measures
  /// wall time, thread CPU time and work items over every phase at every
  /// hierarchy level and aggregates them into the profiler's (phase,
  /// level) buckets; PartitionResult::phases is read from the same
  /// scopes. When null (the default), partition() and refine_partition()
  /// attach an internal profiler for the run, so set one only to read
  /// the per-(phase, level) buckets afterwards. Profiling never changes
  /// results; the profiler must outlive the run and may be shared across
  /// runs (each run reports its own phases) and the run's worker threads.
  Profiler* profile = nullptr;

  /// Optional externally owned auditor. When non-null it is used directly
  /// (its own level governs, letting callers read check counters after the
  /// run); when null and audit_level != kOff, partition() creates an
  /// internal auditor for the run. The auditor must outlive the run and
  /// may be shared across concurrent tasks (it is thread-safe).
  InvariantAuditor* audit = nullptr;

  /// Tolerance for constraint i (handles the empty-default case).
  real_t ub_for(int i) const {
    if (ubvec.empty()) return 1.05;
    return ubvec[std::min(to_size(i), ubvec.size() - 1)];
  }

  /// ub_for(i) for every constraint i < ncon.
  std::vector<real_t> tolerances(int ncon) const {
    std::vector<real_t> ub(to_size(ncon));
    for (int i = 0; i < ncon; ++i) ub[to_size(i)] = ub_for(i);
    return ub;
  }

  /// tpwgts as the refiners take it: null when empty (uniform targets).
  const std::vector<real_t>* targets() const {
    return tpwgts.empty() ? nullptr : &tpwgts;
  }
};

/// One top-level phase of a run (support/profiler.hpp), levels summed.
struct PhaseTime {
  std::string phase;  ///< the profiler scope's name, e.g. "rb.fixup"
  double wall_s = 0;  ///< wall time on the run's calling thread
  double cpu_s = 0;   ///< thread CPU time summed over every thread
};

/// Outcome of a partitioning run.
struct PartitionResult {
  std::vector<idx_t> part;       ///< part id per vertex, in [0, nparts)
  sum_t cut = 0;                 ///< weighted edge-cut
  std::vector<real_t> imbalance; ///< per-constraint load imbalance
  real_t max_imbalance = 1.0;    ///< worst constraint
  /// Whether every part satisfies every constraint's tolerance (the
  /// SC'98 balance contract): pwgt[p][i] <= ubvec_used[i] * frac_p *
  /// tvwgt[i] for all p, i. The first-class verdict of a run — cut is
  /// the objective, this is the requirement.
  bool feasible = false;
  /// The tolerance vector the run was actually held to: the requested
  /// ubvec (or the 1.05 default) clamped up, per constraint, to the
  /// instance's provable lower bound (see min_feasible_ubvec). Equals the
  /// request whenever the request was achievable.
  std::vector<real_t> ubvec_used;
  double seconds = 0.0;          ///< wall time of the profiler's run scope
  int coarsen_levels = 0;        ///< levels created by the top coarsener
  idx_t coarsest_nvtxs = 0;      ///< size of the coarsest graph
  /// Top-level profiler phases in name order. Their wall times plus
  /// unattributed_s add up to `seconds`.
  std::vector<PhaseTime> phases;
  /// Run wall time outside every phase.
  double unattributed_s = 0.0;
  /// Per-run pipeline counters/histograms (fm.moves, match.failed, ...).
  /// Populated only when Options::trace was set; empty otherwise.
  CounterRegistry counters;
};

}  // namespace mcgp
