// Runtime invariant auditing for the multilevel pipeline.
//
// The partitioner maintains its critical quantities incrementally: FM
// tracks the cut through per-move deltas, BisectionBalance and the k-way
// refiner track part weights through apply_move updates, and coarsening
// assumes contraction conserves total weight per constraint. None of that
// is verified in normal operation — a missed update produces a partition
// whose *reported* metrics are recomputed (and therefore look fine) while
// the search itself optimized a corrupted objective.
//
// The InvariantAuditor closes that gap. Driven by Options::audit_level,
// it recomputes the conserved quantities from scratch at pipeline seams
// (kBoundaries) and inside refinement passes (kParanoid) and throws
// AuditFailure on any mismatch, making bookkeeping drift loud and
// immediate instead of a silent quality regression. Recomputations use
// checked arithmetic (support/check.hpp) so overflow in the audit itself
// is also diagnosed rather than masking a violation.
//
// The auditor is stateless apart from per-category check counters, so one
// instance may be shared by every concurrent task of a run. The counters
// are std::atomic (lock-free, relaxed order), which is why they carry no
// MCGP_GUARDED_BY annotation: atomics are exempt from the clang
// thread-safety analysis by design.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bisection.hpp"
#include "core/config.hpp"
#include "core/kway_boundary.hpp"
#include "graph/csr_graph.hpp"
#include "support/bucket_queue.hpp"
#include "support/check.hpp"

namespace mcgp {

/// Category of an audit check (indexes the counter array).
enum class AuditCheck {
  kCoarseLevel = 0,   ///< contraction conservation + cmap sanity
  kProjection,        ///< projected partition reproduces the coarse cut
  kBisectionState,    ///< 2-way pwgts/cut bookkeeping vs recompute
  kKWayState,         ///< k-way pwgts/vcount/cut bookkeeping vs recompute
  kGainSample,        ///< sampled FM gain vs recomputed gain
  kCutDelta,          ///< accumulated move gains vs actual cut change
  kFinalPartition,    ///< structural validity of a driver's output
  kFeasibility,       ///< declared feasibility vs recomputed part weights
  kDescentMemo,       ///< a memoized descent scan vs the full scan
  kCount_,
};

/// Human-readable name of a check category (for reports and tests).
const char* audit_check_name(AuditCheck c);

/// Parse an audit level name: "off"/"boundaries"/"paranoid" or "0"/"1"/"2".
/// Returns true and sets `out` on success; false leaves `out` untouched.
/// Shared by the CLI --audit flag and the MCGP_AUDIT environment override.
bool parse_audit_level(const std::string& s, AuditLevel& out);

class InvariantAuditor {
 public:
  explicit InvariantAuditor(AuditLevel level) : level_(level) {}

  AuditLevel level() const { return level_; }
  bool boundaries() const { return level_ >= AuditLevel::kBoundaries; }
  bool paranoid() const { return level_ >= AuditLevel::kParanoid; }

  /// Whether this particular paranoid gain check should run. Deterministic
  /// per-auditor decimation (every kGainSampleStride-th call) bounds the
  /// cost of gain recomputation to a fraction of refinement work.
  bool sample_gain() {
    return (gain_tick_.fetch_add(1, std::memory_order_relaxed) %
            kGainSampleStride) == 0;
  }

  /// Number of times a check category ran (violations throw, so a
  /// completed run's counters count *passed* checks).
  std::uint64_t count(AuditCheck c) const {
    return counts_[to_size(c)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t total_checks() const;

  /// One-line summary "coarse_level=12 projection=9 ..." for reports.
  std::string summary() const;

  /// Fault-injection seam for tests: let `n` more checks pass, then make
  /// the next one throw AuditFailure even though its invariant holds.
  /// This exercises the abort path (e.g. the flight recorder's
  /// dump-on-failure postmortem) without having to corrupt pipeline
  /// state. Negative disables (the default); the trip disarms itself
  /// after firing once.
  void set_trip_after(std::int64_t n) {
    trip_after_.store(n, std::memory_order_relaxed);
  }

  /// Raise AuditFailure with location and expression context. Public so
  /// the MCGP_AUDIT macros (and tests) can invoke it.
  [[noreturn]] void fail(const char* file, int line, const char* expr,
                         const std::string& msg) const;

  // --- Seam checks. Callers gate on boundaries()/paranoid(); the checks
  // themselves always run when invoked (tests call them directly). ---

  /// Contraction invariants: cmap maps every fine vertex into
  /// [0, coarse.nvtxs) with no empty coarse vertex, per-constraint vertex
  /// weight is conserved exactly, the coarse graph's cached totals agree,
  /// and total edge weight is conserved up to the weight of edges
  /// collapsed inside coarse vertices. At paranoid the coarse graph's full
  /// structural validation (CSR symmetry etc.) also runs.
  void check_coarse_level(const Graph& fine, const Graph& coarse,
                          const std::vector<idx_t>& cmap, const char* site);

  /// Projection invariants: fine_part is exactly coarse_part composed with
  /// cmap, and the fine cut equals the coarse cut (projection can neither
  /// create nor destroy cut edges).
  void check_projection(const Graph& fine, const Graph& coarse,
                        const std::vector<idx_t>& cmap,
                        const std::vector<idx_t>& coarse_part,
                        const std::vector<idx_t>& fine_part,
                        const char* site);

  /// 2-way bookkeeping: `where` is a 0/1 assignment whose fresh
  /// per-constraint side weights equal `bal`'s incrementally maintained
  /// ones.
  void check_bisection_weights(const Graph& g,
                               const std::vector<idx_t>& where,
                               const BisectionBalance& bal, const char* site);

  /// 2-way cut bookkeeping: claimed (incrementally maintained) cut equals
  /// a fresh recompute.
  void check_bisection_cut(const Graph& g, const std::vector<idx_t>& where,
                           sum_t claimed_cut, const char* site);

  /// k-way bookkeeping: part ids in range, incrementally maintained
  /// pwgts[p*ncon+i] equal a fresh recompute, and (when non-null) the
  /// maintained per-part vertex counts match.
  void check_kway_state(const Graph& g, const std::vector<idx_t>& where,
                        idx_t nparts, const std::vector<sum_t>& pwgts,
                        const std::vector<idx_t>* vcount, const char* site);

  /// k-way boundary bookkeeping: every vertex's maintained internal and
  /// external degree and external edge count equal a fresh recompute, and
  /// the movable lists hold exactly the boundary vertices whose external
  /// degree reaches their internal one, each once, in its class's list at
  /// its recorded position; and no dead-marked vertex has a part whose
  /// connectivity reaches its internal degree.
  void check_kway_boundary(const Graph& g, const std::vector<idx_t>& where,
                           const KWayBoundary& bnd, const char* site);

  /// Peak-drain degree cache: ed_id[v] equals v's external minus internal
  /// weighted degree recomputed under `where`, for every vertex.
  void check_drain_degrees(const Graph& g, const std::vector<idx_t>& where,
                           const std::vector<sum_t>& ed_id, const char* site);

  /// 2-way FM carried state: every vertex's maintained internal and
  /// external degree (`id`, `ed`) equal a fresh recompute, and exactly the
  /// boundary vertices (ed > 0) sit in one of `queued`'s queues.
  void check_fm_state(const Graph& g, const std::vector<idx_t>& where,
                      const std::vector<sum_t>& id,
                      const std::vector<sum_t>& ed, const BucketQueue& queued,
                      const char* site);

  /// Sampled FM gain: the queue's claimed gain for moving v off its side
  /// equals ext - int weighted degree recomputed from the adjacency list.
  void check_gain(const Graph& g, const std::vector<idx_t>& where, idx_t v,
                  sum_t claimed_gain, const char* site);

  /// Cut-delta consistency: cut_before - gain_sum == cut_after, i.e. the
  /// gains a refinement pass accumulated account exactly for the cut
  /// change it produced.
  void check_cut_delta(sum_t cut_before, sum_t gain_sum, sum_t cut_after,
                       const char* site);

  /// Driver-output invariants: right size, ids in [0, nparts), and the
  /// claimed cut matches a fresh recompute.
  void check_final_partition(const Graph& g, const std::vector<idx_t>& part,
                             idx_t nparts, sum_t claimed_cut,
                             const char* site);

  /// Descent memo hit: for source vertex v, the choice the rebalancer's
  /// memoized scan made (a destination part or a swap partner, -1 for
  /// none) equals `full`, the choice of the full scan over every
  /// candidate in the same state.
  void check_memo_scan(idx_t v, idx_t memo, idx_t full, const char* site);

  /// Feasibility declaration: `declared_feasible` must equal the verdict
  /// of kway_feasible() on part weights recomputed from scratch under the
  /// given tolerances and target fractions (null = uniform). Catches both
  /// a run claiming feasibility it does not have (the SC'98 balance
  /// contract silently broken) and a stale infeasible verdict after the
  /// rebalancer repaired the partition.
  void check_feasibility(const Graph& g, const std::vector<idx_t>& part,
                         idx_t nparts, const std::vector<real_t>& ub,
                         const std::vector<real_t>* tpwgts,
                         bool declared_feasible, const char* site);

 private:
  static constexpr std::uint64_t kGainSampleStride = 16;

  void bump(AuditCheck c) {
    counts_[to_size(c)].fetch_add(
        1, std::memory_order_relaxed);
    if (trip_after_.load(std::memory_order_relaxed) >= 0 &&
        trip_after_.fetch_sub(1, std::memory_order_relaxed) == 0) {
      fail("<injected>", 0, "set_trip_after",
           "injected audit failure (" + std::string(audit_check_name(c)) +
               " test seam)");
    }
  }

  const AuditLevel level_;
  std::atomic<std::int64_t> trip_after_{-1};
  std::atomic<std::uint64_t> gain_tick_{0};
  std::atomic<std::uint64_t> counts_[to_size(
      AuditCheck::kCount_)] = {};
};

}  // namespace mcgp
