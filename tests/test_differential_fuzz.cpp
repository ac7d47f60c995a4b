// Differential fuzzing of the multilevel pipeline against two oracles:
//
//  * The InvariantAuditor at kParanoid: every randomized case runs the
//    full pipeline (both RB and KW) with the auditor recomputing the
//    incrementally maintained quantities at every seam and inside every
//    refinement pass. A bookkeeping bug throws AuditFailure and fails the
//    case with the generating seed for deterministic replay.
//
//  * A brute-force exact bisector on tiny graphs: enumerating every
//    bisection gives the true minimum cut (both unconstrained and over
//    feasible bisections), which bounds what the multilevel 2-way
//    pipeline may report.
//
//  * An exhaustive k-way oracle on tiny vector-weighted graphs: every
//    assignment of n <= 10 vertices to k <= 4 parts is enumerated, which
//    checks that the provable tolerance floors (min_feasible_ubvec) are
//    sound and that a `feasible` verdict is never claimed where no
//    feasible partition exists. How often the pipeline misses a feasible
//    partition that does exist is printed, not gated.
//
// The case budget of the pipeline sweep is tunable via MCGP_FUZZ_CASES
// (default 200) so CI can pin an exact budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "core/audit.hpp"
#include "core/bisection.hpp"
#include "core/kway_refine.hpp"
#include "core/partitioner.hpp"
#include "core/rebalance.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace mcgp {
namespace {

/// Exact minimum cuts over all bisections with two non-empty sides,
/// found by exhaustive enumeration (vertex 0 pinned to side 0 — the cut
/// is symmetric under side exchange). Only for tiny graphs.
struct ExactBisection {
  sum_t min_cut_any = 0;                ///< over all non-empty bisections
  std::optional<sum_t> min_cut_feasible;  ///< over feasible ones, if any
};

ExactBisection exact_best_bisection(const Graph& g,
                                    const BisectionTargets& targets) {
  EXPECT_LE(g.nvtxs, 16) << "exhaustive bisector is 2^n";
  ExactBisection out;
  bool seen_any = false;
  std::vector<idx_t> where(to_size(g.nvtxs), 0);
  const std::uint32_t masks = 1u << (g.nvtxs - 1);
  for (std::uint32_t mask = 1; mask < masks; ++mask) {
    for (idx_t v = 1; v < g.nvtxs; ++v) {
      where[to_size(v)] =
          (mask >> (v - 1)) & 1u ? 1 : 0;
    }
    const sum_t cut = compute_cut_2way(g, where);
    if (!seen_any || cut < out.min_cut_any) out.min_cut_any = cut;
    seen_any = true;
    BisectionBalance bal;
    bal.init(g, where, targets);
    if (bal.feasible() &&
        (!out.min_cut_feasible.has_value() || cut < *out.min_cut_feasible)) {
      out.min_cut_feasible = cut;
    }
  }
  EXPECT_TRUE(seen_any);
  return out;
}

/// A connected tiny graph with n vertices and m weights per vertex, 1..5;
/// with `zero_weights`, constraints beyond the first weigh 0..6 instead,
/// so weights can be anti-correlated across constraints.
Graph random_tiny_graph(Rng& rng, idx_t n, int m, bool zero_weights) {
  // Random spanning-tree backbone keeps the graph connected; extra random
  // edges with random weights make the cut structure non-trivial.
  GraphBuilder b(n, m);
  for (idx_t v = 1; v < n; ++v) {
    const idx_t u = static_cast<idx_t>(rng.next_below(static_cast<std::uint64_t>(v)));
    b.add_edge(v, u, 1 + static_cast<wgt_t>(rng.next_below(9)));
  }
  const int extra = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  for (int e = 0; e < extra; ++e) {
    const idx_t v = static_cast<idx_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    const idx_t u = static_cast<idx_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (v != u) b.add_edge(v, u, 1 + static_cast<wgt_t>(rng.next_below(9)));
  }
  for (idx_t v = 0; v < n; ++v) {
    for (int i = 0; i < m; ++i) {
      b.set_weight(v, i,
                   zero_weights && i > 0
                       ? static_cast<wgt_t>(rng.next_below(7))
                       : 1 + static_cast<wgt_t>(rng.next_below(5)));
    }
  }
  return b.build();
}

/// What exhaustive search over all k^n assignments of a tiny graph says:
/// per constraint, the smallest tolerance any assignment needs (empty parts
/// allowed — the floors must hold for those too), and whether some
/// assignment with no empty part meets `ub`.
struct ExactKWay {
  std::vector<real_t> min_needed;
  bool feasible_exists = false;
};

ExactKWay exact_kway(const Graph& g, idx_t k, const std::vector<real_t>& ub,
                     const std::vector<real_t>* tpwgts) {
  const auto ncon = to_size(g.ncon);
  ExactKWay out;
  out.min_needed.assign(ncon, 1e300);
  std::vector<idx_t> where(to_size(g.nvtxs), 0);
  std::vector<idx_t> count(to_size(k), 0);
  count[0] = g.nvtxs;
  std::vector<sum_t> pwgts = part_weights(g, where, k);
  auto move = [&](idx_t v, idx_t to) {
    const idx_t from = where[to_size(v)];
    for (std::size_t i = 0; i < ncon; ++i) {
      const wgt_t w = g.weight(v, static_cast<int>(i));
      sum_t& out_w = pwgts[to_size(from) * ncon + i];
      sum_t& in_w = pwgts[to_size(to) * ncon + i];
      out_w = checked_sub(out_w, w);
      in_w = checked_add(in_w, w);
    }
    --count[to_size(from)];
    ++count[to_size(to)];
    where[to_size(v)] = to;
  };
  while (true) {
    for (std::size_t i = 0; i < ncon; ++i) {
      const sum_t tv = g.tvwgt[i];
      if (tv <= 0) continue;
      real_t needed = 0.0;
      for (idx_t p = 0; p < k; ++p) {
        const real_t frac = tpwgts != nullptr ? (*tpwgts)[to_size(p)]
                                              : 1.0 / static_cast<real_t>(k);
        needed = std::max(
            needed, static_cast<real_t>(pwgts[to_size(p) * ncon + i]) /
                        (frac * static_cast<real_t>(tv)));
      }
      out.min_needed[i] = std::min(out.min_needed[i], needed);
    }
    if (!out.feasible_exists &&
        std::find(count.begin(), count.end(), 0) == count.end() &&
        kway_feasible(g, pwgts, k, ub, tpwgts)) {
      out.feasible_exists = true;
    }
    // Odometer step over the assignment digits.
    idx_t v = 0;
    while (v < g.nvtxs && where[to_size(v)] == k - 1) move(v++, 0);
    if (v == g.nvtxs) break;
    move(v, where[to_size(v)] + 1);
  }
  return out;
}

Graph random_pipeline_graph(Rng& rng) {
  const idx_t n = 40 + static_cast<idx_t>(rng.next_below(260));
  switch (rng.next_below(3)) {
    case 0: {
      const idx_t side = std::max<idx_t>(4, static_cast<idx_t>(std::sqrt(n)));
      return grid2d(side, side);
    }
    case 1:
      return random_geometric(n, 0, rng.next_u64());
    default:
      return random_graph(n, 2.0 + 5.0 * rng.next_real(), rng.next_u64());
  }
}

void apply_random_weights(Graph& g, Rng& rng) {
  const int m = 1 + static_cast<int>(rng.next_below(4));
  switch (rng.next_below(3)) {
    case 0:
      apply_type_r_weights(g, m, 0, 1 + static_cast<wgt_t>(rng.next_below(20)),
                           rng.next_u64());
      break;
    case 1:
      apply_type_s_weights(g, m, 2 + static_cast<idx_t>(rng.next_below(20)), 0,
                           19, rng.next_u64());
      break;
    default:
      apply_type_p_weights(g, m, 4 + static_cast<idx_t>(rng.next_below(30)),
                           rng.next_u64());
      break;
  }
}

int fuzz_case_budget() {
  const char* s = std::getenv("MCGP_FUZZ_CASES");
  if (s != nullptr) {
    const int n = std::atoi(s);
    if (n > 0) return n;
  }
  return 200;
}

/// One audited end-to-end run; returns the result so callers can layer
/// extra differential assertions on top. Any AuditFailure fails the test.
PartitionResult audited_run(const Graph& g, Options opts, Algorithm alg,
                            std::uint64_t replay_seed) {
  InvariantAuditor audit(AuditLevel::kParanoid);
  opts.algorithm = alg;
  opts.audit = &audit;
  PartitionResult r;
  try {
    r = partition(g, opts);
  } catch (const AuditFailure& f) {
    ADD_FAILURE() << "invariant violation (seed " << replay_seed
                  << ", alg " << (alg == Algorithm::kKWay ? "kway" : "rb")
                  << "): " << f.what();
    return r;
  }
  EXPECT_GT(audit.total_checks(), 0u)
      << "paranoid run performed no checks (seed " << replay_seed << ")";
  EXPECT_EQ(r.cut, edge_cut(g, r.part)) << "seed " << replay_seed;
  EXPECT_TRUE(validate_partition(g, r.part, opts.nparts).empty())
      << "seed " << replay_seed;
  return r;
}

TEST(DifferentialFuzz, TinyGraphsAgainstExactBisector) {
  Rng rng(20260805);
  const int cases = 120;
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t replay_seed = rng.next_u64();
    Rng gen(replay_seed);
    const idx_t n = 4 + static_cast<idx_t>(gen.next_below(8));  // 4..11
    const int m = 1 + static_cast<int>(gen.next_below(3));
    const Graph g = random_tiny_graph(gen, n, m, false);
    ASSERT_TRUE(g.validate().empty()) << "seed " << replay_seed;

    // Clamped per constraint to the instance's provable floor (skewed
    // 1..5 weights on 4..11 vertices can push the pigeonhole bound past
    // the raw draw, which validate_options would reject).
    const real_t raw_ub = 1.2 + 0.4 * gen.next_real();
    const std::vector<real_t> floor_ub = min_feasible_ubvec(g, 2, nullptr);
    BisectionTargets targets;
    targets.ub.resize(to_size(g.ncon));
    for (int i = 0; i < g.ncon; ++i) {
      targets.ub[to_size(i)] = std::max(raw_ub, floor_ub[to_size(i)]);
    }
    const ExactBisection exact = exact_best_bisection(g, targets);

    Options opts;
    opts.nparts = 2;
    opts.seed = gen.next_u64();
    opts.ubvec = targets.ub;
    for (const Algorithm alg :
         {Algorithm::kRecursiveBisection, Algorithm::kKWay}) {
      const PartitionResult r = audited_run(g, opts, alg, replay_seed);
      // The exact unconstrained minimum bounds ANY 2-part cut with two
      // non-empty parts from below (the partitioner guarantees non-empty
      // parts whenever nvtxs >= nparts).
      EXPECT_GE(r.cut, exact.min_cut_any) << "seed " << replay_seed;
      // A feasible result can never beat the best feasible bisection.
      if (exact.min_cut_feasible.has_value() &&
          r.max_imbalance <= 1.0 + 1e-9) {
        EXPECT_GE(r.cut, *exact.min_cut_feasible) << "seed " << replay_seed;
      }
    }
  }
}

TEST(DifferentialFuzz, TinyKWayAgainstExhaustiveSearch) {
  Rng rng(20261017);
  const int cases = 300;
  int runs = 0;
  int feasible_exists = 0;
  int missed = 0;  // infeasible verdicts where a feasible partition exists
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t replay_seed = rng.next_u64();
    Rng gen(replay_seed);
    const idx_t k = 2 + c % 3;
    const int m = 1 + (c / 3) % 3;
    // k^n stays <= 4^9 = 262144 assignments per instance.
    const idx_t n_max = k == 4 ? 9 : 10;
    const idx_t n = k + 1 +
                    static_cast<idx_t>(gen.next_below(
                        static_cast<std::uint64_t>(n_max - k)));
    const Graph g = random_tiny_graph(gen, n, m, true);
    ASSERT_TRUE(g.validate().empty()) << "seed " << replay_seed;

    Options opts;
    opts.nparts = k;
    opts.seed = gen.next_u64();
    if (c % 4 == 3) {  // non-uniform targets
      real_t total = 0.0;
      for (idx_t p = 0; p < k; ++p) {
        opts.tpwgts.push_back(1.0 + gen.next_real());
        total += opts.tpwgts.back();
      }
      for (real_t& f : opts.tpwgts) f /= total;
    }
    const std::vector<real_t>* tp =
        opts.tpwgts.empty() ? nullptr : &opts.tpwgts;
    const std::vector<real_t> floor_ub = min_feasible_ubvec(g, k, tp);
    if (gen.next_bool()) {  // explicit tolerances, clamped to the floor
      for (int i = 0; i < m; ++i) {
        opts.ubvec.push_back(
            std::max(1.0 + 0.3 * gen.next_real(), floor_ub[to_size(i)]));
      }
    }
    const std::vector<real_t> ub = effective_ubvec(g, opts);
    const ExactKWay exact = exact_kway(g, k, ub, tp);

    // Soundness of the floors: no assignment needs less, in any constraint.
    for (int i = 0; i < m; ++i) {
      if (g.tvwgt[to_size(i)] <= 0) continue;
      EXPECT_GE(exact.min_needed[to_size(i)], floor_ub[to_size(i)] - 1e-9)
          << "seed " << replay_seed << " constraint " << i;
    }

    for (const Algorithm alg :
         {Algorithm::kRecursiveBisection, Algorithm::kKWay}) {
      opts.algorithm = alg;
      const PartitionResult r = partition(g, opts);
      ++runs;
      // The verdict is honest: a feasible claim needs a witness.
      EXPECT_TRUE(!r.feasible || exact.feasible_exists)
          << "seed " << replay_seed;
      if (exact.feasible_exists) {
        ++feasible_exists;
        if (!r.feasible) ++missed;
      }
    }
  }
  std::printf(
      "[ oracle   ] %d runs, %d with a feasible partition, %d of those "
      "reported infeasible\n",
      runs, feasible_exists, missed);
}

TEST(DifferentialFuzz, PipelineCasesStayInvariantClean) {
  Rng rng(97);
  const int cases = fuzz_case_budget();
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t replay_seed = rng.next_u64();
    Rng gen(replay_seed);
    Graph g = random_pipeline_graph(gen);
    apply_random_weights(g, gen);
    ASSERT_TRUE(g.validate().empty()) << "seed " << replay_seed;

    Options opts;
    opts.nparts = 2 + static_cast<idx_t>(gen.next_below(14));
    opts.seed = gen.next_u64();
    opts.num_threads = c % 4 == 0 ? 2 : 1;
    opts.ubvec.assign(to_size(g.ncon),
                      1.03 + 0.12 * gen.next_real());
    // Clamp to the instance's provable floor so validate_options accepts
    // the configuration (explicitly infeasible tolerances now throw).
    const std::vector<real_t> floor_ub =
        min_feasible_ubvec(g, opts.nparts, nullptr);
    for (std::size_t i = 0; i < opts.ubvec.size(); ++i) {
      opts.ubvec[i] = std::max(opts.ubvec[i], floor_ub[i]);
    }
    if (gen.next_bool()) {
      opts.kway_scheme = KWayRefineScheme::kPriorityQueue;
    }

    const PartitionResult rb =
        audited_run(g, opts, Algorithm::kRecursiveBisection, replay_seed);
    const PartitionResult kw =
        audited_run(g, opts, Algorithm::kKWay, replay_seed);
    // Differential sanity between the two algorithms: identical inputs,
    // independent code paths, so both must produce structurally valid
    // partitions of the same graph — and metrics computed from them must
    // agree with the partition they describe (checked in audited_run).
    EXPECT_EQ(rb.part.size(), kw.part.size()) << "seed " << replay_seed;
  }
}

}  // namespace
}  // namespace mcgp
