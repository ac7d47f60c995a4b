// The feasibility backstop: min_feasible_ubvec's provable bounds,
// effective_ubvec's clamp, validate_options' rejection of impossible
// tolerances, rebalance_partition repairing overloaded partitions, the
// feasibility auditor seam, and the tight-instance matrix that motivated
// the subsystem (grid-13x13 at k=64 leaves ~2.6 vertices per part; the
// refiner's balancer alone used to exit with ubvec violated).
#include "core/rebalance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/kway_context.hpp"
#include "core/kway_refine.hpp"
#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "support/check.hpp"
#include "support/indexed_heap.hpp"
#include "support/random.hpp"
#include "support/trace.hpp"

namespace mcgp {
namespace {

/// Path graph with explicit per-vertex weights (ncon = 1).
Graph weighted_path(const std::vector<wgt_t>& w) {
  GraphBuilder b(static_cast<idx_t>(w.size()), 1);
  for (idx_t v = 0; v + 1 < static_cast<idx_t>(w.size()); ++v) {
    b.add_edge(v, v + 1);
  }
  for (idx_t v = 0; v < static_cast<idx_t>(w.size()); ++v) {
    b.set_weight(v, 0, w[to_size(v)]);
  }
  return b.build();
}

TEST(MinFeasibleUbvec, UnitWeightsEvenSplitIsOne) {
  const Graph g = grid2d(4, 4);  // 16 unit vertices
  const std::vector<real_t> b = min_feasible_ubvec(g, 4, nullptr);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
}

TEST(MinFeasibleUbvec, CountPigeonholeOddSplit) {
  // 5 unit vertices into 2 parts: some part holds ceil(5/2) = 3 vertices,
  // so no tolerance below 3 / (0.5 * 5) = 1.2 is achievable.
  const Graph g = weighted_path({1, 1, 1, 1, 1});
  const std::vector<real_t> b = min_feasible_ubvec(g, 2, nullptr);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(b[0], 1.2, 1e-12);
}

TEST(MinFeasibleUbvec, HeaviestVertexDominates) {
  // One vertex of weight 10 among units: whichever part holds it carries
  // at least 10 / (0.5 * 13) = 20/13 of its target.
  const Graph g = weighted_path({10, 1, 1, 1});
  const std::vector<real_t> b = min_feasible_ubvec(g, 2, nullptr);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(b[0], 20.0 / 13.0, 1e-12);
}

TEST(MinFeasibleUbvec, Grid13x13At64PartsIsThreeVertexParts) {
  // 169 unit vertices into 64 parts: some part holds ceil(169/64) = 3
  // vertices -> 3 * 64 / 169. This is the exact tolerance the ledger's
  // historical maxlb=1.13609 runs were already achieving.
  const Graph g = grid2d(13, 13);
  const std::vector<real_t> b = min_feasible_ubvec(g, 64, nullptr);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(b[0], 3.0 * 64.0 / 169.0, 1e-12);
}

TEST(EffectiveUbvec, DefaultClampsUpExplicitAchievableStays) {
  const Graph g = grid2d(13, 13);
  Options o;
  o.nparts = 64;  // bound ~1.136 exceeds the 1.05 default
  const std::vector<real_t> clamped = effective_ubvec(g, o);
  ASSERT_EQ(clamped.size(), 1u);
  EXPECT_NEAR(clamped[0], 3.0 * 64.0 / 169.0, 1e-12);

  o.ubvec = {1.20};  // explicitly above the bound: honored verbatim
  const std::vector<real_t> kept = effective_ubvec(g, o);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0], 1.20);
}

TEST(ValidateOptions, ExplicitlyInfeasibleUbvecRejected) {
  const Graph g = grid2d(13, 13);
  Options o;
  o.nparts = 64;
  o.ubvec = {1.01};  // below the 1.136 pigeonhole bound
  try {
    partition(g, o);
    FAIL() << "infeasible explicit ubvec must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("infeasible"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ubvec"), std::string::npos) << msg;
  }
}

TEST(RebalancePartition, RepairsGrosslyOverloadedPartition) {
  const Graph g = grid2d(10, 10);
  const idx_t k = 4;
  // Everything in part 0 except one seed vertex per other part.
  std::vector<idx_t> where(to_size(g.nvtxs), 0);
  for (idx_t p = 1; p < k; ++p) where[to_size(p)] = p;
  const std::vector<real_t> ub = {1.05};
  Rng rng(7);
  RebalanceStats stats;
  const bool ok = rebalance_partition(g, k, where, ub, rng, nullptr, &stats);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(stats.feasible);
  EXPECT_GT(stats.moves, 0);
  EXPECT_TRUE(kway_feasible(g, part_weights(g, where, k), k, ub, nullptr));
}

TEST(RebalancePartition, FeasibleInputStaysFeasibleAndUntouchedOrBetter) {
  const Graph g = grid2d(8, 8);
  const idx_t k = 4;
  // Exact 16-vertex quadrants: already perfectly balanced.
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t x = v % 8, y = v / 8;
    where[to_size(v)] = (y / 4) * 2 + (x / 4);
  }
  const std::vector<idx_t> before = where;
  const std::vector<real_t> ub = {1.05};
  Rng rng(7);
  EXPECT_TRUE(rebalance_partition(g, k, where, ub, rng));
  EXPECT_EQ(where, before);  // nothing to do: input returned verbatim
}

TEST(RebalancePartition, TracesDeterministicWorkCounts) {
  // An 8x8 block start under Type-P weights at a tight tolerance: the
  // greedy episodes deadlock and the overload descent has to run.
  Graph g = grid2d(48, 48);
  apply_type_p_weights(g, 3, 24, 2003);
  const idx_t k = 16;
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = ((v / 48) / 6 * 8 + (v % 48) / 6) % k;
  }
  const std::vector<real_t> ub(3, 1.02);
  auto run = [&](TraceRecorder* trace, RebalanceStats& stats) {
    std::vector<idx_t> w = where;
    Rng rng(5);
    RunContext traced;
    traced.trace = trace;
    rebalance_partition(g, k, w, ub, rng, nullptr, &stats, traced);
    return w;
  };
  TraceRecorder trace;
  RebalanceStats traced;
  RebalanceStats untraced;
  EXPECT_EQ(run(&trace, traced), run(nullptr, untraced));
  EXPECT_EQ(traced.descent_evals, untraced.descent_evals);
  EXPECT_GT(traced.descent_evals, 0);
  EXPECT_EQ(trace.counters().get("rebalance.descent.evals"),
            traced.descent_evals);
  EXPECT_EQ(trace.counters().get("rebalance.moves"), traced.moves);
}

/// rebalance_partition as it ran before the per-part member index and the
/// cached descent terms, for graphs above the swap and kick size gates and
/// with no V-cycles: full-scan greedy episodes, then the single-move
/// overload descent with every delta recomputed from scratch, keeping the
/// best state. The library must reproduce it move for move.
struct ReferenceRebalancer {
  const Graph& g;
  idx_t nparts;
  std::vector<idx_t>& where;
  KWayContext ctx;
  sum_t moves = 0;
  int episodes = 0;

  ReferenceRebalancer(const Graph& graph, idx_t k, std::vector<idx_t>& w,
                      const std::vector<real_t>& ub,
                      const std::vector<real_t>* tpwgts)
      : g(graph), nparts(k), where(w), ctx(graph, k, w, ub, tpwgts) {}

  bool find_peak(idx_t& q, int& c) const {
    q = -1;
    c = 0;
    real_t peak = 1.0 + 1e-12;
    for (idx_t p = 0; p < nparts; ++p) {
      for (int i = 0; i < g.ncon; ++i) {
        if (ctx.overload(p, i) > peak) {
          peak = ctx.overload(p, i);
          q = p;
          c = i;
        }
      }
    }
    return q >= 0;
  }

  std::pair<real_t, idx_t> progress() const {
    const real_t peak = ctx.max_overload();
    idx_t at_peak = 0;
    for (idx_t p = 0; p < nparts; ++p) {
      for (int i = 0; i < g.ncon; ++i) {
        if (ctx.overload(p, i) > peak - 1e-9) ++at_peak;
      }
    }
    return {peak, at_peak};
  }

  real_t relief_key(idx_t v, int c, std::vector<sum_t>& conn,
                    std::vector<idx_t>& touched) const {
    const sum_t idw = ctx.gather_connectivity_into(v, conn, touched);
    sum_t edw = 0;
    for (const idx_t p : touched) edw = checked_add(edw, conn[to_size(p)]);
    return static_cast<real_t>(checked_sub(edw, idw)) /
           static_cast<real_t>(std::max<wgt_t>(g.weight(v, c), 1));
  }

  idx_t pick_destination(idx_t v, idx_t q, sum_t idw, real_t peak) const {
    idx_t best = -1;
    bool best_fits = false;
    sum_t best_gain = 0;
    real_t best_load = 0.0;
    auto consider = [&](idx_t p) {
      if (p < 0 || p == q) return;
      const real_t after = ctx.load_after(v, p);
      const bool fits = after <= 1.0 + 1e-12;
      if (!fits && after >= peak - 1e-12) return;
      const sum_t gain = checked_sub(ctx.conn(p), idw);
      if (best < 0 || (fits && !best_fits) ||
          (fits == best_fits &&
           (gain > best_gain ||
            (gain == best_gain &&
             (after < best_load - 1e-12 ||
              (after <= best_load + 1e-12 && p < best)))))) {
        best = p;
        best_fits = fits;
        best_gain = gain;
        best_load = after;
      }
    };
    for (const idx_t p : ctx.touched()) consider(p);
    idx_t lightest = -1;
    real_t lightest_load = 1e300;
    for (idx_t p = 0; p < nparts; ++p) {
      if (p == q) continue;
      const real_t l = ctx.part_load(p);
      if (l < lightest_load - 1e-12 ||
          (l <= lightest_load + 1e-12 && (lightest < 0 || p < lightest))) {
        lightest_load = l;
        lightest = p;
      }
    }
    consider(lightest);
    return best;
  }

  void greedy_episodes() {
    const int max_episodes = 16 * g.ncon * std::max<idx_t>(nparts, 2);
    const sum_t move_cap = checked_mul(
        static_cast<sum_t>(8), static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
    std::vector<sum_t> conn(to_size(nparts), 0);
    std::vector<idx_t> touched;
    sum_t total = 0;
    auto prev = progress();
    for (int ep = 0; ep < max_episodes; ++ep) {
      idx_t q;
      int c;
      if (!find_peak(q, c) || total >= move_cap) break;
      IndexedMaxHeap heap;
      heap.reset(g.nvtxs);
      std::vector<char> requeued(to_size(g.nvtxs), 0);
      for (idx_t v = 0; v < g.nvtxs; ++v) {
        if (where[to_size(v)] != q || g.weight(v, c) <= 0) continue;
        heap.insert(v, relief_key(v, c, conn, touched));
      }
      idx_t ep_moves = 0;
      while (!heap.empty()) {
        if (ctx.overload(q, c) <= 1.0 + 1e-12 || !ctx.can_leave(q)) break;
        const real_t popped_key = heap.top_key();
        const idx_t v = heap.pop_max();
        const real_t fresh = relief_key(v, c, conn, touched);
        if (requeued[to_size(v)] == 0 && fresh < popped_key - 1e-9 &&
            !heap.empty() && fresh < heap.top_key()) {
          requeued[to_size(v)] = 1;
          heap.insert(v, fresh);
          continue;
        }
        const sum_t idw = ctx.gather_connectivity(v);
        const idx_t dest = pick_destination(v, q, idw, ctx.max_overload());
        if (dest < 0) continue;
        ctx.move(v, dest);
        ++ep_moves;
      }
      if (ep_moves == 0) break;
      total = checked_add(total, ep_moves);
      ++episodes;
      const auto cur = progress();
      if (cur.first >= prev.first - 1e-12 && cur.second >= prev.second) break;
      prev = cur;
    }
    moves = checked_add(moves, total);
  }

  real_t move_delta(idx_t v, idx_t q, idx_t p) const {
    real_t d = 0.0;
    const wgt_t* w = g.weights(v);
    for (int i = 0; i < g.ncon; ++i) {
      d += std::max(0.0, ctx.load_with(q, i, checked_narrow<wgt_t>(
                                                 -static_cast<sum_t>(w[i]))) -
                             1.0) -
           std::max(0.0, ctx.overload(q, i) - 1.0) +
           std::max(0.0, ctx.load_with(p, i, w[i]) - 1.0) -
           std::max(0.0, ctx.overload(p, i) - 1.0);
    }
    return d;
  }

  sum_t overload_descent() {
    sum_t m = 0;
    const sum_t move_cap = checked_mul(
        static_cast<sum_t>(8), static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
    bool changed = true;
    while (changed && m < move_cap) {
      changed = false;
      for (idx_t v = 0; v < g.nvtxs && m < move_cap; ++v) {
        const idx_t q = where[to_size(v)];
        bool over = false;
        for (int i = 0; i < g.ncon; ++i) {
          if (ctx.overload(q, i) > 1.0 + 1e-12) over = true;
        }
        if (!over || !ctx.can_leave(q)) continue;
        idx_t best = -1;
        real_t best_d = -1e-9;
        for (idx_t p = 0; p < nparts; ++p) {
          if (p == q) continue;
          const real_t d = move_delta(v, q, p);
          if (d < best_d - 1e-12) {
            best_d = d;
            best = p;
          }
        }
        if (best >= 0) {
          ctx.move(v, best);
          m = checked_add(m, 1);
          changed = true;
        }
      }
    }
    return m;
  }

  real_t total_overload() const {
    real_t t = 0.0;
    for (idx_t p = 0; p < nparts; ++p) {
      for (int i = 0; i < g.ncon; ++i) {
        t += std::max(0.0, ctx.overload(p, i) - 1.0);
      }
    }
    return t;
  }

  void run() {
    if (ctx.feasible()) return;
    const std::vector<idx_t> input = where;
    const real_t in_overload = ctx.max_overload();
    const real_t in_sum = total_overload();
    const sum_t in_cut = edge_cut(g, where);
    greedy_episodes();
    for (int round = 0; round < 8 && !ctx.feasible(); ++round) {
      const sum_t m = overload_descent();
      moves = checked_add(moves, m);
      if (m == 0) break;
    }
    // Keep the input unless the result is better: feasible first, then a
    // lower peak, a lower summed overload, a lower cut.
    const real_t ov = ctx.max_overload();
    const real_t tsum = total_overload();
    const bool better =
        ctx.feasible() ||
        ov < in_overload - 1e-12 ||
        (ov <= in_overload + 1e-12 &&
         (tsum < in_sum - 1e-12 ||
          (tsum <= in_sum + 1e-12 && edge_cut(g, where) < in_cut)));
    if (!better) where = input;
  }
};

TEST(RebalancePartition, MatchesFullScanReference) {
  // 112x112 = 12544 vertices: above the swap/kick gate, so with no
  // V-cycles the library runs exactly the greedy episodes and the descent.
  const idx_t side = 112;
  int descents = 0;
  for (const int m : {1, 3}) {
    Graph g = grid2d(side, side);
    apply_type_p_weights(g, m, 32, 2003);
    for (const idx_t k : {16, 64}) {
      for (const real_t ub_value : {1.03, 1.05}) {
        const std::vector<real_t> ub(to_size(m), ub_value);
        std::vector<idx_t> start(to_size(g.nvtxs));
        const idx_t block = side / 8;
        for (idx_t v = 0; v < g.nvtxs; ++v) {
          start[to_size(v)] = ((v / side) / block * 8 + (v % side) / block) % k;
        }
        Rng br(3);
        kway_balance(g, k, start, ub, br);  // the drift pipeline's first step
        std::vector<idx_t> expect = start;
        ReferenceRebalancer ref(g, k, expect, ub, nullptr);
        ref.run();
        std::vector<idx_t> got = start;
        Rng rng(4);
        RebalanceStats st;
        rebalance_partition(g, k, got, ub, rng, nullptr, &st, {},
                            /*max_vcycles=*/0);
        EXPECT_EQ(got, expect) << "m=" << m << " k=" << k << " ub=" << ub_value;
        EXPECT_EQ(st.moves, ref.moves);
        EXPECT_EQ(st.episodes, ref.episodes);
        if (st.descent_evals > 0) ++descents;
      }
    }
  }
  EXPECT_GE(descents, 2);  // the descent actually ran
}

TEST(FeasibilityAudit, PassesOnHonestDeclarationTripsOnCorruption) {
  const Graph g = grid2d(6, 6);
  const idx_t k = 4;
  Options o;
  o.nparts = k;
  const PartitionResult r = partition(g, o);
  ASSERT_TRUE(r.feasible);

  InvariantAuditor audit(AuditLevel::kBoundaries);
  audit.check_feasibility(g, r.part, k, r.ubvec_used, nullptr,
                          /*declared_feasible=*/true, "test.honest");
  EXPECT_EQ(audit.count(AuditCheck::kFeasibility), 1u);

  // Corrupt the partition past ubvec: pile most vertices into part 0
  // (keeping every part non-empty) and keep declaring feasibility.
  std::vector<idx_t> corrupted = r.part;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    corrupted[to_size(v)] = v < k - 1 ? v + 1 : 0;
  }
  EXPECT_THROW(
      audit.check_feasibility(g, corrupted, k, r.ubvec_used, nullptr,
                              /*declared_feasible=*/true, "test.corrupt"),
      AuditFailure);
  // A stale infeasible verdict on a feasible partition must trip too.
  EXPECT_THROW(
      audit.check_feasibility(g, r.part, k, r.ubvec_used, nullptr,
                              /*declared_feasible=*/false, "test.stale"),
      AuditFailure);
}

// The CI tight-instance gate (named step in perf-smoke): 64 parts on 169
// vertices must come back feasible for both algorithms, ncon 1 and 3,
// across seeds 1..5. ncon = 1 runs at the clamped provable bound
// (3*64/169); ncon = 3 needs an explicit 1.25 — the per-constraint
// pigeonhole bounds are all ~1.0 there, but jointly packing three
// constraints onto ~2.6-vertex parts is infeasible below ~1.20 (verified
// by annealing the pure packing problem), which no sound per-constraint
// bound can capture. Deterministic at a fixed seed, so this either
// always passes or always fails.
TEST(TightInstances, Grid13FeasibleAcrossSeeds) {
  for (const int ncon : {1, 3}) {
    Graph g = grid2d(13, 13, ncon);
    if (ncon > 1) apply_type_s_weights(g, ncon, 16, 0, 19, 1003);
    for (const Algorithm alg :
         {Algorithm::kKWay, Algorithm::kRecursiveBisection}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Options o;
        o.nparts = 64;
        o.algorithm = alg;
        o.seed = seed;  // ncon=1: empty ubvec clamps to the provable bound
        if (ncon > 1) o.ubvec.assign(to_size(ncon), 1.25);
        const PartitionResult r = partition(g, o);
        const char* alg_name = alg == Algorithm::kKWay ? "MC-KW" : "MC-RB";
        EXPECT_TRUE(r.feasible)
            << alg_name << " ncon=" << ncon << " seed=" << seed
            << " maxlb=" << r.max_imbalance;
        // The verdict must match a from-scratch recompute against the
        // tolerances the run reports it was held to.
        ASSERT_EQ(r.ubvec_used.size(), to_size(g.ncon));
        EXPECT_TRUE(kway_feasible(g, part_weights(g, r.part, o.nparts),
                                  o.nparts, r.ubvec_used, nullptr))
            << alg_name << " ncon=" << ncon << " seed=" << seed;
        for (std::size_t i = 0; i < r.imbalance.size(); ++i) {
          EXPECT_LE(r.imbalance[i], r.ubvec_used[i] + 1e-9)
              << alg_name << " ncon=" << ncon << " seed=" << seed
              << " constraint=" << i;
        }
      }
    }
  }
}

// When the requested tolerance is jointly unachievable (and no sound
// per-constraint bound can prove it, so validate_options accepts the
// configuration), the verdict must stay honest: feasible=false with the
// reported imbalance actually exceeding the tolerance — never a rosy
// flag. This is exactly the ledger bug that motivated the subsystem,
// inverted: the run may fail to balance, it may not misreport it.
TEST(TightInstances, VerdictStaysHonestWhenToleranceUnachievable) {
  Graph g = grid2d(13, 13, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 1003);
  for (const Algorithm alg :
       {Algorithm::kKWay, Algorithm::kRecursiveBisection}) {
    Options o;
    o.nparts = 64;
    o.algorithm = alg;
    o.seed = 1;  // empty ubvec: the 1.05 default survives the clamp here,
                 // and 1.05 is jointly infeasible for these weights
    const PartitionResult r = partition(g, o);
    const char* alg_name = alg == Algorithm::kKWay ? "MC-KW" : "MC-RB";
    EXPECT_FALSE(r.feasible) << alg_name;
    EXPECT_EQ(r.feasible,
              kway_feasible(g, part_weights(g, r.part, o.nparts), o.nparts,
                            r.ubvec_used, nullptr))
        << alg_name << ": verdict disagrees with a recompute";
    EXPECT_GT(r.max_imbalance, 1.05) << alg_name;
  }
}

// Tight-tolerance matrix over the two tent-instance graphs: requested
// tolerances clamped per constraint to the provable floor ({1.01, 1.05,
// 1.10} for ncon=1; {1.25, 1.30} for ncon=3, above the joint packing
// threshold — see Grid13FeasibleAcrossSeeds), both algorithms, 1 and 8
// threads. Every cell must be feasible at the tolerances the run was
// held to, with the 8-thread partition bit-identical to the serial one
// (the rebalancer runs serially after the parallel phases, so it must
// preserve the determinism contract).
TEST(TightInstances, FeasibilityMatrixAcrossToleranceAlgorithmThreads) {
  struct Instance {
    const char* name;
    Graph graph;
  };
  for (const int ncon : {1, 3}) {
    std::vector<Instance> instances;
    instances.push_back({"grid-13x13", grid2d(13, 13, ncon)});
    instances.push_back({"tri-12x12", tri_grid2d(12, 12, ncon)});
    const std::vector<real_t> reqs = ncon == 1
                                         ? std::vector<real_t>{1.01, 1.05, 1.10}
                                         : std::vector<real_t>{1.25, 1.30};
    for (Instance& inst : instances) {
      if (ncon > 1) apply_type_s_weights(inst.graph, ncon, 16, 0, 19, 1003);
      const std::vector<real_t> floor_ub =
          min_feasible_ubvec(inst.graph, 64, nullptr);
      for (const real_t req : reqs) {
        std::vector<real_t> ub(to_size(ncon));
        for (int i = 0; i < ncon; ++i) {
          ub[to_size(i)] = std::max(req, floor_ub[to_size(i)]);
        }
        for (const Algorithm alg :
             {Algorithm::kKWay, Algorithm::kRecursiveBisection}) {
          Options o;
          o.nparts = 64;
          o.algorithm = alg;
          o.ubvec = ub;
          o.seed = 3;
          o.num_threads = 1;
          const PartitionResult serial = partition(inst.graph, o);
          const std::string ctx =
              std::string(inst.name) + " ncon=" + std::to_string(ncon) +
              " req=" + std::to_string(req) +
              (alg == Algorithm::kKWay ? " MC-KW" : " MC-RB");
          EXPECT_TRUE(serial.feasible)
              << ctx << " maxlb=" << serial.max_imbalance;
          ASSERT_EQ(serial.ubvec_used.size(), to_size(ncon)) << ctx;
          for (std::size_t i = 0; i < serial.imbalance.size(); ++i) {
            EXPECT_LE(serial.imbalance[i], serial.ubvec_used[i] + 1e-9)
                << ctx << " constraint=" << i;
          }

          o.num_threads = 8;
          const PartitionResult threaded = partition(inst.graph, o);
          EXPECT_EQ(threaded.part, serial.part) << ctx;
          EXPECT_EQ(threaded.feasible, serial.feasible) << ctx;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mcgp
