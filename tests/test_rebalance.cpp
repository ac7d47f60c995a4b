// The feasibility backstop: min_feasible_ubvec's provable bounds,
// effective_ubvec's clamp, validate_options' rejection of impossible
// tolerances, rebalance_partition repairing overloaded partitions, the
// feasibility auditor seam, and the tight-instance matrix that motivated
// the subsystem (grid-13x13 at k=64 leaves ~2.6 vertices per part; the
// refiner's balancer alone used to exit with ubvec violated).
#include "core/rebalance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/kway_context.hpp"
#include "core/kway_refine.hpp"
#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "reference_drain.hpp"
#include "support/check.hpp"
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
  // peak drain deadlocks and the overload descent has to run.
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
  // The pairs the descents actually evaluated: exact counts, pinned.
  EXPECT_EQ(traced.descent_scanned, untraced.descent_scanned);
  EXPECT_EQ(traced.swap_scanned, untraced.swap_scanned);
  EXPECT_EQ(trace.counters().get("rebalance.descent.scanned"),
            traced.descent_scanned);
  EXPECT_EQ(trace.counters().get("rebalance.swaps.scanned"),
            traced.swap_scanned);
  EXPECT_EQ(traced.descent_evals, 60555);
  EXPECT_EQ(traced.descent_scanned, 7782);
  EXPECT_EQ(traced.swap_scanned, 32434);

  // Through refine_partition(), at any thread count, the rebalancer's
  // counters come out the same.
  for (const int threads : {1, 4}) {
    TraceRecorder t;
    Options o;
    o.nparts = k;
    o.ubvec = ub;
    o.num_threads = threads;
    o.trace = &t;
    refine_partition(g, where, o);
    const CounterRegistry c = t.merged_counters();
    EXPECT_EQ(c.get("rebalance.descent.evals"), 60555) << threads;
    EXPECT_EQ(c.get("rebalance.descent.scanned"), 7782) << threads;
    EXPECT_EQ(c.get("rebalance.swaps.scanned"), 32434) << threads;
  }
}

/// rebalance_partition as it ran before the per-part member index and the
/// cached descent terms, for graphs above the swap and kick size gates and
/// with no V-cycles: the full-scan peak drain, then the single-move
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
    const ReferenceDrainResult drained = reference_drain(g, ctx, where);
    moves = checked_add(moves, drained.moves);
    episodes = drained.episodes;
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
  // V-cycles the library runs exactly the peak drain and the descent.
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

TEST(MaxWeightBelow, AgreesWithTheDivisionAroundTheThreshold) {
  // The integer test w <= W must give the FP predicate's answer at W - 1,
  // W and W + 1, for tolerance limits of every scale, the 1e300 of a
  // weightless constraint, and bounds that land exactly on an integer's
  // load.
  constexpr sum_t kMax = std::numeric_limits<sum_t>::max();
  Rng rng(2026);
  auto uniform = [&](real_t lo, real_t hi) {
    return lo + (hi - lo) * static_cast<real_t>(rng.next_below(1u << 30)) /
                    static_cast<real_t>(1u << 30);
  };
  for (int t = 0; t < 4000; ++t) {
    const real_t scale =
        std::pow(10.0, static_cast<real_t>(rng.next_below(19)));
    const real_t limit = t % 50 == 0 ? 1e300 : uniform(0.5, 10.0) * scale;
    real_t bound = uniform(1.0, 2.0) - 1e-12;
    if (t % 3 == 0 && limit < 1e15) {
      // A bound exactly at some weight's load.
      bound = static_cast<real_t>(
                  std::max<sum_t>(static_cast<sum_t>(limit * bound), 1)) /
              limit;
    }
    const sum_t top = max_weight_below(limit, bound);
    ASSERT_GE(top, 0);
    const sum_t next = top < kMax ? checked_add(top, 1) : top;
    for (const sum_t x : {checked_sub(top, 1), top, next}) {
      EXPECT_EQ(x <= top, static_cast<real_t>(x) / limit < bound)
          << "limit=" << limit << " bound=" << bound << " W=" << top
          << " x=" << x;
    }
  }
  EXPECT_EQ(max_weight_below(1e300, 1.05), kMax);
  EXPECT_EQ(max_weight_below(100.0, 1.05), 104);
  EXPECT_EQ(max_weight_below(100.0, 1.04), 103);  // 104/100 is not < 1.04
}

/// swap_escape's pair scan as it ran before its integer weight bounds:
/// both post-swap loads divided out for every (source, partner) pair.
sum_t reference_swap_escape(const Graph& g, KWayContext& ctx) {
  const std::vector<idx_t>& where = ctx.where();
  auto load_after_swap = [&](idx_t p, idx_t out, idx_t in) {
    real_t l = 0.0;
    for (int i = 0; i < g.ncon; ++i) {
      sum_t held = ctx.pwgts()[to_size(p) * to_size(g.ncon) + to_size(i)];
      held = checked_sub(held, g.weight(out, i));
      held = checked_add(held, g.weight(in, i));
      l = std::max(l, static_cast<real_t>(held) / ctx.limit(p, i));
    }
    return l;
  };
  sum_t swaps = 0;
  const sum_t swap_cap = checked_mul(4, g.nvtxs);
  std::vector<idx_t> cand;
  while (swaps < swap_cap) {
    idx_t q;
    int c;
    if (!ctx.overload_peak(q, c)) break;
    const real_t peak = ctx.max_overload();
    cand.clear();
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      if (where[to_size(v)] == q && g.weight(v, c) > 0) cand.push_back(v);
    }
    std::stable_sort(cand.begin(), cand.end(), [&](idx_t a, idx_t b) {
      if (g.weight(a, c) != g.weight(b, c)) {
        return g.weight(a, c) > g.weight(b, c);
      }
      return a < b;
    });
    if (cand.size() > 128) cand.resize(128);
    idx_t best_v = -1;
    idx_t best_u = -1;
    real_t best_after = peak;
    for (const idx_t v : cand) {
      for (idx_t u = 0; u < g.nvtxs; ++u) {
        const idx_t p = where[to_size(u)];
        if (p == q) continue;
        const real_t aq = load_after_swap(q, v, u);
        if (aq >= peak - 1e-12) continue;
        const real_t ap = load_after_swap(p, u, v);
        if (ap >= peak - 1e-12) continue;
        const real_t after = std::max(aq, ap);
        if (after < best_after - 1e-12 ||
            (after <= best_after + 1e-12 && best_v >= 0 &&
             (v < best_v || (v == best_v && u < best_u)))) {
          best_v = v;
          best_u = u;
          best_after = after;
        }
      }
    }
    if (best_v < 0) break;
    const idx_t p = where[to_size(best_u)];
    ctx.move(best_v, p);
    ctx.move(best_u, q);
    swaps = checked_add(swaps, 1);
  }
  return swaps;
}

TEST(SwapEscape, MatchesDividingPairScan) {
  // The tight instances the escape exists for: grid-13^2 at m=3 (the
  // tight-grid13-m3 benchmark workload) and grid-21^2 at m=5, k=64, each
  // from random starts drained the way the descent drains them first.
  struct Instance {
    idx_t side;
    int m;
  };
  sum_t total_swaps = 0;
  for (const Instance inst : {Instance{13, 3}, Instance{21, 5}}) {
    Graph g = grid2d(inst.side, inst.side);
    apply_type_s_weights(g, inst.m, 16, 0, 19,
                         2000u + static_cast<std::uint64_t>(inst.m));
    Options o;
    o.nparts = 64;
    const std::vector<real_t> ub = effective_ubvec(g, o);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      std::vector<idx_t> start(to_size(g.nvtxs));
      Rng rng(seed);
      for (idx_t& p : start) p = static_cast<idx_t>(rng.next_below(64));
      {
        KWayContext ctx(g, 64, start, ub, nullptr);
        drain_peaks(ctx);
      }
      std::vector<idx_t> expect = start;
      KWayContext ref_ctx(g, 64, expect, ub, nullptr);
      const sum_t expect_swaps = reference_swap_escape(g, ref_ctx);
      std::vector<idx_t> got = start;
      KWayContext ctx(g, 64, got, ub, nullptr);
      EXPECT_EQ(swap_escape(g, ctx), expect_swaps)
          << "side=" << inst.side << " seed=" << seed;
      EXPECT_EQ(got, expect) << "side=" << inst.side << " seed=" << seed;
      total_swaps = checked_add(total_swaps, expect_swaps);
    }
  }
  EXPECT_GT(total_swaps, 0);  // the escape actually swapped
}

/// overload_descent as it ran before its memo: every vertex of an
/// overloaded part that can spare it scans every destination part.
sum_t reference_overload_descent(const Graph& g, KWayContext& ctx,
                                 sum_t* evals) {
  const std::vector<idx_t>& where = ctx.where();
  const idx_t nparts = ctx.nparts();
  const auto ncon = to_size(g.ncon);
  sum_t moves = 0;
  const sum_t move_cap = checked_mul(8, std::max<idx_t>(g.nvtxs, 1));
  std::vector<real_t> excess(to_size(nparts) * ncon);
  std::vector<char> over(to_size(nparts));
  auto refresh = [&](idx_t p) {
    over[to_size(p)] = 0;
    for (int i = 0; i < g.ncon; ++i) {
      const real_t l = ctx.overload(p, i);
      if (l > 1.0 + 1e-12) over[to_size(p)] = 1;
      excess[to_size(p) * ncon + to_size(i)] = std::max(0.0, l - 1.0);
    }
  };
  for (idx_t p = 0; p < nparts; ++p) refresh(p);
  std::vector<real_t> src(ncon);
  bool changed = true;
  while (changed && moves < move_cap) {
    changed = false;
    for (idx_t v = 0; v < g.nvtxs && moves < move_cap; ++v) {
      const idx_t q = where[to_size(v)];
      if (over[to_size(q)] == 0 || !ctx.can_leave(q)) continue;
      const wgt_t* w = g.weights(v);
      for (int i = 0; i < g.ncon; ++i) {
        const wgt_t out = checked_narrow<wgt_t>(-static_cast<sum_t>(w[i]));
        src[to_size(i)] = std::max(0.0, ctx.load_with(q, i, out) - 1.0) -
                          excess[to_size(q) * ncon + to_size(i)];
      }
      *evals = checked_add(*evals, static_cast<sum_t>(nparts - 1));
      idx_t best = -1;
      real_t best_d = -1e-9;
      for (idx_t p = 0; p < nparts; ++p) {
        if (p == q) continue;
        real_t d = 0.0;
        for (int i = 0; i < g.ncon; ++i) {
          d += src[to_size(i)] +
               std::max(0.0, ctx.load_with(p, i, w[i]) - 1.0) -
               excess[to_size(p) * ncon + to_size(i)];
        }
        if (d < best_d - 1e-12) {
          best_d = d;
          best = p;
        }
      }
      if (best >= 0) {
        ctx.move(v, best);
        refresh(q);
        refresh(best);
        moves = checked_add(moves, 1);
        changed = true;
      }
    }
  }
  return moves;
}

/// swap_descent as it ran before its memo: every source scans every
/// partner, each delta recomputed from the part weights. Counts the pairs
/// it evaluates into `pairs_total` and sets `budget_bound` when a round
/// stopped at the pair budget.
sum_t reference_swap_descent(const Graph& g, KWayContext& ctx,
                             sum_t& pairs_total, bool& budget_bound) {
  if (g.nvtxs > 10000) return 0;
  const std::vector<idx_t>& where = ctx.where();
  auto delta = [&](idx_t v, idx_t q, idx_t u, idx_t p) {
    real_t d = 0.0;
    const wgt_t* wv = g.weights(v);
    const wgt_t* wu = g.weights(u);
    for (int i = 0; i < g.ncon; ++i) {
      const wgt_t dq = static_cast<wgt_t>(wu[i] - wv[i]);
      d += std::max(0.0, ctx.load_with(q, i, dq) - 1.0) -
           std::max(0.0, ctx.overload(q, i) - 1.0) +
           std::max(0.0, ctx.load_with(p, i, static_cast<wgt_t>(-dq)) - 1.0) -
           std::max(0.0, ctx.overload(p, i) - 1.0);
    }
    return d;
  };
  sum_t swaps = 0;
  const sum_t swap_cap = checked_mul(4, std::max<idx_t>(g.nvtxs, 1));
  bool changed = true;
  while (changed && swaps < swap_cap) {
    changed = false;
    std::int64_t pairs = 0;
    for (idx_t v = 0; v < g.nvtxs && swaps < swap_cap; ++v) {
      if (pairs >= (1 << 22)) {
        budget_bound = true;
        break;
      }
      const idx_t q = where[to_size(v)];
      bool over = false;
      for (int i = 0; i < g.ncon; ++i) {
        if (ctx.overload(q, i) > 1.0 + 1e-12) over = true;
      }
      if (!over) continue;
      idx_t best_u = -1;
      real_t best_d = -1e-9;
      for (idx_t u = 0; u < g.nvtxs; ++u) {
        const idx_t p = where[to_size(u)];
        if (p == q) continue;
        ++pairs;
        pairs_total = checked_add(pairs_total, 1);
        const real_t d = delta(v, q, u, p);
        if (d < best_d - 1e-12) {
          best_d = d;
          best_u = u;
        }
      }
      if (best_u >= 0) {
        const idx_t p = where[to_size(best_u)];
        ctx.move(v, p);
        ctx.move(best_u, q);
        swaps = checked_add(swaps, 1);
        changed = true;
      }
    }
  }
  return swaps;
}

/// A drained start the descents run from, with its tolerances.
struct DescentInstance {
  std::string name;
  Graph g;
  idx_t k = 64;
  std::vector<idx_t> start;
  std::vector<real_t> ub;
};

/// grid2d(side, side) under Type-S weights (seed 2000 + m) from a random
/// start (seed), drained.
DescentInstance drained_random(idx_t side, int m, idx_t k, std::uint64_t seed,
                               std::vector<real_t> ub = {}) {
  DescentInstance in;
  in.name = "grid" + std::to_string(side) + " m=" + std::to_string(m) +
            " k=" + std::to_string(k) + " seed=" + std::to_string(seed);
  in.g = grid2d(side, side);
  apply_type_s_weights(in.g, m, 16, 0, 19,
                       2000u + static_cast<std::uint64_t>(m));
  in.k = k;
  if (ub.empty()) {
    Options o;
    o.nparts = k;
    ub = effective_ubvec(in.g, o);
  }
  in.ub = std::move(ub);
  in.start.resize(to_size(in.g.nvtxs));
  Rng rng(seed);
  for (idx_t& p : in.start) {
    p = static_cast<idx_t>(rng.next_below(static_cast<std::uint64_t>(k)));
  }
  KWayContext ctx(in.g, k, in.start, in.ub, nullptr);
  drain_peaks(ctx);
  return in;
}

/// perfbench's drift start: grid-240^2 under Type-P weights (m=3, seed
/// 2003), an 8x8 block decomposition into 64 parts, drained.
DescentInstance drift_start() {
  DescentInstance in;
  in.name = "drift";
  const idx_t side = 240;
  in.g = grid2d(side, side);
  apply_type_p_weights(in.g, 3, 32, 2003);
  Options o;
  o.nparts = 64;
  in.ub = effective_ubvec(in.g, o);
  in.start.resize(to_size(in.g.nvtxs));
  for (idx_t v = 0; v < in.g.nvtxs; ++v) {
    in.start[to_size(v)] =
        (v / side) / (side / 8) * 8 + (v % side) / (side / 8);
  }
  KWayContext ctx(in.g, 64, in.start, in.ub, nullptr);
  drain_peaks(ctx);
  return in;
}

/// The instances both descents must reproduce: the tight ones the swap
/// escape exists for (grid-13^2 m=3, grid-21^2 m=5, k=64), and a
/// 10,000-vertex one where swap_descent's pair budget cuts rounds short.
std::vector<DescentInstance> small_descent_instances() {
  std::vector<DescentInstance> out;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    out.push_back(drained_random(13, 3, 64, seed));
    out.push_back(drained_random(21, 5, 64, seed));
  }
  Graph g = grid2d(100, 100);
  apply_type_s_weights(g, 2, 16, 0, 19, 2002);
  std::vector<real_t> ub = min_feasible_ubvec(g, 8, nullptr);
  for (real_t& u : ub) u = std::max(u, 1.006);
  out.push_back(drained_random(100, 2, 8, 2, ub));
  return out;
}

TEST(OverloadDescent, MatchesFullScanReference) {
  std::vector<DescentInstance> instances = small_descent_instances();
  instances.push_back(drift_start());
  sum_t total_moves = 0;
  for (const DescentInstance& in : instances) {
    std::vector<idx_t> expect = in.start;
    KWayContext ref_ctx(in.g, in.k, expect, in.ub, nullptr);
    sum_t expect_evals = 0;
    const sum_t expect_moves =
        reference_overload_descent(in.g, ref_ctx, &expect_evals);
    std::vector<idx_t> got = in.start;
    KWayContext ctx(in.g, in.k, got, in.ub, nullptr);
    RebalanceStats st;
    EXPECT_EQ(overload_descent(in.g, ctx, st), expect_moves) << in.name;
    EXPECT_EQ(got, expect) << in.name;
    EXPECT_EQ(st.descent_evals, expect_evals) << in.name;
    EXPECT_LE(st.descent_scanned, st.descent_evals) << in.name;
    total_moves = checked_add(total_moves, expect_moves);
    if (in.name == "drift") {
      // The memo's point: most of the drift descent's scans are skipped.
      EXPECT_GT(expect_moves, 0);
      EXPECT_LT(st.descent_scanned * 4, st.descent_evals);
    }
  }
  EXPECT_GT(total_moves, 0);
}

TEST(SwapDescent, MatchesFullScanReference) {
  sum_t total_swaps = 0;
  sum_t full_pairs = 0;
  sum_t scanned = 0;
  bool budget_bound = false;
  for (const DescentInstance& in : small_descent_instances()) {
    std::vector<idx_t> expect = in.start;
    KWayContext ref_ctx(in.g, in.k, expect, in.ub, nullptr);
    bool bound = false;
    const sum_t expect_swaps =
        reference_swap_descent(in.g, ref_ctx, full_pairs, bound);
    std::vector<idx_t> got = in.start;
    KWayContext ctx(in.g, in.k, got, in.ub, nullptr);
    RebalanceStats st;
    EXPECT_EQ(swap_descent(in.g, ctx, st), expect_swaps) << in.name;
    EXPECT_EQ(got, expect) << in.name;
    scanned = checked_add(scanned, st.swap_scanned);
    total_swaps = checked_add(total_swaps, expect_swaps);
    if (in.g.nvtxs == 10000) {
      budget_bound = bound;
      EXPECT_GT(expect_swaps, 0);
    }
  }
  EXPECT_GT(total_swaps, 0);
  EXPECT_TRUE(budget_bound);  // the 10,000-vertex instance hit the budget
  EXPECT_LT(scanned, full_pairs);  // and the memo skipped some pairs
}

TEST(DescentMemoAudit, ParanoidRechecksEveryMemoHit) {
  // At paranoid, every scan the memo shortened is re-run in full and the
  // choices compared; on the drift start that happens many times.
  const DescentInstance in = drift_start();
  InvariantAuditor audit(AuditLevel::kParanoid);
  RunContext run;
  run.audit = &audit;
  std::vector<idx_t> where = in.start;
  KWayContext ctx(in.g, in.k, where, in.ub, nullptr);
  RebalanceStats st;
  overload_descent(in.g, ctx, st, run);
  EXPECT_GT(audit.count(AuditCheck::kDescentMemo), 0u) << audit.summary();

  const DescentInstance tight = drained_random(21, 5, 64, 1);
  std::vector<idx_t> tw = tight.start;
  KWayContext tctx(tight.g, tight.k, tw, tight.ub, nullptr);
  const std::uint64_t before = audit.count(AuditCheck::kDescentMemo);
  swap_descent(tight.g, tctx, st, run);
  EXPECT_GT(audit.count(AuditCheck::kDescentMemo), before);

  // A memoized choice that differs from the full scan's fails the audit.
  EXPECT_NO_THROW(audit.check_memo_scan(7, 3, 3, "test.same"));
  EXPECT_THROW(audit.check_memo_scan(7, -1, 3, "test.differs"), AuditFailure);
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
