#include "core/kway_refine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "core/audit.hpp"
#include "core/kway_boundary.hpp"
#include "core/kway_context.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "support/flight_recorder.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "support/workspace.hpp"

namespace mcgp {
namespace {

std::vector<real_t> ubvec(int ncon, real_t ub = 1.05) {
  return std::vector<real_t>(to_size(ncon), ub);
}

/// Stripe partition of a grid along x (contiguous, balanced).
std::vector<idx_t> stripes(idx_t nx, idx_t ny, idx_t k) {
  std::vector<idx_t> part(to_size(nx) * to_size(ny));
  for (idx_t x = 0; x < nx; ++x) {
    for (idx_t y = 0; y < ny; ++y) {
      part[to_size(x * ny + y)] = std::min<idx_t>(x * k / nx, k - 1);
    }
  }
  return part;
}

/// Scrambled-but-balanced partition (round robin = terrible cut).
std::vector<idx_t> round_robin(idx_t n, idx_t k) {
  std::vector<idx_t> part(to_size(n));
  for (idx_t v = 0; v < n; ++v) part[to_size(v)] = v % k;
  return part;
}

/// Randomly scrambled partition: unlike round robin on a grid (which
/// forms 1-wide stripes with no positive-gain single moves), a random
/// scramble leaves plenty of greedy improvements.
std::vector<idx_t> scrambled(idx_t n, idx_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<idx_t> part(to_size(n));
  for (idx_t v = 0; v < n; ++v) {
    part[to_size(v)] = static_cast<idx_t>(rng.next_below(static_cast<std::uint64_t>(k)));
  }
  return part;
}

TEST(KWayFeasible, DetectsOverload) {
  Graph g = grid2d(4, 4);
  const auto balanced = round_robin(16, 4);
  EXPECT_TRUE(kway_feasible(g, part_weights(g, balanced, 4), 4, ubvec(1)));
  std::vector<idx_t> skewed(16, 0);
  skewed[0] = 1;
  skewed[1] = 2;
  skewed[2] = 3;
  EXPECT_FALSE(kway_feasible(g, part_weights(g, skewed, 4), 4, ubvec(1)));
}

TEST(KWayRefine, ImprovesScrambledCutMassively) {
  Graph g = grid2d(20, 20);
  std::vector<idx_t> part = scrambled(400, 4, 17);
  Rng balance_rng(0);
  kway_balance(g, 4, part, ubvec(1), balance_rng);  // make the start feasible
  const sum_t before = edge_cut(g, part);
  Rng rng(1);
  const sum_t after = kway_refine(g, 4, part, ubvec(1), 8, rng);
  EXPECT_LT(after, before / 2);
  EXPECT_EQ(after, edge_cut(g, part));
  EXPECT_TRUE(kway_feasible(g, part_weights(g, part, 4), 4, ubvec(1)));
}

TEST(KWayRefine, StripesAreAGreedyLocalMinimum) {
  // 1-wide stripes (round robin by column) admit no positive-gain single
  // moves; greedy refinement must not make the cut worse and must keep
  // the partition feasible. (Escaping this minimum is the multilevel
  // driver's job, not the flat refiner's.)
  Graph g = grid2d(20, 20);
  std::vector<idx_t> part = round_robin(400, 4);
  const sum_t before = edge_cut(g, part);
  Rng rng(1);
  const sum_t after = kway_refine(g, 4, part, ubvec(1), 8, rng);
  EXPECT_LE(after, before);
  EXPECT_TRUE(kway_feasible(g, part_weights(g, part, 4), 4, ubvec(1)));
}

TEST(KWayRefine, NeverWorsensGoodPartition) {
  Graph g = grid2d(24, 24);
  std::vector<idx_t> part = stripes(24, 24, 4);
  const sum_t before = edge_cut(g, part);
  Rng rng(2);
  const sum_t after = kway_refine(g, 4, part, ubvec(1), 8, rng);
  EXPECT_LE(after, before);
}

TEST(KWayRefine, KeepsAllPartsNonEmpty) {
  Graph g = grid2d(12, 12);
  std::vector<idx_t> part = round_robin(144, 9);
  Rng rng(3);
  kway_refine(g, 9, part, ubvec(1), 8, rng);
  EXPECT_TRUE(validate_partition(g, part, 9, /*require_nonempty=*/true).empty());
}

TEST(KWayRefine, MultiConstraintStaysFeasible) {
  Graph g = random_geometric(1200, 0, 8, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 4);
  // Start from contiguous regions mapped onto 8 parts via stripes of ids.
  std::vector<idx_t> part(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) part[to_size(v)] = v % 8;
  Rng rng(5);
  KWayRefineStats stats;
  kway_refine(g, 8, part, ubvec(3, 1.10), 8, rng, &stats);
  EXPECT_TRUE(stats.feasible);
  for (const real_t lb : imbalance(g, part, 8)) EXPECT_LE(lb, 1.10 + 1e-9);
}

TEST(KWayBalance, RepairsSkewedPartition) {
  Graph g = grid2d(16, 16);
  // Everything in part 0 except a few vertices.
  std::vector<idx_t> part(256, 0);
  for (idx_t p = 1; p < 4; ++p) part[to_size(p)] = p;
  Rng rng(6);
  EXPECT_TRUE(kway_balance(g, 4, part, ubvec(1, 1.05), rng));
  EXPECT_LE(max_imbalance(g, part, 4), 1.05 + 1e-9);
}

TEST(KWayBalance, NoopWhenFeasible) {
  Graph g = grid2d(10, 10);
  std::vector<idx_t> part = round_robin(100, 4);
  const auto before = part;
  Rng rng(7);
  EXPECT_TRUE(kway_balance(g, 4, part, ubvec(1), rng));
  EXPECT_EQ(part, before);
}

TEST(KWayBalance, ComplementaryOverloadEscape) {
  // Two parts overloaded in different constraints; the potential-reducing
  // acceptance must route weight through the slack parts.
  GraphBuilder bld(120, 2);
  for (idx_t v = 0; v + 1 < 120; ++v) bld.add_edge(v, v + 1);
  for (idx_t v = 0; v < 120; ++v) {
    bld.set_weights(v, v < 60 ? std::vector<wgt_t>{3, 1}
                              : std::vector<wgt_t>{1, 3});
  }
  Graph g = bld.build();
  // part 0 = all (3,1) vertices, part 1 = all (1,3), parts 2,3 get scraps.
  std::vector<idx_t> part(120);
  for (idx_t v = 0; v < 120; ++v) {
    part[to_size(v)] =
        v < 55 ? 0 : (v < 60 ? 2 : (v < 115 ? 1 : 3));
  }
  Rng rng(8);
  kway_balance(g, 4, part, ubvec(2, 1.10), rng);
  EXPECT_LE(max_imbalance(g, part, 4), 1.35);  // from ~1.8+ initially
}

/// One episode of kway_balance as it ran before the per-part member index:
/// every episode scans all n vertices for members of the peak part into an
/// n-sized key array, and every candidate rescans all parts for the
/// lightest one. kway_balance() must reproduce it move for move.
idx_t reference_balance_episode(const Graph& g, KWayContext& ctx,
                                idx_t nparts, const std::vector<idx_t>& where,
                                Rng& rng) {
  idx_t q = -1;
  int c = 0;
  real_t peak = 0.0;
  for (idx_t p = 0; p < nparts; ++p) {
    for (int i = 0; i < g.ncon; ++i) {
      if (ctx.overload(p, i) > peak) {
        peak = ctx.overload(p, i);
        q = p;
        c = i;
      }
    }
  }
  if (q < 0 || peak <= 1.0 + 1e-12) return 0;
  std::vector<idx_t> cand;
  std::vector<real_t> key(to_size(g.nvtxs), 0.0);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    if (where[to_size(v)] != q || g.weight(v, c) <= 0) continue;
    cand.push_back(v);
    sum_t idw = 0, edw = 0;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      if (where[to_size(g.adjncy[to_size(e)])] == q) {
        idw = checked_add(idw, g.adjwgt[to_size(e)]);
      } else {
        edw = checked_add(edw, g.adjwgt[to_size(e)]);
      }
    }
    key[to_size(v)] =
        static_cast<real_t>(checked_sub(edw, idw)) + (edw > 0 ? 1e6 : 0.0);
  }
  shuffle(cand, rng);
  std::stable_sort(cand.begin(), cand.end(), [&](idx_t a, idx_t b) {
    return key[to_size(a)] > key[to_size(b)];
  });
  idx_t moves = 0;
  const idx_t reject_cap = std::max<idx_t>(64, 8 * nparts);
  idx_t rejects = 0;
  for (const idx_t v : cand) {
    if (where[to_size(v)] != q) continue;
    if (!ctx.can_leave(q) || ctx.overload(q, c) <= 1.0 + 1e-12 ||
        rejects >= reject_cap) {
      break;
    }
    const sum_t idw = ctx.gather_connectivity(v);
    idx_t lightest = -1;
    real_t lightest_load = 1e300;
    for (idx_t p = 0; p < nparts; ++p) {
      if (p != q && ctx.part_load(p) < lightest_load) {
        lightest_load = ctx.part_load(p);
        lightest = p;
      }
    }
    idx_t best = -1;
    bool best_fits = false;
    sum_t best_gain = 0;
    real_t best_load = 0.0;
    auto consider = [&](idx_t p) {
      if (p < 0 || p == q) return;
      const real_t after = ctx.load_after(v, p);
      if (after >= peak - 1e-12) return;
      const bool fits = after <= 1.0 + 1e-12;
      const sum_t gain = checked_sub(ctx.conn(p), idw);
      if (best < 0 || (fits && !best_fits) ||
          (fits == best_fits &&
           (gain > best_gain || (gain == best_gain && after < best_load)))) {
        best = p;
        best_fits = fits;
        best_gain = gain;
        best_load = after;
      }
    };
    for (const idx_t p : ctx.touched()) consider(p);
    consider(lightest);
    if (best < 0) {
      ++rejects;
      continue;
    }
    rejects = 0;
    ctx.move(v, best);
    ++moves;
  }
  return moves;
}

/// The full-scan kway_balance episode loop around reference_balance_episode.
bool reference_balance(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                       const std::vector<real_t>& ub, Rng& rng,
                       const std::vector<real_t>* tpwgts) {
  KWayContext ctx(g, nparts, where, ub, tpwgts);
  if (ctx.feasible()) return true;
  const int max_episodes = 8 * g.ncon * std::max<idx_t>(nparts, 2);
  const sum_t move_cap = checked_mul(
      static_cast<sum_t>(8), static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
  sum_t total_moves = 0;
  auto progress_state = [&]() {
    const real_t peak = ctx.max_overload();
    idx_t at_peak = 0;
    for (idx_t p = 0; p < nparts; ++p) {
      for (int i = 0; i < g.ncon; ++i) {
        if (ctx.overload(p, i) > peak - 1e-9) ++at_peak;
      }
    }
    return std::make_pair(peak, at_peak);
  };
  auto prev = progress_state();
  for (int ep = 0; ep < max_episodes; ++ep) {
    if (ctx.feasible() || total_moves >= move_cap) break;
    const idx_t moves = reference_balance_episode(g, ctx, nparts, where, rng);
    if (moves == 0) break;
    total_moves = checked_add(total_moves, moves);
    const auto cur = progress_state();
    if (cur.first >= prev.first - 1e-12 && cur.second >= prev.second) break;
    prev = cur;
  }
  return ctx.feasible();
}

/// 8x8 block decomposition of a side x side grid folded onto k parts: the
/// adaptive-repartitioning start, badly imbalanced under Type-P weights.
std::vector<idx_t> block_start(idx_t side, idx_t k) {
  const idx_t block = (side + 7) / 8;
  std::vector<idx_t> part(to_size(side) * to_size(side));
  for (idx_t x = 0; x < side; ++x) {
    for (idx_t y = 0; y < side; ++y) {
      part[to_size(x * side + y)] = ((x / block) * 8 + y / block) % k;
    }
  }
  return part;
}

TEST(KWayBalance, MatchesFullScanReference) {
  int unbalanced_starts = 0;
  for (const int m : {1, 3, 5}) {
    Graph g = grid2d(48, 48);
    if (m == 1) {
      apply_type_s_weights(g, m, 16, 0, 19, 5);
    } else {
      apply_type_p_weights(g, m, 24, 2003);
    }
    for (const idx_t k : {7, 16, 64}) {
      std::vector<real_t> tp(to_size(k));
      for (idx_t p = 0; p < k; ++p) tp[to_size(p)] = 1.0 + (p % 3);
      real_t tsum = 0.0;
      for (const real_t t : tp) tsum += t;
      for (real_t& t : tp) t /= tsum;
      // Default tolerance, a tight one, and skewed target fractions.
      for (const int variant : {0, 1, 2}) {
        const std::vector<real_t> ub = ubvec(m, variant == 1 ? 1.01 : 1.05);
        const std::vector<real_t>* tpwgts = variant == 2 ? &tp : nullptr;
        const std::uint64_t seed = 100u + static_cast<std::uint64_t>(k + m);
        std::vector<idx_t> expect = block_start(48, k);
        if (!kway_feasible(g, part_weights(g, expect, k), k, ub, tpwgts)) {
          ++unbalanced_starts;
        }
        std::vector<idx_t> got = expect;
        Rng r1(seed), r2(seed);
        const bool expect_ok = reference_balance(g, k, expect, ub, r1, tpwgts);
        EXPECT_EQ(kway_balance(g, k, got, ub, r2, tpwgts), expect_ok);
        EXPECT_EQ(got, expect) << "m=" << m << " k=" << k
                               << " variant=" << variant;
        EXPECT_EQ(r2.next_u64(), r1.next_u64());  // same shuffles drawn
      }
    }
  }
  EXPECT_GE(unbalanced_starts, 20);  // the balancer actually ran
}

TEST(KWayBalance, ScansOnlyTheDrainedParts) {
  // Each episode examines the members of the part it drains, so the
  // traced scan count stays far below episodes x n.
  Graph g = grid2d(48, 48);
  apply_type_p_weights(g, 3, 24, 2003);
  const idx_t k = 16;
  std::vector<idx_t> where = block_start(48, k);
  TraceRecorder trace;
  RunContext traced;
  traced.trace = &trace;
  Rng rng(9);
  kway_balance(g, k, where, ubvec(3), rng, nullptr, traced);
  const std::int64_t episodes = trace.counters().get("kway.balance.episodes");
  const std::int64_t scanned = trace.counters().get("kway.balance.scanned");
  ASSERT_GT(episodes, 0);
  EXPECT_GE(scanned, episodes);
  EXPECT_LT(scanned, episodes * g.nvtxs / 4);
}

TEST(KWayContext, MembersMatchScanAfterMoves) {
  Graph g = grid2d(20, 20);
  const idx_t k = 6;
  std::vector<idx_t> where = scrambled(g.nvtxs, k, 11);
  KWayContext ctx(g, k, where, ubvec(1), nullptr);
  Rng rng(12);
  auto expect_members = [&](idx_t p) {
    std::vector<idx_t> scan;
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      if (where[to_size(v)] == p) scan.push_back(v);
    }
    EXPECT_EQ(ctx.members(p), scan) << "part " << p;
  };
  expect_members(0);  // builds the index
  for (int round = 0; round < 4; ++round) {
    // Moves back and forth leave stale entries and duplicates behind.
    for (int j = 0; j < 300; ++j) {
      const idx_t v = static_cast<idx_t>(
          rng.next_below(static_cast<std::uint64_t>(g.nvtxs)));
      const idx_t to = static_cast<idx_t>(
          rng.next_below(static_cast<std::uint64_t>(k)));
      if (to != where[to_size(v)] && ctx.can_leave(where[to_size(v)])) {
        ctx.move(v, to);
      }
    }
    for (idx_t p = 0; p < k; ++p) expect_members(p);
  }
  // An external rewrite followed by reload() rebuilds the index.
  where = round_robin(g.nvtxs, k);
  ctx.reload();
  for (idx_t p = 0; p < k; ++p) expect_members(p);
}

TEST(KWayRefine, StatsConsistent) {
  Graph g = grid2d(15, 15);
  std::vector<idx_t> part = scrambled(225, 5, 3);
  KWayRefineStats stats;
  Rng rng(9);
  const sum_t cut = kway_refine(g, 5, part, ubvec(1), 6, rng, &stats);
  EXPECT_EQ(stats.final_cut, cut);
  EXPECT_GT(stats.passes, 0);
  EXPECT_GT(stats.moves, 0);
}

// The benchmark's replay calls kway_refine with its observers spelled out
// (12 arguments); that overload must be exactly the RunContext form:
// same partition and stats, same kway.* counters, same flight samples.
TEST(KWayRefine, PinnedOverloadMatchesContextForm) {
  Graph g = grid2d(40, 40);
  apply_type_s_weights(g, 3, 12, 0, 19, 5);
  const std::vector<idx_t> start = scrambled(g.nvtxs, 8, 13);
  ThreadPool pool(2);
  WorkspacePool wspool;

  struct Run {
    std::vector<idx_t> where;
    KWayRefineStats stats;
    std::vector<std::pair<std::string, std::int64_t>> kway_counters;
    std::size_t flight_samples = 0;
  };
  auto run = [&](bool pinned) {
    Run r;
    r.where = start;
    TraceRecorder trace;
    FlightRecorder flight;
    InvariantAuditor audit(AuditLevel::kParanoid);
    KWayExec exec;
    exec.pool = &pool;
    exec.wspool = &wspool;
    Rng rng(9);
    if (pinned) {
      kway_refine(g, 8, r.where, ubvec(3), 6, rng, &r.stats, nullptr, &trace,
                  &audit, &flight, &exec);
    } else {
      RunContext ctx = exec;
      ctx.trace = &trace;
      ctx.audit = &audit;
      ctx.flight = &flight;
      kway_refine(g, 8, r.where, ubvec(3), 6, rng, &r.stats, nullptr, ctx);
    }
    const CounterRegistry counters = trace.merged_counters();
    for (const auto& c : counters.counters()) {
      if (c.first.rfind("kway.", 0) == 0) r.kway_counters.push_back(c);
    }
    r.flight_samples = flight.snapshot().size();
    EXPECT_GT(audit.count(AuditCheck::kCutDelta), 0u) << audit.summary();
    return r;
  };

  const Run pinned = run(true);
  const Run context = run(false);
  EXPECT_EQ(pinned.where, context.where);
  EXPECT_EQ(pinned.stats.passes, context.stats.passes);
  EXPECT_EQ(pinned.stats.moves, context.stats.moves);
  EXPECT_EQ(pinned.stats.proposed, context.stats.proposed);
  EXPECT_EQ(pinned.stats.final_cut, context.stats.final_cut);
  EXPECT_EQ(pinned.stats.feasible, context.stats.feasible);
  EXPECT_EQ(pinned.kway_counters, context.kway_counters);
  EXPECT_FALSE(pinned.kway_counters.empty());
  EXPECT_EQ(pinned.flight_samples, context.flight_samples);
  EXPECT_GT(pinned.flight_samples, 0u);
}

// The colored sweep's propose phases are chunk tasks; attaching a pool
// must not change a single move — the partition after refinement is bit-
// identical to the inline execution at every seed.
TEST(KWayRefine, PooledColoredSweepBitIdenticalToInline) {
  Graph g = grid2d(96, 96);
  apply_type_s_weights(g, 2, 10, 0, 9, 3);
  std::vector<idx_t> inline_part = scrambled(g.nvtxs, 16, 21);
  std::vector<idx_t> pooled_part = inline_part;

  Rng a(4);
  const sum_t inline_cut = kway_refine(g, 16, inline_part, ubvec(2, 1.10),
                                       8, a);

  ThreadPool pool(4);
  WorkspacePool wspool;
  RunContext exec;
  exec.pool = &pool;
  exec.wspool = &wspool;
  Rng b(4);
  KWayRefineStats stats;
  const sum_t pooled_cut =
      kway_refine(g, 16, pooled_part, ubvec(2, 1.10), 8, b, &stats, nullptr,
                  exec);

  EXPECT_EQ(pooled_part, inline_part);
  EXPECT_EQ(pooled_cut, inline_cut);
  EXPECT_GT(wspool.footprint_bytes(), 0);  // chunk leases were accounted
  // Some class spans several propose chunks, so the pooled run writes
  // proposals and dead marks concurrently.
  EXPECT_GT(stats.widest_class, kSweepChunk);
  EXPECT_GT(stats.skipped, 0);
}

/// The colored sweep as it ran before the boundary and the degrees were
/// maintained: every pass rescans all vertices for the boundary, sorts it
/// by (color, per-pass hash, id) and proposes a move for every boundary
/// vertex. kway_refine() must reproduce it move for move.
sum_t reference_refine(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                       const std::vector<real_t>& ub, int max_passes,
                       Rng& rng) {
  KWayContext ctx(g, nparts, where, ub, nullptr);
  if (!ctx.feasible()) {
    kway_balance(g, nparts, where, ub, rng);
    ctx.reload();
  }
  std::vector<idx_t> color(to_size(g.nvtxs), -1);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    std::vector<char> taken(to_size(g.degree(v)) + 1, 0);
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      const idx_t c = color[to_size(g.adjncy[to_size(e)])];
      if (c >= 0 && to_size(c) < taken.size()) taken[to_size(c)] = 1;
    }
    idx_t c = 0;
    while (taken[to_size(c)] != 0) ++c;
    color[to_size(v)] = c;
  }
  for (int pass = 0; pass < 4 * max_passes; ++pass) {
    const std::uint64_t seed = rng.next_u64();
    std::vector<idx_t> bnd;
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
        if (where[to_size(g.adjncy[to_size(e)])] != where[to_size(v)]) {
          bnd.push_back(v);
          break;
        }
      }
    }
    auto key = [&](idx_t v) {
      return std::make_tuple(color[to_size(v)],
                             mix_seed(seed, static_cast<std::uint64_t>(v)), v);
    };
    std::sort(bnd.begin(), bnd.end(),
              [&](idx_t a, idx_t b) { return key(a) < key(b); });
    idx_t moves = 0;
    sum_t gain_sum = 0;
    for (std::size_t b = 0, e = 0; b < bnd.size(); b = e) {
      while (e < bnd.size() &&
             color[to_size(bnd[e])] == color[to_size(bnd[b])]) {
        ++e;
      }
      std::vector<idx_t> dest(e - b, -1);
      std::vector<sum_t> gain(e - b, 0);
      for (std::size_t i = b; i < e; ++i) {  // propose: frozen state
        const idx_t v = bnd[i];
        const idx_t own = where[to_size(v)];
        if (!ctx.can_leave(own)) continue;
        const sum_t idw = ctx.gather_connectivity(v);
        real_t best_load = 0.0;
        idx_t& d = dest[i - b];
        sum_t& gn = gain[i - b];
        for (const idx_t p : ctx.touched()) {
          const sum_t g2 = checked_sub(ctx.conn(p), idw);
          if (!ctx.fits(v, p) || g2 < 0) continue;
          const real_t load = ctx.part_load(p);
          if (d < 0 || g2 > gn || (g2 == gn && load < best_load)) {
            d = p;
            gn = g2;
            best_load = load;
          }
        }
        if (d >= 0 && gn == 0 && best_load >= ctx.part_load(own) - 1e-12) {
          d = -1;
        }
      }
      for (std::size_t i = b; i < e; ++i) {  // commit: live state
        const idx_t v = bnd[i];
        const idx_t d = dest[i - b];
        const idx_t own = where[to_size(v)];
        if (d < 0 || !ctx.can_leave(own) || !ctx.fits(v, d)) continue;
        if (gain[i - b] == 0 &&
            ctx.part_load(d) >= ctx.part_load(own) - 1e-12) {
          continue;
        }
        ctx.move(v, d);
        gain_sum = checked_add(gain_sum, gain[i - b]);
        ++moves;
      }
    }
    if (moves == 0 || (gain_sum == 0 && pass + 1 >= max_passes)) break;
  }
  if (!ctx.feasible()) {
    kway_balance(g, nparts, where, ub, rng);
    ctx.reload();
  }
  return edge_cut(g, where);
}

/// grid2d-shaped graph in which every edge at a vertex v with v % 5 == 0
/// weighs 0 (the others weigh 1 or 2): zero-weight edges put vertices on
/// the boundary without giving them external degree, and a vertex with
/// no edge weight at all can still make zero-gain balancing moves.
Graph grid_with_zero_edges(idx_t nx, idx_t ny) {
  GraphBuilder b(nx * ny, 1);
  auto weight = [](idx_t u, idx_t v) -> wgt_t {
    return u % 5 == 0 || v % 5 == 0 ? 0 : 1 + (u + v) % 2;
  };
  for (idx_t x = 0; x < nx; ++x) {
    for (idx_t y = 0; y < ny; ++y) {
      const idx_t v = x * ny + y;
      if (x + 1 < nx) b.add_edge(v, v + ny, weight(v, v + ny));
      if (y + 1 < ny) b.add_edge(v, v + 1, weight(v, v + 1));
    }
  }
  return b.build();
}

TEST(KWayRefine, MatchesFullRescanReference) {
  struct Case {
    Graph g;
    idx_t k;
    real_t ub;
  };
  std::vector<Case> cases;
  cases.push_back({grid2d(40, 40), 8, 1.05});
  cases.push_back({random_geometric(1500, 0, 8, 3), 16, 1.10});
  cases.push_back({fe_mesh(1200, 5), 7, 1.05});
  cases.push_back({grid_with_zero_edges(30, 30), 9, 1.05});
  apply_type_s_weights(cases[1].g, 3, 16, 0, 19, 4);
  apply_type_s_weights(cases[2].g, 5, 12, 0, 19, 6);
  for (const Case& c : cases) {
    const std::vector<real_t> ub = ubvec(c.g.ncon, c.ub);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      std::vector<idx_t> expect = scrambled(c.g.nvtxs, c.k, seed);
      std::vector<idx_t> got = expect;
      Rng r1(seed), r2(seed);
      const sum_t expect_cut = reference_refine(c.g, c.k, expect, ub, 8, r1);
      KWayRefineStats stats;
      EXPECT_EQ(kway_refine(c.g, c.k, got, ub, 8, r2, &stats), expect_cut);
      EXPECT_EQ(got, expect) << "n=" << c.g.nvtxs << " seed=" << seed;
      EXPECT_EQ(r2.next_u64(), r1.next_u64());  // same number of passes
      EXPECT_GE(stats.proposed, stats.moves);
    }
  }
}

TEST(KWayBoundary, MovesKeepDegreesExact) {
  Graph g = grid_with_zero_edges(20, 20);
  std::vector<idx_t> where = scrambled(g.nvtxs, 5, 11);
  std::vector<idx_t> color(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) color[to_size(v)] = v % 3;
  KWayBoundary bnd(g, where, color);
  EXPECT_EQ(bnd.ncolors(), 3);
  InvariantAuditor audit(AuditLevel::kParanoid);
  Rng rng(12);
  for (int pass = 0; pass < 10; ++pass) {
    bnd.begin_pass();
    std::vector<char> at_start(to_size(g.nvtxs));
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      at_start[to_size(v)] = bnd.external_edges(v) > 0 ? 1 : 0;
    }
    for (int i = 0; i < 50; ++i) {
      const idx_t v = static_cast<idx_t>(
          rng.next_below(static_cast<std::uint64_t>(g.nvtxs)));
      const idx_t from = where[to_size(v)];
      where[to_size(v)] =
          (from + 1 + static_cast<idx_t>(rng.next_below(4))) % 5;
      bnd.moved(v, from);
    }
    audit.check_kway_boundary(g, where, bnd, "test");
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      EXPECT_EQ(bnd.was_on_boundary(v), at_start[to_size(v)] != 0) << v;
    }
  }
  // A single part has no boundary at all.
  const std::vector<idx_t> one(to_size(g.nvtxs), 0);
  const KWayBoundary whole(g, one, color);
  for (idx_t c = 0; c < whole.ncolors(); ++c) {
    EXPECT_TRUE(whole.movable(c).empty());
  }
}

// A dead mark lasts exactly until the vertex or one of its neighbors
// moves.
TEST(KWayBoundary, MovesClearDeadMarks) {
  Graph g = grid_with_zero_edges(20, 20);
  std::vector<idx_t> where = scrambled(g.nvtxs, 5, 11);
  std::vector<idx_t> color(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) color[to_size(v)] = v % 3;
  KWayBoundary bnd(g, where, color);
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    for (idx_t v = 0; v < g.nvtxs; v += 3) bnd.mark_dead(v);
    const idx_t v = static_cast<idx_t>(
        rng.next_below(static_cast<std::uint64_t>(g.nvtxs)));
    const idx_t from = where[to_size(v)];
    where[to_size(v)] = (from + 1 + static_cast<idx_t>(rng.next_below(4))) % 5;
    bnd.moved(v, from);
    std::vector<char> near(to_size(g.nvtxs), 0);
    near[to_size(v)] = 1;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      near[to_size(g.adjncy[to_size(e)])] = 1;
    }
    for (idx_t u = 0; u < g.nvtxs; ++u) {
      EXPECT_EQ(bnd.dead(u), u % 3 == 0 && near[to_size(u)] == 0) << u;
    }
  }
}

TEST(KWayRefinePq, ImprovesScrambledCutMassively) {
  Graph g = grid2d(20, 20);
  std::vector<idx_t> part = scrambled(400, 4, 17);
  Rng balance_rng(0);
  kway_balance(g, 4, part, ubvec(1), balance_rng);
  const sum_t before = edge_cut(g, part);
  Rng rng(1);
  const sum_t after = kway_refine_pq(g, 4, part, ubvec(1), 8, rng);
  EXPECT_LT(after, before / 2);
  EXPECT_EQ(after, edge_cut(g, part));
  EXPECT_TRUE(kway_feasible(g, part_weights(g, part, 4), 4, ubvec(1)));
}

TEST(KWayRefinePq, NeverWorsensGoodPartition) {
  Graph g = grid2d(24, 24);
  std::vector<idx_t> part = stripes(24, 24, 4);
  const sum_t before = edge_cut(g, part);
  Rng rng(2);
  EXPECT_LE(kway_refine_pq(g, 4, part, ubvec(1), 8, rng), before);
}

TEST(KWayRefinePq, MultiConstraintStaysFeasible) {
  Graph g = random_geometric(1000, 0, 9, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 6);
  std::vector<idx_t> part(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) part[to_size(v)] = v % 6;
  Rng rng(7);
  KWayRefineStats stats;
  kway_refine_pq(g, 6, part, ubvec(3, 1.10), 8, rng, &stats);
  EXPECT_TRUE(stats.feasible);
  EXPECT_TRUE(validate_partition(g, part, 6, true).empty());
}

TEST(KWayRefinePq, ComparableToSweepOnGrids) {
  Graph g = grid2d(30, 30);
  std::vector<idx_t> a = scrambled(900, 5, 9);
  std::vector<idx_t> b = a;
  Rng r0(0), r1(1), r2(1);
  kway_balance(g, 5, a, ubvec(1), r0);
  b = a;
  const sum_t cut_sweep = kway_refine(g, 5, a, ubvec(1), 8, r1);
  const sum_t cut_pq = kway_refine_pq(g, 5, b, ubvec(1), 8, r2);
  // Both refiners converge to the same quality class.
  EXPECT_LT(static_cast<double>(cut_pq), 1.5 * static_cast<double>(cut_sweep));
  EXPECT_LT(static_cast<double>(cut_sweep), 1.5 * static_cast<double>(cut_pq));
}

TEST(KWayRefine, SinglePartIsNoop) {
  Graph g = grid2d(6, 6);
  std::vector<idx_t> part(36, 0);
  Rng rng(10);
  const sum_t cut = kway_refine(g, 1, part, ubvec(1), 4, rng);
  EXPECT_EQ(cut, 0);
  for (const idx_t p : part) EXPECT_EQ(p, 0);
}

}  // namespace
}  // namespace mcgp
