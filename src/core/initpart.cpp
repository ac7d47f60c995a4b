#include "core/initpart.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/balance2way.hpp"
#include "core/refine2way.hpp"
#include "support/indexed_heap.hpp"
#include "support/profiler.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace mcgp {

void grow_bisection(const Graph& g, std::vector<idx_t>& where,
                    const BisectionTargets& targets, Rng& rng) {
  const auto n = to_size(g.nvtxs);
  where.assign(n, 1);
  if (g.nvtxs == 0) return;

  // Normalized load of side 0 per constraint, relative to target f0.
  std::array<real_t, kMaxNcon> load{};
  auto would_overflow = [&](idx_t v) {
    const wgt_t* w = g.weights(v);
    for (int i = 0; i < g.ncon; ++i) {
      if (g.tvwgt[to_size(i)] <= 0) continue;
      const real_t nl =
          load[to_size(i)] +
          static_cast<real_t>(w[i]) * g.invtvwgt[to_size(i)];
      if (nl > targets.f0 * targets.ub[to_size(i)]) return true;
    }
    return false;
  };
  auto deficient = [&]() {
    for (int i = 0; i < g.ncon; ++i) {
      if (g.tvwgt[to_size(i)] <= 0) continue;
      if (load[to_size(i)] < targets.f0) return true;
    }
    return false;
  };
  auto absorb = [&](idx_t v) {
    where[to_size(v)] = 0;
    const wgt_t* w = g.weights(v);
    for (int i = 0; i < g.ncon; ++i) {
      load[to_size(i)] +=
          static_cast<real_t>(w[i]) * g.invtvwgt[to_size(i)];
    }
  };

  IndexedMaxHeap frontier;
  frontier.reset(g.nvtxs);
  std::vector<char> seen(n, 0);  // in frontier, absorbed, or rejected

  auto push_neighbors = [&](idx_t v) {
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      const idx_t u = g.adjncy[to_size(e)];
      if (where[to_size(u)] == 0) continue;
      const real_t w = static_cast<real_t>(g.adjwgt[to_size(e)]);
      if (frontier.contains(u)) {
        frontier.update(u, frontier.key(u) + w);
      } else if (!seen[to_size(u)]) {
        frontier.insert(u, w);
        seen[to_size(u)] = 1;
      }
    }
  };

  while (deficient()) {
    if (frontier.empty()) {
      // Fresh seed (initial seed, or a disconnected component).
      idx_t seed = -1;
      for (int attempts = 0; attempts < 32 && seed < 0; ++attempts) {
        const idx_t cand = rng.next_in(0, g.nvtxs - 1);
        if (where[to_size(cand)] == 1 &&
            !seen[to_size(cand)]) {
          seed = cand;
        }
      }
      if (seed < 0) {
        for (idx_t v2 = 0; v2 < g.nvtxs && seed < 0; ++v2) {
          if (where[to_size(v2)] == 1 &&
              !seen[to_size(v2)]) {
            seed = v2;
          }
        }
      }
      if (seed < 0) break;  // every vertex absorbed or rejected
      seen[to_size(seed)] = 1;
      if (would_overflow(seed)) continue;  // rejected; try another seed
      absorb(seed);
      push_neighbors(seed);
      continue;
    }
    const idx_t v = frontier.pop_max();
    if (would_overflow(v)) continue;  // locked out for this trial
    absorb(v);
    push_neighbors(v);
  }
}

void binpack_bisection(const Graph& g, std::vector<idx_t>& where,
                       const BisectionTargets& targets, Rng& rng) {
  const auto n = to_size(g.nvtxs);
  where.assign(n, 0);
  if (g.nvtxs == 0) return;

  // Decreasing max-normalized-component order (LPT), random tie order.
  std::vector<idx_t> order;
  random_permutation(g.nvtxs, order, rng);
  std::vector<real_t> key(n, 0.0);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    real_t mx = 0.0;
    for (int i = 0; i < g.ncon; ++i) {
      mx = std::max(mx, static_cast<real_t>(g.weight(v, i)) *
                            g.invtvwgt[to_size(i)]);
    }
    key[to_size(v)] = mx;
  }
  std::stable_sort(order.begin(), order.end(), [&](idx_t a, idx_t b) {
    return key[to_size(a)] > key[to_size(b)];
  });

  // Greedy placement minimizing the resulting worst target-relative load.
  std::array<real_t, 2 * kMaxNcon> load{};
  for (const idx_t v : order) {
    const wgt_t* w = g.weights(v);
    real_t pot[2] = {0.0, 0.0};
    for (int s = 0; s < 2; ++s) {
      for (int i = 0; i < g.ncon; ++i) {
        if (g.tvwgt[to_size(i)] <= 0) continue;
        const real_t nw =
            static_cast<real_t>(w[i]) * g.invtvwgt[to_size(i)];
        for (int side = 0; side < 2; ++side) {
          const real_t l = load[to_size(side * kMaxNcon + i)] +
                           (side == s ? nw : 0.0);
          pot[s] = std::max(pot[s], l / targets.fraction(side) /
                                        targets.ub[to_size(i)]);
        }
      }
    }
    const int s = pot[0] <= pot[1] ? 0 : 1;
    where[to_size(v)] = s;
    for (int i = 0; i < g.ncon; ++i) {
      load[to_size(s * kMaxNcon + i)] +=
          static_cast<real_t>(w[i]) * g.invtvwgt[to_size(i)];
    }
  }
}

namespace {

/// Outcome of one polished construction attempt.
struct InitTrial {
  std::vector<idx_t> where;
  sum_t cut = 0;
  real_t pot = 0.0;
  bool feasible = false;
};

}  // namespace

sum_t init_bisection(const Graph& g, std::vector<idx_t>& where,
                     const BisectionTargets& targets, InitScheme scheme,
                     int trials, QueuePolicy policy, Rng& rng,
                     const RunContext& run) {
  trials = std::max(trials, 1);
  TraceSpan span(run.trace, "initpart");
  // Polishing is audited but untraced: the trials report as instants.
  RunContext polish;
  polish.audit = run.audit;

  // One seed value feeds every trial's private stream; results land in a
  // per-trial slot and the winner is picked serially in trial order, so
  // the outcome does not depend on completion order or thread count.
  const std::uint64_t base_seed = rng.next_u64();
  std::vector<InitTrial> results(to_size(trials));

  auto run_trial = [&](int t) {
    ProfScope aux(run.profile, "initpart", /*level=*/-1, ProfScope::kAux);
    InitTrial& out = results[to_size(t)];
    Rng trng(mix_seed(base_seed, static_cast<std::uint64_t>(t)));
    const bool use_grow = scheme == InitScheme::kGreedyGrow ||
                          (scheme == InitScheme::kMixed && t % 2 == 0);
    if (use_grow) {
      grow_bisection(g, out.where, targets, trng);
    } else {
      binpack_bisection(g, out.where, targets, trng);
    }
    balance_2way(g, out.where, targets, trng, polish);
    refine_2way(g, out.where, targets, policy, /*max_passes=*/4,
                /*move_limit=*/std::max<idx_t>(32, g.nvtxs / 10), trng,
                /*stats=*/nullptr, polish);

    BisectionBalance balance;
    balance.init(g, out.where, targets);
    out.pot = balance.potential();
    out.feasible = out.pot <= 1.0 + 1e-12;
    out.cut = compute_cut_2way(g, out.where);

    trace_count(run.trace, "initpart.trials");
    trace_instant(
        run.trace, "initpart.trial",
        {{"trial", t},
         {"grow", static_cast<std::int64_t>(use_grow ? 1 : 0)},
         {"cut", out.cut},
         {"potential", out.pot},
         {"feasible", static_cast<std::int64_t>(out.feasible ? 1 : 0)}});
  };

  if (run.pool != nullptr && trials > 1) {
    TaskGroup group(run.pool);
    for (int t = 1; t < trials; ++t) {
      group.run([&run_trial, t] { run_trial(t); });
    }
    run_trial(0);
    group.wait();
  } else {
    for (int t = 0; t < trials; ++t) run_trial(t);
  }

  // Feasible trials compete on cut; infeasible trials compete on
  // balance FIRST — an initial bisection that starts far out of balance
  // is unlikely to ever be repaired during multilevel refinement, so a
  // low cut cannot compensate for bad balance here.
  int best_t = 0;
  for (int t = 1; t < trials; ++t) {
    const InitTrial& c = results[to_size(t)];
    const InitTrial& b = results[to_size(best_t)];
    bool better = false;
    if (c.feasible != b.feasible) {
      better = c.feasible;
    } else if (c.feasible) {
      better = c.cut < b.cut || (c.cut == b.cut && c.pot < b.pot);
    } else {
      better = c.pot < b.pot - 1e-12 ||
               (c.pot <= b.pot + 1e-12 && c.cut < b.cut);
    }
    if (better) best_t = t;
  }
  InitTrial& best = results[to_size(best_t)];

  if (span.enabled()) {
    span.arg({"nvtxs", g.nvtxs});
    span.arg({"trials", trials});
    span.arg({"best_cut", best.cut});
    span.arg({"best_potential", best.pot});
    span.arg({"feasible", static_cast<std::int64_t>(best.feasible ? 1 : 0)});
  }
  where = std::move(best.where);
  return best.cut;
}

}  // namespace mcgp
