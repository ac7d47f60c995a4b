#include "core/rebalance.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/coarsen.hpp"
#include "core/kway_context.hpp"
#include "core/kway_refine.hpp"
#include "core/matching.hpp"
#include "core/project.hpp"
#include "graph/metrics.hpp"
#include "support/check.hpp"
#include "support/flight_recorder.hpp"
#include "support/indexed_heap.hpp"
#include "support/profiler.hpp"
#include "support/trace.hpp"

namespace mcgp {

namespace {

constexpr real_t kEps = 1e-12;

/// Graphs at or below this size get the pairwise-swap escape when single
/// moves deadlock; the pair search is quadratic-ish and only tiny, tight
/// instances (coarse granularity relative to part size) need it.
constexpr idx_t kSwapMaxVtxs = 10000;

/// At most this many source vertices are tried per swap-pair search.
constexpr idx_t kSwapCandCap = 128;

/// Relief-ordered key of a candidate move out of the overloaded part:
/// cut gain per unit of weight removed in the scarce constraint — cheap
/// cut damage and large relief first.
real_t relief_key(const Graph& g, const KWayContext& ctx, idx_t v, int c,
                  std::vector<sum_t>& conn, std::vector<idx_t>& touched) {
  const sum_t idw = ctx.gather_connectivity_into(v, conn, touched);
  sum_t edw = 0;
  for (const idx_t p : touched) {
    edw = checked_add(edw, conn[to_size(p)]);
  }
  return static_cast<real_t>(checked_sub(edw, idw)) /
         static_cast<real_t>(std::max<wgt_t>(g.weight(v, c), 1));
}

/// Best destination for moving v out of q: a part where v outright fits,
/// or failing that one whose post-move load stays strictly below the
/// current global peak (potential-reducing). Among admissible parts:
/// fits > cut gain > lower post-move load > smaller id. Returns -1 when
/// no part is admissible.
idx_t pick_destination(const KWayContext& ctx, idx_t nparts, idx_t v,
                       idx_t q, sum_t idw, real_t peak) {
  idx_t best = -1;
  bool best_fits = false;
  sum_t best_gain = 0;
  real_t best_load = 0.0;
  auto consider = [&](idx_t p) {
    if (p < 0 || p == q) return;
    const real_t after = ctx.load_after(v, p);
    const bool fits = after <= 1.0 + kEps;
    if (!fits && after >= peak - kEps) return;
    const sum_t gain = checked_sub(ctx.conn(p), idw);
    const bool better =
        best < 0 || (fits && !best_fits) ||
        (fits == best_fits &&
         (gain > best_gain ||
          (gain == best_gain &&
           (after < best_load - kEps ||
            (after <= best_load + kEps && p < best)))));
    if (better) {
      best = p;
      best_fits = fits;
      best_gain = gain;
      best_load = after;
    }
  };
  for (const idx_t p : ctx.touched()) consider(p);
  // The globally lightest part is always a candidate even when v has no
  // edge into it — relief matters more than locality once we are here.
  idx_t lightest = -1;
  real_t lightest_load = 1e300;
  for (idx_t p = 0; p < nparts; ++p) {
    if (p == q) continue;
    const real_t l = ctx.part_load(p);
    if (l < lightest_load - kEps ||
        (l <= lightest_load + kEps && (lightest < 0 || p < lightest))) {
      lightest_load = l;
      lightest = p;
    }
  }
  consider(lightest);
  return best;
}

/// Greedy gain-to-relief episodes: repeatedly pick the argmax overloaded
/// (part, constraint), drain it through a relief-ordered indexed heap with
/// lazy key revalidation, and stop when feasible, deadlocked, or out of
/// progress. The heap is filled from the drained part's member list and
/// emptied in O(its size), so an episode costs what that part costs, not
/// n. Returns the number of moves committed.
sum_t greedy_episodes(const Graph& g, KWayContext& ctx, idx_t nparts,
                      int* episodes_out) {
  sum_t total = 0;
  int episodes = 0;
  const int max_episodes = 16 * g.ncon * std::max<idx_t>(nparts, 2);
  const sum_t move_cap =
      checked_mul(static_cast<sum_t>(8),
                  static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
  IndexedMaxHeap heap;
  heap.reset(g.nvtxs);
  std::vector<char> requeued(to_size(g.nvtxs), 0);
  std::vector<idx_t> requeued_list;  // the vertices to clear after an episode
  std::vector<sum_t> conn(to_size(nparts), 0);
  std::vector<idx_t> touched;
  touched.reserve(64);
  KWayContext::PeakState prev = ctx.peak_state();
  for (int ep = 0; ep < max_episodes; ++ep) {
    idx_t q;
    int c;
    if (!ctx.overload_peak(q, c)) break;
    if (total >= move_cap) break;

    for (const idx_t v : ctx.members(q)) {
      if (g.weight(v, c) <= 0) continue;
      heap.insert(v, relief_key(g, ctx, v, c, conn, touched));
    }

    idx_t ep_moves = 0;
    while (!heap.empty()) {
      if (ctx.overload(q, c) <= 1.0 + kEps) break;
      if (!ctx.can_leave(q)) break;
      const real_t popped_key = heap.top_key();
      const idx_t v = heap.pop_max();
      // Lazy revalidation: earlier moves shifted v's neighborhood. If the
      // fresh key lost its place at the top, requeue once and move on —
      // the one-requeue guard keeps the episode linear.
      const real_t fresh = relief_key(g, ctx, v, c, conn, touched);
      if (requeued[to_size(v)] == 0 && fresh < popped_key - 1e-9 &&
          !heap.empty() && fresh < heap.top_key()) {
        requeued[to_size(v)] = 1;
        requeued_list.push_back(v);
        heap.insert(v, fresh);
        continue;
      }
      const sum_t idw = ctx.gather_connectivity(v);
      const real_t peak = ctx.max_overload();
      const idx_t dest = pick_destination(ctx, nparts, v, q, idw, peak);
      if (dest < 0) continue;
      ctx.move(v, dest);
      ++ep_moves;
    }
    heap.clear();
    for (const idx_t v : requeued_list) requeued[to_size(v)] = 0;
    requeued_list.clear();

    if (ep_moves == 0) break;  // deadlocked — the caller escalates
    total = checked_add(total, ep_moves);
    ++episodes;
    const KWayContext::PeakState cur = ctx.peak_state();
    if (!cur.improves_on(prev)) break;
    prev = cur;
  }
  if (episodes_out != nullptr) *episodes_out += episodes;
  return total;
}

/// Tolerance-relative load of part p after removing vertex `out` and
/// adding vertex `in` (either may be -1 for "none").
real_t load_after_swap(const Graph& g, const KWayContext& ctx, idx_t p,
                       idx_t out, idx_t in) {
  real_t l = 0.0;
  for (int i = 0; i < g.ncon; ++i) {
    sum_t w = ctx.pwgts()[to_size(p) * to_size(g.ncon) + to_size(i)];
    if (out >= 0) w = checked_sub(w, g.weight(out, i));
    if (in >= 0) w = checked_add(w, g.weight(in, i));
    l = std::max(l, static_cast<real_t>(w) / ctx.limit(p, i));
  }
  return l;
}

/// Pairwise-swap escape for small graphs: when no single move is
/// potential-reducing (every part with room in the scarce constraint is
/// itself near the peak in another), exchanging a heavy-in-c vertex of the
/// peak part for a light-in-c vertex elsewhere can still reduce the peak.
/// Commits swaps while each strictly reduces the lexicographic potential;
/// every swap retires the current peak (part, constraint) pair, so the
/// loop terminates without an explicit cap. Returns swaps committed.
sum_t swap_escape(const Graph& g, KWayContext& ctx,
                  const std::vector<idx_t>& where) {
  if (g.nvtxs > kSwapMaxVtxs) return 0;
  sum_t swaps = 0;
  const sum_t swap_cap =
      checked_mul(static_cast<sum_t>(4),
                  static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
  std::vector<idx_t> cand;
  while (swaps < swap_cap) {
    idx_t q;
    int c;
    if (!ctx.overload_peak(q, c)) break;
    const real_t peak = ctx.max_overload();

    // Sources: heaviest-in-c vertices of q first (they buy the most
    // relief per swap), deterministic id tie-break.
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
    if (cand.size() > to_size(kSwapCandCap)) {
      cand.resize(to_size(kSwapCandCap));
    }

    idx_t best_v = -1;
    idx_t best_u = -1;
    real_t best_after = peak;
    for (const idx_t v : cand) {
      for (idx_t u = 0; u < g.nvtxs; ++u) {
        const idx_t p = where[to_size(u)];
        if (p == q) continue;
        // Swapping must strictly reduce both touched parts below the peak.
        const real_t aq = load_after_swap(g, ctx, q, v, u);
        if (aq >= peak - kEps) continue;
        const real_t ap = load_after_swap(g, ctx, p, u, v);
        if (ap >= peak - kEps) continue;
        const real_t after = std::max(aq, ap);
        if (after < best_after - kEps ||
            (after <= best_after + kEps && best_v >= 0 &&
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

/// Change in the total relative overload sum_i max(0, load - 1) over both
/// touched parts if v (in q) and u (in p) were exchanged. Negative = net
/// relief. This is the joint multi-constraint potential: the peak-chasing
/// episodes above can deadlock when every destination is itself near the
/// peak in SOME constraint, while the summed overload can still descend.
real_t swap_delta(const Graph& g, const KWayContext& ctx, idx_t v, idx_t q,
                  idx_t u, idx_t p) {
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
}

constexpr real_t kDescentMin = 1e-9;  ///< smallest accepted strict decrease

/// Best-improvement single-move descent on the summed relative overload:
/// rounds over vertices in ascending id; each vertex of an overloaded part
/// takes the destination with the most negative delta (smallest id on
/// ties, by scan order). Every committed move strictly decreases the
/// potential, so the loop cannot cycle; the move cap bounds it anyway.
///
/// The delta of moving v from q to p sums, over constraints i and in this
/// order, ((q_after - q_now) + p_after) - p_now, where each term is a
/// max(0, load - 1). The source terms are computed once per vertex, and
/// each part's max(0, overload - 1) and overloaded flag are cached and
/// refreshed only for the two parts a move touches, so a destination costs
/// one division per constraint. `evals` counts the (vertex, destination)
/// pairs evaluated.
sum_t overload_descent(const Graph& g, KWayContext& ctx, idx_t nparts,
                       const std::vector<idx_t>& where, sum_t* evals) {
  sum_t moves = 0;
  const sum_t move_cap =
      checked_mul(static_cast<sum_t>(8),
                  static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
  const auto ncon = to_size(g.ncon);
  std::vector<real_t> excess(to_size(nparts) * ncon);
  std::vector<char> over(to_size(nparts));
  auto refresh = [&](idx_t p) {
    over[to_size(p)] = 0;
    for (int i = 0; i < g.ncon; ++i) {
      const real_t l = ctx.overload(p, i);
      if (l > 1.0 + kEps) over[to_size(p)] = 1;
      excess[to_size(p) * ncon + to_size(i)] = std::max(0.0, l - 1.0);
    }
  };
  for (idx_t p = 0; p < nparts; ++p) refresh(p);
  std::array<real_t, kMaxNcon> src{};  // per constraint: q_after - q_now
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
      real_t best_d = -kDescentMin;
      for (idx_t p = 0; p < nparts; ++p) {
        if (p == q) continue;
        real_t d = 0.0;
        for (int i = 0; i < g.ncon; ++i) {
          d += src[to_size(i)] +
               std::max(0.0, ctx.load_with(p, i, w[i]) - 1.0) -
               excess[to_size(p) * ncon + to_size(i)];
        }
        if (d < best_d - kEps) {
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

/// Pairwise-swap descent on the summed relative overload (small graphs):
/// sources are vertices of overloaded parts in ascending id, partners
/// anything elsewhere; the best strictly improving exchange per source is
/// committed. The per-round pair budget keeps the quadratic scan bounded.
sum_t swap_descent(const Graph& g, KWayContext& ctx,
                   const std::vector<idx_t>& where) {
  if (g.nvtxs > kSwapMaxVtxs) return 0;
  sum_t swaps = 0;
  const sum_t swap_cap =
      checked_mul(static_cast<sum_t>(4),
                  static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
  const std::int64_t pair_budget = 1 << 22;
  bool changed = true;
  while (changed && swaps < swap_cap) {
    changed = false;
    std::int64_t pairs = 0;
    for (idx_t v = 0; v < g.nvtxs && swaps < swap_cap; ++v) {
      if (pairs >= pair_budget) break;
      const idx_t q = where[to_size(v)];
      bool over = false;
      for (int i = 0; i < g.ncon; ++i) {
        if (ctx.overload(q, i) > 1.0 + kEps) over = true;
      }
      if (!over) continue;
      idx_t best_u = -1;
      real_t best_d = -kDescentMin;
      for (idx_t u = 0; u < g.nvtxs; ++u) {
        const idx_t p = where[to_size(u)];
        if (p == q) continue;
        pairs = checked_add(pairs, 1);
        const real_t d = swap_delta(g, ctx, v, q, u, p);
        if (d < best_d - kEps) {
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

/// Summed relative overload over all (part, constraint) pairs — the
/// potential both descent stages minimize. Zero iff feasible.
real_t total_overload(const Graph& g, const KWayContext& ctx, idx_t nparts) {
  real_t t = 0.0;
  for (idx_t p = 0; p < nparts; ++p) {
    for (int i = 0; i < g.ncon; ++i) {
      t += std::max(0.0, ctx.overload(p, i) - 1.0);
    }
  }
  return t;
}

/// Alternate single-move and pairwise descent until neither improves (or
/// feasibility is reached). The two escape different deadlocks: a move
/// needs a destination with joint room, a swap only needs a profitable
/// exchange.
void overload_sum_escape(const Graph& g, KWayContext& ctx, idx_t nparts,
                         const std::vector<idx_t>& where, sum_t* moves,
                         sum_t* swaps, sum_t* evals) {
  for (int round = 0; round < 8; ++round) {
    const sum_t m = overload_descent(g, ctx, nparts, where, evals);
    *moves = checked_add(*moves, m);
    if (ctx.feasible()) break;
    const sum_t s = swap_descent(g, ctx, where);
    *swaps = checked_add(*swaps, s);
    if (ctx.feasible() || (m == 0 && s == 0)) break;
  }
}

/// The descent chain run on every graph the pass balances: greedy
/// episodes, then, while still infeasible, the pairwise-swap escape and
/// the summed-overload descent. Counts into `st`.
void descend(const Graph& g, KWayContext& ctx, idx_t nparts,
             const std::vector<idx_t>& where, RebalanceStats& st) {
  st.moves = checked_add(st.moves,
                         greedy_episodes(g, ctx, nparts, &st.episodes));
  if (!ctx.feasible()) {
    st.swaps = checked_add(st.swaps, swap_escape(g, ctx, where));
  }
  if (!ctx.feasible()) {
    overload_sum_escape(g, ctx, nparts, where, &st.moves, &st.swaps,
                        &st.descent_evals);
  }
}

/// One level of the partition-restricted hierarchy.
struct VLevel {
  Graph graph;
  std::vector<idx_t> cmap;
};

/// Serial greedy heavy-edge matching restricted to same-part pairs:
/// ascending vertex order, heaviest incident edge, smaller-id tie-break.
/// Contracting it never merges across the cut, so the current partition
/// carries down to the coarse graph exactly (same cut, same part weights).
idx_t restricted_match(const Graph& g, const std::vector<idx_t>& where,
                       std::vector<idx_t>& match, std::vector<idx_t>& cmap) {
  match.assign(to_size(g.nvtxs), -1);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    if (match[to_size(v)] >= 0) continue;
    idx_t best = -1;
    wgt_t best_w = -1;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      const idx_t u = g.adjncy[to_size(e)];
      if (u == v || match[to_size(u)] >= 0) continue;
      if (where[to_size(u)] != where[to_size(v)]) continue;
      const wgt_t w = g.adjwgt[to_size(e)];
      if (w > best_w || (w == best_w && (best < 0 || u < best))) {
        best_w = w;
        best = u;
      }
    }
    match[to_size(v)] = best >= 0 ? best : v;
    if (best >= 0) match[to_size(best)] = v;
  }
  return build_coarse_map(g, match, cmap);
}

/// One partition-restricted V-cycle (Sanders/Schulz iterated multilevel):
/// re-coarsen merging only same-part vertices (the partition projects to
/// every level exactly), rebalance the coarsest problem — where a single
/// move shifts a whole cluster, escaping granularity deadlocks the finest
/// level cannot — and project back up with per-level refinement. Serial,
/// and of `run` only the trace and the auditor reach its refiners.
/// Returns false when the graph would not shrink (nothing to do).
bool run_vcycle(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                const std::vector<real_t>& ub, Rng& rng,
                const std::vector<real_t>* tpwgts, const RunContext& run,
                sum_t* descent_evals) {
  // Restricted matching never merges across parts, so the coarse graph
  // keeps >= nparts vertices; a floor above nparts would refuse to engage
  // exactly on the tiny tight instances that need cluster-granularity
  // moves the most (169 vertices / 64 parts).
  const idx_t coarsen_to = std::max<idx_t>(nparts, 32);
  std::vector<VLevel> levels;
  std::vector<std::vector<idx_t>> parts;  // partition per coarse level
  std::vector<idx_t> match;
  std::vector<idx_t> cmap;
  const Graph* cur = &g;
  const std::vector<idx_t>* cur_where = &where;
  while (cur->nvtxs > coarsen_to &&
         levels.size() < 40) {
    const idx_t nc = restricted_match(*cur, *cur_where, match, cmap);
    // Same-part matchings stall earlier than free ones (parts are small
    // near the end); stop once a level stops shrinking meaningfully.
    if (static_cast<real_t>(nc) >
        0.98 * static_cast<real_t>(cur->nvtxs)) {
      break;
    }
    VLevel lvl;
    lvl.graph = contract_graph(*cur, cmap, nc);
    lvl.cmap = cmap;
    std::vector<idx_t> cwhere(to_size(nc), 0);
    for (idx_t v = 0; v < cur->nvtxs; ++v) {
      cwhere[to_size(cmap[to_size(v)])] = (*cur_where)[to_size(v)];
    }
    levels.push_back(std::move(lvl));
    parts.push_back(std::move(cwhere));
    cur = &levels.back().graph;
    cur_where = &parts.back();
  }
  if (levels.empty()) return false;
  RunContext refine;
  refine.trace = run.trace;
  refine.audit = run.audit;

  // Coarsest problem: balance + greedy relief + swaps + refine. Clusters
  // move as units here, which is exactly the strength single-vertex moves
  // at the finest level lack.
  {
    Graph& cg = levels.back().graph;
    std::vector<idx_t>& cw = parts.back();
    kway_balance(cg, nparts, cw, ub, rng, tpwgts, refine);
    KWayContext cctx(cg, nparts, cw, ub, tpwgts);
    // Coarse moves are not the caller's moves: only the work count is kept.
    RebalanceStats coarse;
    descend(cg, cctx, nparts, cw, coarse);
    *descent_evals = checked_add(*descent_evals, coarse.descent_evals);
    kway_refine(cg, nparts, cw, ub, /*max_passes=*/4, rng, nullptr, tpwgts,
                refine);
  }

  // Project up, refining at every level so the cut recovers while the
  // balance gained at the coarse levels is preserved by the refiner's own
  // feasibility handling.
  for (std::size_t l = levels.size(); l-- > 0;) {
    const Graph& fine_g = l == 0 ? g : levels[l - 1].graph;
    std::vector<idx_t>& fine_w = l == 0 ? where : parts[l - 1];
    project_partition(levels[l].cmap, parts[l], fine_w);
    kway_refine(fine_g, nparts, fine_w, ub, /*max_passes=*/2, rng, nullptr,
                tpwgts, refine);
  }
  return true;
}

}  // namespace

std::vector<real_t> min_feasible_ubvec(const Graph& g, idx_t nparts,
                                       const std::vector<real_t>* tpwgts) {
  std::vector<real_t> bounds(to_size(std::max(g.ncon, 1)), 1.0);
  if (nparts <= 1 || g.nvtxs <= 0) return bounds;

  real_t max_frac = 1.0 / static_cast<real_t>(nparts);
  bool uniform = true;
  if (tpwgts != nullptr && !tpwgts->empty()) {
    max_frac = *std::max_element(tpwgts->begin(), tpwgts->end());
    for (const real_t f : *tpwgts) {
      if (f > 1.0 / static_cast<real_t>(nparts) + kEps ||
          f < 1.0 / static_cast<real_t>(nparts) - kEps) {
        uniform = false;
      }
    }
  }

  // Count pigeonhole: some part holds at least h vertices.
  const idx_t h = (g.nvtxs + nparts - 1) / nparts;
  std::vector<wgt_t> w(to_size(g.nvtxs));
  for (int i = 0; i < g.ncon; ++i) {
    const sum_t tv = g.tvwgt[to_size(i)];
    if (tv <= 0) continue;
    const real_t denom = max_frac * static_cast<real_t>(tv);

    wgt_t wmax = 0;
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      w[to_size(v)] = g.weight(v, i);
      wmax = std::max(wmax, w[to_size(v)]);
    }
    // Heaviest vertex: some part carries it whole.
    bounds[to_size(i)] =
        std::max(bounds[to_size(i)], static_cast<real_t>(wmax) / denom);

    // Count pigeonhole: the h co-resident vertices weigh at least the sum
    // of the h smallest.
    if (h > 1) {
      std::nth_element(
          w.begin(),
          w.begin() + static_cast<std::ptrdiff_t>(to_size(h) - 1), w.end());
      sum_t smallest = 0;
      for (idx_t j = 0; j < h; ++j) {
        smallest = checked_add(smallest, w[to_size(j)]);
      }
      bounds[to_size(i)] =
          std::max(bounds[to_size(i)], static_cast<real_t>(smallest) / denom);
    }

    // Weight pigeonhole (uniform targets, integer weights): some part
    // carries at least ceil(tvwgt/nparts).
    if (uniform) {
      const sum_t per_part =
          checked_add(tv, static_cast<sum_t>(nparts - 1)) /
          static_cast<sum_t>(nparts);
      bounds[to_size(i)] = std::max(
          bounds[to_size(i)],
          static_cast<real_t>(per_part) * static_cast<real_t>(nparts) /
              static_cast<real_t>(tv));
    }
  }
  return bounds;
}

std::vector<real_t> effective_ubvec(const Graph& g, const Options& opts) {
  std::vector<real_t> eff = min_feasible_ubvec(g, opts.nparts, opts.targets());
  for (int i = 0; i < g.ncon; ++i) {
    eff[to_size(i)] = std::max(eff[to_size(i)], opts.ub_for(i));
  }
  return eff;
}

bool rebalance_partition(const Graph& g, idx_t nparts,
                         std::vector<idx_t>& where,
                         const std::vector<real_t>& ub, Rng& rng,
                         const std::vector<real_t>* tpwgts,
                         RebalanceStats* stats, const RunContext& run,
                         int max_vcycles) {
  KWayContext ctx(g, nparts, where, ub, tpwgts);
  RebalanceStats local;
  RebalanceStats& st = stats != nullptr ? *stats : local;
  st = RebalanceStats{};
  if (ctx.feasible()) {
    st.feasible = true;
    st.max_overload = ctx.max_overload();
    return true;
  }

  TraceSpan span(run.trace, "rebalance");

  // Best-state tracking: the pass must never return a worse assignment
  // than its input. Better = feasible first, then lower max overload,
  // then lower cut.
  std::vector<idx_t> best_where = where;
  real_t best_overload = ctx.max_overload();
  real_t best_sum = total_overload(g, ctx, nparts);
  sum_t best_cut = edge_cut(g, where);
  bool best_feasible = false;
  auto note_state = [&]() {
    const real_t ov = ctx.max_overload();
    const real_t tsum = total_overload(g, ctx, nparts);
    const bool feas = ctx.feasible();
    const sum_t cut = edge_cut(g, where);
    const bool better =
        (feas && !best_feasible) ||
        (feas == best_feasible &&
         (ov < best_overload - kEps ||
          (ov <= best_overload + kEps &&
           (tsum < best_sum - kEps ||
            (tsum <= best_sum + kEps && cut < best_cut)))));
    if (better) {
      best_where = where;
      best_overload = ov;
      best_sum = tsum;
      best_cut = cut;
      best_feasible = feas;
    }
  };

  descend(g, ctx, nparts, where, st);
  note_state();

  for (int cycle = 0; cycle < max_vcycles && !ctx.feasible(); ++cycle) {
    const real_t before = ctx.max_overload();
    const real_t before_sum = total_overload(g, ctx, nparts);
    // The V-cycle's coarse graphs are this pass's memory peak; the member
    // index is rebuilt afterwards anyway (reload below), so free it now.
    ctx.drop_members();
    if (!run_vcycle(g, nparts, where, ub, rng, tpwgts, run,
                    &st.descent_evals)) break;
    ctx.reload();
    ++st.vcycles;
    descend(g, ctx, nparts, where, st);
    note_state();
    // A full cycle that moved neither the peak nor the summed overload
    // will not move them next time either (same deterministic pipeline,
    // same fixed point).
    if (!ctx.feasible() && ctx.max_overload() >= before - kEps &&
        total_overload(g, ctx, nparts) >= before_sum - kEps) {
      break;
    }
  }

  // Randomized kicks: the stages above are monotone descents, so a joint
  // local minimum stops all of them at once. Perturb a few vertices out
  // of the overloaded parts (seeded stream — deterministic and
  // thread-invariant) and re-descend; best-state tracking makes a failed
  // kick free. Small graphs only: elsewhere the V-cycle has the leverage.
  if (!ctx.feasible() && g.nvtxs <= kSwapMaxVtxs) {
    constexpr int kKickRounds = 16;
    const int kick_moves = std::max<int>(4, g.nvtxs / 32);
    std::vector<idx_t> movable;
    for (int kick = 0; kick < kKickRounds && !ctx.feasible(); ++kick) {
      movable.clear();
      for (idx_t v = 0; v < g.nvtxs; ++v) {
        const idx_t q = where[to_size(v)];
        for (int i = 0; i < g.ncon; ++i) {
          if (ctx.overload(q, i) > 1.0 + kEps) {
            movable.push_back(v);
            break;
          }
        }
      }
      if (movable.empty()) break;
      for (int j = 0; j < kick_moves; ++j) {
        const idx_t v = movable[to_size(static_cast<idx_t>(
            rng.next_below(static_cast<std::uint64_t>(movable.size()))))];
        const idx_t to = static_cast<idx_t>(
            rng.next_below(static_cast<std::uint64_t>(nparts)));
        if (to == where[to_size(v)] || !ctx.can_leave(where[to_size(v)])) {
          continue;
        }
        ctx.move(v, to);
        st.moves = checked_add(st.moves, 1);
      }
      st.moves = checked_add(
          st.moves, greedy_episodes(g, ctx, nparts, &st.episodes));
      overload_sum_escape(g, ctx, nparts, where, &st.moves, &st.swaps,
                          &st.descent_evals);
      note_state();
    }
  }

  // Leave the best state reached, then resync the context for the audit
  // seam and the reported stats.
  note_state();
  if (best_where != where) {
    where = best_where;
    ctx.reload();
  }

  if (run.audit != nullptr && run.audit->boundaries()) {
    run.audit->check_kway_state(g, where, nparts, ctx.pwgts(), &ctx.vcounts(),
                                "rebalance");
  }

  st.feasible = ctx.feasible();
  st.max_overload = ctx.max_overload();

  if (span.enabled()) {
    trace_count(run.trace, "rebalance.moves", st.moves);
    trace_count(run.trace, "rebalance.swaps", st.swaps);
    trace_count(run.trace, "rebalance.episodes", st.episodes);
    trace_count(run.trace, "rebalance.vcycles", st.vcycles);
    trace_count(run.trace, "rebalance.descent.evals", st.descent_evals);
    trace_count(run.trace, st.feasible ? "rebalance.feasible"
                                       : "rebalance.infeasible");
    span.arg({"moves", st.moves});
    span.arg({"swaps", st.swaps});
    span.arg({"episodes", st.episodes});
    span.arg({"vcycles", st.vcycles});
    span.arg({"descent_evals", st.descent_evals});
    span.arg({"max_overload", st.max_overload});
    span.arg({"feasible", static_cast<std::int64_t>(st.feasible ? 1 : 0)});
  }
  if (run.flight != nullptr) {
    FlightSample fs;
    fs.stage = FlightSample::Stage::kRebalance;
    fs.nvtxs = g.nvtxs;
    fs.nedges = g.nedges();
    fs.moves = checked_narrow<idx_t>(std::min<sum_t>(
        st.moves, static_cast<sum_t>(std::numeric_limits<idx_t>::max())));
    fs.worst_imbalance = st.max_overload;
    fs.feasible = st.feasible ? 1 : 0;
    run.flight->record(fs);
  }
  return st.feasible;
}

void rebalance_if_infeasible(const Graph& g, std::vector<idx_t>& where,
                             const std::vector<real_t>& ub, Rng& rng,
                             const Options& opts, const RunContext& run) {
  const idx_t k = opts.nparts;
  if (kway_feasible(g, part_weights(g, where, k), k, ub, opts.targets())) {
    return;
  }
  ProfScope ps(run.profile, "rebalance", 0);
  ps.work(g.nedges(), g.nvtxs);
  rebalance_partition(g, k, where, ub, rng, opts.targets(), nullptr, run);
}

}  // namespace mcgp
