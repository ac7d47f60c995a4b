// Full-scan reference of the peak drain (drain_peaks, core/kway_context.hpp)
// as it ran before the per-part member index and the per-commit caches:
// every episode scans all n vertices for the drained part's members, and
// every popped vertex gathers its connectivity a second time and rescans
// all parts for the global peak and the lightest part. The library's drain
// must reproduce it move for move; kway_balance's and the rebalancer's
// reference tests both drive this one copy.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/kway_context.hpp"
#include "graph/csr_graph.hpp"
#include "support/check.hpp"
#include "support/indexed_heap.hpp"

namespace mcgp {

struct ReferenceDrainResult {
  sum_t moves = 0;
  int episodes = 0;
};

inline ReferenceDrainResult reference_drain(const Graph& g, KWayContext& ctx,
                                            const std::vector<idx_t>& where) {
  const idx_t nparts = ctx.nparts();
  auto find_peak = [&](idx_t& q, int& c) {
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
  };
  auto progress = [&]() {
    const real_t peak = ctx.max_overload();
    idx_t at_peak = 0;
    for (idx_t p = 0; p < nparts; ++p) {
      for (int i = 0; i < g.ncon; ++i) {
        if (ctx.overload(p, i) > peak - 1e-9) ++at_peak;
      }
    }
    return std::make_pair(peak, at_peak);
  };
  std::vector<sum_t> conn(to_size(nparts), 0);
  std::vector<idx_t> touched;
  auto relief_key = [&](idx_t v, int c) {
    const sum_t idw = ctx.gather_connectivity_into(v, conn, touched);
    sum_t edw = 0;
    for (const idx_t p : touched) edw = checked_add(edw, conn[to_size(p)]);
    return static_cast<real_t>(checked_sub(edw, idw)) /
           static_cast<real_t>(std::max<wgt_t>(g.weight(v, c), 1));
  };
  auto pick_destination = [&](idx_t v, idx_t q, sum_t idw, real_t peak) {
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
  };

  ReferenceDrainResult res;
  const int max_episodes = 16 * g.ncon * std::max<idx_t>(nparts, 2);
  const sum_t move_cap = checked_mul(
      static_cast<sum_t>(8), static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
  auto prev = progress();
  for (int ep = 0; ep < max_episodes; ++ep) {
    idx_t q;
    int c;
    if (!find_peak(q, c) || res.moves >= move_cap) break;
    IndexedMaxHeap heap;
    heap.reset(g.nvtxs);
    std::vector<char> requeued(to_size(g.nvtxs), 0);
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      if (where[to_size(v)] != q || g.weight(v, c) <= 0) continue;
      heap.insert(v, relief_key(v, c));
    }
    idx_t ep_moves = 0;
    while (!heap.empty()) {
      if (ctx.overload(q, c) <= 1.0 + 1e-12 || !ctx.can_leave(q)) break;
      const real_t popped_key = heap.top_key();
      const idx_t v = heap.pop_max();
      const real_t fresh = relief_key(v, c);
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
    res.moves = checked_add(res.moves, static_cast<sum_t>(ep_moves));
    ++res.episodes;
    const auto cur = progress();
    if (cur.first >= prev.first - 1e-12 && cur.second >= prev.second) break;
    prev = cur;
  }
  return res;
}

}  // namespace mcgp
