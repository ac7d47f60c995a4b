#include "core/kway_boundary.hpp"

#include <algorithm>

#include "support/thread_pool.hpp"

namespace mcgp {

namespace {

/// Vertex-range grain of the initial degree scan (fixed, so the chunking
/// depends only on the graph size).
constexpr idx_t kScanChunk = 4096;

}  // namespace

KWayBoundary::KWayBoundary(const Graph& g, const std::vector<idx_t>& where,
                           const std::vector<idx_t>& color, ThreadPool* pool)
    : g_(g), where_(where), color_(color) {
  const std::size_t n = to_size(g.nvtxs);
  id_.assign(n, 0);
  ed_.assign(n, 0);
  next_.assign(n, 0);
  parallel_chunks(pool, g.nvtxs, kScanChunk, [&](idx_t b, idx_t e) {
    for (idx_t v = b; v < e; ++v) {
      const idx_t pv = where[to_size(v)];
      sum_t id = 0;
      sum_t ed = 0;
      idx_t next = 0;
      for (idx_t j = g.xadj[to_size(v)]; j < g.xadj[to_size(v + 1)]; ++j) {
        if (where[to_size(g.adjncy[to_size(j)])] == pv) {
          id = checked_add(id, g.adjwgt[to_size(j)]);
        } else {
          ed = checked_add(ed, g.adjwgt[to_size(j)]);
          ++next;
        }
      }
      id_[to_size(v)] = id;
      ed_[to_size(v)] = ed;
      next_[to_size(v)] = next;
    }
  });
  idx_t ncolors = 0;
  for (const idx_t c : color) ncolors = std::max(ncolors, c + 1);
  movable_.resize(to_size(ncolors));
  pos_.assign(n, -1);
  stamp_.assign(n, -1);
  start_bnd_.assign(n, 0);
  dead_.assign(n, 0);
  for (idx_t v = 0; v < g.nvtxs; ++v) refresh(v, next_[to_size(v)] > 0);
}

void KWayBoundary::moved(idx_t v, idx_t from) {
  const idx_t to = where_[to_size(v)];
  sum_t to_weight = 0;
  idx_t to_edges = 0;
  idx_t from_edges = 0;
  for (idx_t j = g_.xadj[to_size(v)]; j < g_.xadj[to_size(v + 1)]; ++j) {
    const idx_t u = g_.adjncy[to_size(j)];
    const idx_t pu = where_[to_size(u)];
    const wgt_t w = g_.adjwgt[to_size(j)];
    dead_[to_size(u)] = 0;
    if (pu == from) {  // the edge u–v leaves u's part
      id_[to_size(u)] = checked_sub(id_[to_size(u)], w);
      ed_[to_size(u)] = checked_add(ed_[to_size(u)], w);
      refresh(u, next_[to_size(u)]++ > 0);
      ++from_edges;
    } else if (pu == to) {  // the edge u–v joins u's part
      id_[to_size(u)] = checked_add(id_[to_size(u)], w);
      ed_[to_size(u)] = checked_sub(ed_[to_size(u)], w);
      refresh(u, next_[to_size(u)]-- > 0);
      to_weight = checked_add(to_weight, w);
      ++to_edges;
    }
  }
  const bool was_bnd = next_[to_size(v)] > 0;
  const sum_t total = checked_add(id_[to_size(v)], ed_[to_size(v)]);
  id_[to_size(v)] = to_weight;
  ed_[to_size(v)] = checked_sub(total, to_weight);
  next_[to_size(v)] += from_edges - to_edges;
  dead_[to_size(v)] = 0;
  refresh(v, was_bnd);
}

void KWayBoundary::refresh(idx_t u, bool was_bnd) {
  const bool bnd = next_[to_size(u)] > 0;
  if (bnd != was_bnd && stamp_[to_size(u)] != pass_) {
    stamp_[to_size(u)] = pass_;
    start_bnd_[to_size(u)] = was_bnd ? 1 : 0;
  }
  const bool on = bnd && ed_[to_size(u)] >= id_[to_size(u)];
  idx_t& pos = pos_[to_size(u)];
  std::vector<idx_t>& list = movable_[to_size(color_[to_size(u)])];
  if (on && pos < 0) {
    pos = static_cast<idx_t>(list.size());
    list.push_back(u);
  } else if (!on && pos >= 0) {
    const idx_t last = list.back();
    list[to_size(pos)] = last;
    pos_[to_size(last)] = pos;
    list.pop_back();
    pos = -1;
  }
}

}  // namespace mcgp
