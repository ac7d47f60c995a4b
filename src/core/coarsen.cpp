#include "core/coarsen.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "core/audit.hpp"
#include "core/seam.hpp"
#include "support/profiler.hpp"
#include "support/thread_pool.hpp"

namespace mcgp {

namespace {

/// Coarse-vertex range per contraction chunk, and the minimum coarse size
/// worth chunking for: below it one block costs less than the bookkeeping.
constexpr idx_t kContractChunk = 4096;

/// Where a block of rows goes. build_rows appends each row after the
/// last one, reading back only the row it is building.
///  - GraphRows: the output graph's own vectors, the one block of an
///    unchunked contraction, which never moves.
///  - BufferRows: a chunk's region of the row buffer, from the chunk's
///    bound offset on.
struct GraphRows {
  std::vector<idx_t>& adj;
  std::vector<wgt_t>& wgt;

  idx_t size() const { return static_cast<idx_t>(adj.size()); }
  idx_t adj_at(idx_t p) const { return adj[to_size(p)]; }
  wgt_t& wgt_at(idx_t p) { return wgt[to_size(p)]; }
  void push(idx_t cu, wgt_t w) {
    adj.push_back(cu);
    wgt.push_back(w);
  }
};

struct BufferRows {
  idx_t* adj;
  wgt_t* wgt;
  idx_t n = 0;

  idx_t size() const { return n; }
  idx_t adj_at(idx_t p) const { return adj[p]; }
  wgt_t& wgt_at(idx_t p) { return wgt[p]; }
  void push(idx_t cu, wgt_t w) {
    adj[n] = cu;
    wgt[n] = w;
    ++n;
  }
};

/// THE row builder. Appends the coarse adjacency rows of coarse vertices
/// [b, e) to `rows`, recording each row's end relative to the block's
/// start into xadj_end[cv - b]. A row holds at most deg(first) +
/// deg(second) entries. `pos` is a dense all--1 map of size >= ncoarse;
/// every touched entry is restored. Out of line and with `rows` by value
/// (its count stays in a register): inlined into contract_graph, the walk
/// ran about 15% slower.
template <class Rows>
[[gnu::noinline]] void build_rows(const Graph& g,
                                  const std::vector<idx_t>& cmap,
                                  const std::vector<idx_t>& first,
                                  const std::vector<idx_t>& second, idx_t b,
                                  idx_t e, std::vector<idx_t>& pos, Rows rows,
                                  idx_t* xadj_end) {
  for (idx_t cv = b; cv < e; ++cv) {
    const idx_t row_start = rows.size();
    for (const idx_t v : {first[to_size(cv)],
                          second[to_size(cv)]}) {
      if (v < 0) continue;
      for (idx_t ge = g.xadj[to_size(v)]; ge < g.xadj[to_size(v + 1)]; ++ge) {
        const idx_t cu = cmap[to_size(g.adjncy[to_size(ge)])];
        if (cu == cv) continue;  // edge collapsed inside the coarse vertex
        const idx_t p = pos[to_size(cu)];
        if (p >= 0) {
          rows.wgt_at(p) += g.adjwgt[to_size(ge)];
        } else {
          pos[to_size(cu)] = rows.size();
          rows.push(cu, g.adjwgt[to_size(ge)]);
        }
      }
    }
    for (idx_t p = row_start; p < rows.size(); ++p) {
      pos[to_size(rows.adj_at(p))] = -1;
    }
    xadj_end[cv - b] = rows.size();
  }
}

}  // namespace

Graph contract_graph(const Graph& g, const std::vector<idx_t>& cmap,
                     idx_t ncoarse, Workspace* ws, const RunContext& run) {
  Graph c;
  c.nvtxs = ncoarse;
  c.ncon = g.ncon;
  c.vwgt.assign(to_size(ncoarse) * to_size(g.ncon), 0);
  c.xadj.assign(to_size(ncoarse) + 1, 0);

  // One block of rows unless a pool gets more than one chunk of them.
  const bool chunked = run.pool != nullptr && ncoarse > kContractChunk;
  const idx_t nchunks = (ncoarse + kContractChunk - 1) / kContractChunk;

  // Invert cmap into constituent lists: every coarse vertex has 1 or 2.
  // Serial: chunked, the pairs that straddle chunks would race.
  std::vector<idx_t> local_first, local_second;
  std::vector<idx_t>& first = ws != nullptr ? ws->first : local_first;
  std::vector<idx_t>& second = ws != nullptr ? ws->second : local_second;
  first.assign(to_size(ncoarse), -1);
  second.assign(to_size(ncoarse), -1);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t cv = cmap[to_size(v)];
    if (first[to_size(cv)] < 0) {
      first[to_size(cv)] = v;
    } else {
      second[to_size(cv)] = v;
    }
  }

  // Sum constituent weight vectors, first then second: each chunk writes
  // only its own coarse vertices' weights. Chunked, it also sums its rows'
  // bound, deg(first) + deg(second), into bound[chunk + 1].
  std::vector<std::size_t> bound(to_size(nchunks) + 1, 0);
  parallel_chunks(run.pool, ncoarse, kContractChunk, [&](idx_t b, idx_t e) {
    ProfScope aux(run.profile, "coarsen.contract", run.level, ProfScope::kAux);
    std::size_t rows = 0;
    for (idx_t cv = b; cv < e; ++cv) {
      wgt_t* out = &c.vwgt[to_size(cv) * to_size(g.ncon)];
      for (const idx_t v : {first[to_size(cv)],
                            second[to_size(cv)]}) {
        if (v < 0) continue;
        const wgt_t* w = g.weights(v);
        for (int i = 0; i < g.ncon; ++i) out[i] += w[i];
        if (chunked) rows += to_size(g.degree(v));
      }
    }
    bound[to_size(b / kContractChunk) + 1] = rows;
  });

  if (!chunked) {
    // One block: rows go straight into the output graph and never move.
    c.adjncy.reserve(g.adjncy.size());
    c.adjwgt.reserve(g.adjwgt.size());
    std::vector<idx_t> local_pos;
    if (ws == nullptr) local_pos.assign(to_size(ncoarse), -1);
    std::vector<idx_t>& pos =
        ws != nullptr ? ws->pos_map(to_size(ncoarse)) : local_pos;
    GraphRows rows{c.adjncy, c.adjwgt};
    build_rows(g, cmap, first, second, 0, ncoarse, pos, rows,
               c.xadj.data() + 1);
    c.finalize();
    return c;
  }

  // Chunk k writes its rows one after another from bound[k], the prefix
  // sum of the bounds before it, so no two blocks overlap.
  for (idx_t k = 0; k < nchunks; ++k) {
    bound[to_size(k) + 1] += bound[to_size(k)];
  }
  RowBuffer local_buffer;
  RowBuffer& buffer = ws != nullptr ? ws->rows : local_buffer;
  buffer.reserve(bound[to_size(nchunks)]);
  parallel_chunks(run.pool, ncoarse, kContractChunk, [&](idx_t b, idx_t e) {
    ProfScope aux(run.profile, "coarsen.contract", run.level, ProfScope::kAux);
    std::vector<idx_t> local_pos;
    std::unique_ptr<WorkspacePool::Lease> lease;
    if (run.wspool != nullptr) {
      lease = std::make_unique<WorkspacePool::Lease>(run.wspool->acquire());
    } else {
      local_pos.assign(to_size(ncoarse), -1);
    }
    std::vector<idx_t>& pos =
        lease != nullptr ? (*lease)->pos_map(to_size(ncoarse)) : local_pos;
    const std::size_t at = bound[to_size(b / kContractChunk)];
    BufferRows rows{buffer.adj.get() + at, buffer.wgt.get() + at};
    // Row ends land in c.xadj[b+1 .. e] relative to the block's start.
    build_rows(g, cmap, first, second, b, e, pos, rows,
               c.xadj.data() + b + 1);
  });

  // Compact: block k's length is its last row's relative end; their
  // prefix sum is where each block moves, whole, in the output.
  std::vector<std::size_t> out(to_size(nchunks) + 1, 0);
  for (idx_t k = 0; k < nchunks; ++k) {
    const idx_t last = std::min<idx_t>(ncoarse, (k + 1) * kContractChunk);
    out[to_size(k) + 1] = out[to_size(k)] + to_size(c.xadj[to_size(last)]);
  }
  c.adjncy.resize(out[to_size(nchunks)]);
  c.adjwgt.resize(out[to_size(nchunks)]);
  parallel_chunks(run.pool, ncoarse, kContractChunk, [&](idx_t b, idx_t e) {
    ProfScope aux(run.profile, "coarsen.contract", run.level, ProfScope::kAux);
    const std::size_t k = to_size(b / kContractChunk);
    const std::size_t len = out[k + 1] - out[k];
    std::copy_n(buffer.adj.get() + bound[k], len, c.adjncy.data() + out[k]);
    std::copy_n(buffer.wgt.get() + bound[k], len, c.adjwgt.data() + out[k]);
    const idx_t shift = static_cast<idx_t>(out[k]);
    for (idx_t cv = b; cv < e; ++cv) c.xadj[to_size(cv) + 1] += shift;
  });

  c.finalize();
  return c;
}

CoarsenParams coarsen_params(const Options& opts, idx_t coarsen_to,
                             const RunContext& run) {
  CoarsenParams cp;
  static_cast<RunContext&>(cp) = run;
  cp.coarsen_to = coarsen_to;
  cp.scheme = opts.matching;
  cp.min_reduction = opts.min_coarsen_reduction;
  return cp;
}

Hierarchy coarsen_graph(const Graph& g, const CoarsenParams& params, Rng& rng,
                        Workspace* ws) {
  Hierarchy h;
  h.finest = &g;

  Seam coarsen(params, SeamSpec().span("coarsen"), g);

  std::vector<idx_t> local_match;
  std::vector<idx_t>& match = ws != nullptr ? ws->match : local_match;

  const Graph* cur = &g;
  for (int level = 0; level < params.max_levels; ++level) {
    if (cur->nvtxs <= params.coarsen_to) break;

    Seam lvl(params, SeamSpec().span("coarsen.level").level(level), *cur);
    RunContext run = params;
    run.level = level;
    Seam matching(run, SeamSpec().phase("coarsen.matching").level(level), *cur);
    const sum_t proposals =
        compute_matching_into(*cur, params.scheme, rng, match, ws, run);
    std::vector<idx_t> cmap;  // kept by the hierarchy: allocated fresh
    const idx_t ncoarse = build_coarse_map(*cur, match, cmap, run);
    matching.close();

    if (lvl.traced()) {
      idx_t singletons = 0, failed = 0;
      for (idx_t v = 0; v < cur->nvtxs; ++v) {
        if (match[to_size(v)] != v) continue;
        ++singletons;
        // Had neighbors, but every one was already taken.
        if (cur->degree(v) > 0) ++failed;
      }
      lvl.count("match.pairs", (cur->nvtxs - singletons) / 2);
      lvl.count("match.failed", failed);
      lvl.count("match.proposals", proposals);
      const auto n = static_cast<double>(cur->nvtxs);
      lvl.args({{"ncoarse", ncoarse},
                {"matched_fraction",
                 static_cast<double>(cur->nvtxs - singletons) / n},
                {"reduction", static_cast<double>(ncoarse) / n}});
    }

    // Stop when matching no longer shrinks the graph meaningfully
    // (e.g. star-like coarse graphs where almost nothing matches).
    if (ncoarse >= static_cast<idx_t>(params.min_reduction * cur->nvtxs) &&
        ncoarse > params.coarsen_to) {
      lvl.count("coarsen.stalled");
      break;
    }

    Seam contract(run, SeamSpec().phase("coarsen.contract").level(level), *cur);
    Graph coarse = contract_graph(*cur, cmap, ncoarse, ws, run);
    contract.close();
    if (params.audit != nullptr && params.audit->boundaries()) {
      params.audit->check_coarse_level(*cur, coarse, cmap, "coarsen.level");
    }
    h.levels.push_back(CoarseLevel{std::move(coarse), std::move(cmap)});
    cur = &h.levels.back().graph;
    lvl.count("coarsen.levels");
    // The graph just built, at its own level (0 = finest).
    Seam built(params,
               SeamSpec().level(level + 1).stage(Seam::Stage::kCoarsenLevel),
               *cur);
  }

  if (ws != nullptr) ws->rows = {};  // the row buffer serves one hierarchy
  coarsen.args({{"levels", h.num_levels()},
                {"coarsest_nvtxs", h.coarsest().nvtxs}});
  return h;
}

}  // namespace mcgp
