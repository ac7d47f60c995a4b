#include "core/coarsen.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "core/audit.hpp"
#include "support/flight_recorder.hpp"
#include "support/profiler.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace mcgp {

namespace {

/// Coarse-vertex range per parallel contraction chunk, and the minimum
/// coarse size worth chunking for (below it the merge bookkeeping costs
/// more than the rows).
constexpr idx_t kContractChunk = 4096;

/// Append the coarse adjacency rows of coarse vertices [b, e) to
/// `adjncy`/`adjwgt`, recording each row's END as a size relative to the
/// start of the range into xadj_end[cv]. `pos` is a dense all--1 map of
/// size >= ncoarse; every touched entry is restored. This is THE row
/// builder: the serial path runs it once over [0, ncoarse) straight into
/// the output graph, the chunked path runs it per range into chunk-local
/// buffers — same walk, so the merged output is bit-identical.
void build_rows(const Graph& g, const std::vector<idx_t>& cmap,
                const std::vector<idx_t>& first,
                const std::vector<idx_t>& second, idx_t b, idx_t e,
                std::vector<idx_t>& pos, std::vector<idx_t>& adjncy,
                std::vector<wgt_t>& adjwgt, idx_t* xadj_end) {
  for (idx_t cv = b; cv < e; ++cv) {
    const idx_t row_start = static_cast<idx_t>(adjncy.size());
    for (const idx_t v : {first[to_size(cv)],
                          second[to_size(cv)]}) {
      if (v < 0) continue;
      for (idx_t ge = g.xadj[to_size(v)]; ge < g.xadj[to_size(v + 1)]; ++ge) {
        const idx_t cu = cmap[to_size(g.adjncy[to_size(ge)])];
        if (cu == cv) continue;  // edge collapsed inside the coarse vertex
        const idx_t p = pos[to_size(cu)];
        if (p >= 0) {
          adjwgt[to_size(p)] += g.adjwgt[to_size(ge)];
        } else {
          pos[to_size(cu)] = static_cast<idx_t>(adjncy.size());
          adjncy.push_back(cu);
          adjwgt.push_back(g.adjwgt[to_size(ge)]);
        }
      }
    }
    for (idx_t p = row_start; p < static_cast<idx_t>(adjncy.size()); ++p) {
      pos[to_size(adjncy[to_size(p)])] = -1;
    }
    xadj_end[cv - b] = static_cast<idx_t>(adjncy.size());
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

  // Invert cmap into constituent lists: every coarse vertex has 1 or 2.
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

  // Sum constituent weight vectors from the lists: each chunk writes only
  // its own coarse vertices' weights (disjoint), and per-vertex sums add
  // first then second exactly like the serial fine-vertex sweep did.
  parallel_chunks(run.pool, ncoarse, kContractChunk, [&](idx_t b, idx_t e) {
    ProfScope aux(run.profile, "coarsen.contract", run.level, /*aux=*/true);
    for (idx_t cv = b; cv < e; ++cv) {
      wgt_t* out = &c.vwgt[to_size(cv) * to_size(g.ncon)];
      for (const idx_t v : {first[to_size(cv)],
                            second[to_size(cv)]}) {
        if (v < 0) continue;
        const wgt_t* w = g.weights(v);
        for (int i = 0; i < g.ncon; ++i) out[i] += w[i];
      }
    }
  });

  if (run.pool == nullptr || ncoarse <= kContractChunk) {
    // Serial rows straight into the output graph.
    c.adjncy.reserve(g.adjncy.size());
    c.adjwgt.reserve(g.adjwgt.size());
    std::vector<idx_t> local_pos;
    if (ws == nullptr) local_pos.assign(to_size(ncoarse), -1);
    std::vector<idx_t>& pos =
        ws != nullptr ? ws->pos_map(to_size(ncoarse))
                      : local_pos;
    build_rows(g, cmap, first, second, 0, ncoarse, pos, c.adjncy, c.adjwgt,
               c.xadj.data() + 1);
  } else {
    // Chunked rows: build each coarse-vertex range into its own buffers
    // (dense map from a workspace lease), then merge at offsets fixed by
    // chunk order. Same rows, same order — bit-identical to serial.
    const idx_t nchunks = (ncoarse + kContractChunk - 1) / kContractChunk;
    std::vector<std::vector<idx_t>> chunk_adjncy(to_size(nchunks));
    std::vector<std::vector<wgt_t>> chunk_adjwgt(to_size(nchunks));
    parallel_chunks(run.pool, ncoarse, kContractChunk, [&](idx_t b, idx_t e) {
      ProfScope aux(run.profile, "coarsen.contract", run.level, /*aux=*/true);
      const idx_t chunk = b / kContractChunk;
      std::vector<idx_t>& adjncy = chunk_adjncy[to_size(chunk)];
      std::vector<wgt_t>& adjwgt = chunk_adjwgt[to_size(chunk)];
      std::vector<idx_t> local_pos;
      std::unique_ptr<WorkspacePool::Lease> lease;
      if (run.wspool != nullptr) {
        lease = std::make_unique<WorkspacePool::Lease>(run.wspool->acquire());
      } else {
        local_pos.assign(to_size(ncoarse), -1);
      }
      std::vector<idx_t>& pos = lease != nullptr
                                    ? (*lease)->pos_map(to_size(ncoarse))
                                    : local_pos;
      // Row ends land in c.xadj[b+1 .. e] as range-relative sizes; the
      // serial merge below shifts them to global offsets. Chunks write
      // disjoint xadj slices.
      build_rows(g, cmap, first, second, b, e, pos, adjncy, adjwgt,
                 c.xadj.data() + b + 1);
    });

    std::size_t total = 0;
    std::vector<std::size_t> chunk_base(to_size(nchunks), 0);
    for (idx_t chunk = 0; chunk < nchunks; ++chunk) {
      chunk_base[to_size(chunk)] = total;
      total += chunk_adjncy[to_size(chunk)].size();
    }
    c.adjncy.resize(total);
    c.adjwgt.resize(total);
    parallel_chunks(run.pool, ncoarse, kContractChunk, [&](idx_t b, idx_t e) {
      ProfScope aux(run.profile, "coarsen.contract", run.level, /*aux=*/true);
      const idx_t chunk = b / kContractChunk;
      const std::size_t base = chunk_base[to_size(chunk)];
      const std::vector<idx_t>& adjncy = chunk_adjncy[to_size(chunk)];
      const std::vector<wgt_t>& adjwgt = chunk_adjwgt[to_size(chunk)];
      std::copy(adjncy.begin(), adjncy.end(), c.adjncy.begin() +
                                                  static_cast<std::ptrdiff_t>(
                                                      base));
      std::copy(adjwgt.begin(), adjwgt.end(), c.adjwgt.begin() +
                                                  static_cast<std::ptrdiff_t>(
                                                      base));
      for (idx_t cv = b; cv < e; ++cv) {
        c.xadj[to_size(cv) + 1] += static_cast<idx_t>(base);
      }
    });
  }

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

  TraceSpan coarsen_span(params.trace, "coarsen");

  std::vector<idx_t> local_match;
  std::vector<idx_t>& match = ws != nullptr ? ws->match : local_match;

  const Graph* cur = &g;
  for (int level = 0; level < params.max_levels; ++level) {
    if (cur->nvtxs <= params.coarsen_to) break;

    TraceSpan sp(params.trace, "coarsen.level");
    RunContext run = params;
    run.level = level;
    ProfScope match_scope(params.profile, "coarsen.matching", level);
    match_scope.work(cur->nedges(), cur->nvtxs);
    compute_matching_into(*cur, params.scheme, rng, match, ws, run);
    std::vector<idx_t> cmap;  // kept by the hierarchy: allocated fresh
    const idx_t ncoarse = build_coarse_map(*cur, match, cmap);
    match_scope.finish();

    if (sp.enabled()) {
      idx_t singletons = 0;
      for (idx_t v = 0; v < cur->nvtxs; ++v) {
        if (match[to_size(v)] == v) ++singletons;
      }
      sp.arg({"level", level});
      sp.arg({"nvtxs", cur->nvtxs});
      sp.arg({"nedges", cur->nedges()});
      sp.arg({"ncoarse", ncoarse});
      sp.arg({"matched_fraction",
              static_cast<double>(cur->nvtxs - singletons) /
                  static_cast<double>(cur->nvtxs)});
      sp.arg({"reduction", static_cast<double>(ncoarse) /
                               static_cast<double>(cur->nvtxs)});
    }

    // Stop when matching no longer shrinks the graph meaningfully
    // (e.g. star-like coarse graphs where almost nothing matches).
    if (ncoarse >= static_cast<idx_t>(params.min_reduction * cur->nvtxs) &&
        ncoarse > params.coarsen_to) {
      trace_count(params.trace, "coarsen.stalled");
      break;
    }

    ProfScope contract_scope(params.profile, "coarsen.contract", level);
    contract_scope.work(cur->nedges(), cur->nvtxs);
    Graph coarse = contract_graph(*cur, cmap, ncoarse, ws, run);
    contract_scope.finish();
    if (params.audit != nullptr && params.audit->boundaries()) {
      params.audit->check_coarse_level(*cur, coarse, cmap, "coarsen.level");
    }
    h.levels.push_back(CoarseLevel{std::move(coarse), std::move(cmap)});
    cur = &h.levels.back().graph;
    trace_count(params.trace, "coarsen.levels");
    if (params.flight != nullptr) {
      params.flight->sample_memory();
      FlightSample fs;
      fs.stage = FlightSample::Stage::kCoarsenLevel;
      fs.level = level + 1;  // level of the graph just built (0 = finest)
      fs.nvtxs = cur->nvtxs;
      fs.nedges = cur->nedges();
      params.flight->record(fs);
    }
  }

  if (coarsen_span.enabled()) {
    coarsen_span.arg({"levels", h.num_levels()});
    coarsen_span.arg({"coarsest_nvtxs", h.coarsest().nvtxs});
  }
  return h;
}

}  // namespace mcgp
