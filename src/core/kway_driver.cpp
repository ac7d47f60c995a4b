#include "core/kway_driver.hpp"

#include <algorithm>

#include "core/audit.hpp"
#include "core/coarsen.hpp"
#include "core/kway_refine.hpp"
#include "core/project.hpp"
#include "core/rb_driver.hpp"
#include "core/rebalance.hpp"
#include "core/seam.hpp"

namespace mcgp {

namespace {

idx_t kway_coarsen_to(const Options& opts, idx_t nparts, int ncon,
                      idx_t nvtxs) {
  // A somewhat larger coarsest graph than single-constraint kmetis uses:
  // the greedy k-way refinement cannot hill-climb, so initial-partition
  // quality (RB on the coarsest) carries more of the final cut. Capped so
  // large graphs still coarsen deeply.
  const idx_t target =
      opts.coarsen_to > 0
          ? opts.coarsen_to
          : std::max<idx_t>({30 * nparts, 40 * ncon, 200,
                             std::min<idx_t>(nvtxs / 8, 3000)});
  // The coarsest graph must retain enough vertices to seed k parts.
  return std::max<idx_t>(target, 4 * nparts);
}

}  // namespace

std::vector<idx_t> partition_kway(const Graph& g, const Options& opts,
                                  Rng& rng, MlBisectStats* stats,
                                  ThreadPool* pool, Profiler* profile) {
  const idx_t k = std::max<idx_t>(opts.nparts, 1);
  if (k == 1 || g.nvtxs == 0) {
    return std::vector<idx_t>(to_size(g.nvtxs), 0);
  }

  // All scratch comes from one pool: the serial stretches lease a single
  // workspace below, and the parallel matching / contraction / sweep
  // chunks lease their own, so footprint telemetry sees every buffer.
  WorkspacePool wspool;
  RunContext run = run_context(opts, pool, &wspool, profile);
  Hierarchy h;
  {
    WorkspacePool::Lease ws = wspool.acquire();
    const CoarsenParams cp = coarsen_params(
        opts, kway_coarsen_to(opts, k, g.ncon, g.nvtxs), run);
    h = coarsen_graph(g, cp, rng, ws.get());
  }

  if (stats != nullptr) {
    stats->levels = h.num_levels();
    stats->coarsest_nvtxs = h.coarsest().nvtxs;
  }

  // Initial k-way partition of the coarsest graph via recursive bisection,
  // with a slightly tightened tolerance so k-way refinement starts with
  // room to work with.
  std::vector<idx_t> cwhere;
  {
    Seam initpart(run, SeamSpec().span("initpart.kway").phase("initpart"),
                  h.coarsest());
    Options init_opts = opts;
    init_opts.nparts = k;
    init_opts.coarsen_to = 0;  // let the bisections pick their own size
    init_opts.ubvec.resize(to_size(g.ncon));
    for (int i = 0; i < g.ncon; ++i) {
      init_opts.ubvec[to_size(i)] =
          std::max<real_t>(1.0 + (opts.ub_for(i) - 1.0) * 0.9, 1.003);
    }
    init_opts.tpwgts = opts.tpwgts;
    // The nested recursive bisection of the coarsest graph runs its own
    // coarsen/refine scopes; it gets no profiler, so its cost lands in
    // this "initpart" bucket instead of polluting the top hierarchy's
    // per-level coarsen trend with coarsest-graph mini-hierarchies.
    cwhere = partition_recursive_bisection(h.coarsest(), init_opts, rng,
                                           nullptr, pool);
  }

  const std::vector<real_t> ub = opts.tolerances(g.ncon);
  const int nlevels = h.num_levels();
  for (int l = nlevels; l >= 0; --l) {
    const Graph& cur = h.graph_at(l);
    if (l < nlevels) {
      const std::vector<idx_t>& cmap = h.levels[to_size(l)].cmap;
      std::vector<idx_t> fine_where;
      {
        Seam project(run, SeamSpec().phase("project").level(l), cur);
        project_partition(cmap, cwhere, fine_where);
      }
      if (run.audit != nullptr && run.audit->boundaries()) {
        run.audit->check_projection(cur, h.graph_at(l + 1), cmap, cwhere,
                                    fine_where, "kway.uncoarsen");
      }
      cwhere = std::move(fine_where);
      // The coarser graph and its map are spent: release them, so each
      // finer level refines next to the levels still ahead only.
      h.levels.pop_back();
    }
    run.level = l;
    // Extra sweeps on the finest graph, where moves are cheapest in
    // balance terms and most plentiful.
    const int passes = l == 0 ? opts.kway_passes + 2 : opts.kway_passes;
    kway_refine_level(
        cur, cwhere, ub, passes, rng, opts, run,
        SeamSpec().span("uncoarsen.level").stage(Seam::Stage::kUncoarsenKWay));
  }

  // The refiner's balancer can exit with residual overload on tight or
  // coarse-granularity instances (the ledger's grid-13x13 k=64 case).
  // Runs after all parallel phases on a thread-invariant `cwhere` and
  // is itself serial, so determinism is preserved.
  rebalance_if_infeasible(g, cwhere, ub, rng, opts, run);
  return cwhere;
}

}  // namespace mcgp
