#include "core/rb_driver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/audit.hpp"
#include "core/balance2way.hpp"
#include "core/initpart.hpp"
#include "core/kway_refine.hpp"
#include "core/project.hpp"
#include "core/rebalance.hpp"
#include "core/refine2way.hpp"
#include "core/seam.hpp"
#include "graph/graph_ops.hpp"
#include "graph/metrics.hpp"

namespace mcgp {

namespace {

idx_t bisect_coarsen_to(const Options& opts, int ncon) {
  if (opts.coarsen_to > 0) return opts.coarsen_to;
  return std::max<idx_t>(100, 30 * ncon);
}

/// Both sides must be populated when the graph has >= 2 vertices;
/// a degenerate one-sided bisection would create empty parts downstream.
void ensure_nonempty_sides(const Graph& g, std::vector<idx_t>& where) {
  if (g.nvtxs < 2) return;
  idx_t count0 = 0;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    if (where[to_size(v)] == 0) ++count0;
  }
  if (count0 > 0 && count0 < g.nvtxs) return;
  const int empty = count0 == 0 ? 0 : 1;
  // Move the lightest vertex (smallest max normalized component) over.
  idx_t best = 0;
  real_t best_key = 1e300;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    real_t mx = 0.0;
    for (int i = 0; i < g.ncon; ++i) {
      mx = std::max(mx, static_cast<real_t>(g.weight(v, i)) *
                            g.invtvwgt[to_size(i)]);
    }
    if (mx < best_key) {
      best_key = mx;
      best = v;
    }
  }
  where[to_size(best)] = empty;
}

/// Sum of target fractions of parts [part0, part0 + k).
real_t target_sum(const std::vector<real_t>& tpwgts, idx_t part0, idx_t k) {
  if (tpwgts.empty()) return static_cast<real_t>(k);
  real_t s = 0;
  for (idx_t p = part0; p < part0 + k; ++p) s += tpwgts[to_size(p)];
  return s;
}

/// Shared, immutable-per-run state threaded through the RB recursion.
struct RbContext {
  const Options& opts;
  const std::vector<real_t>& level_ub;
  std::vector<idx_t>& out_part;  ///< subtrees write disjoint entries
  std::uint64_t root_seed = 0;
  RunContext run;  ///< null pool = fully serial; wspool always set
};

void rb_recurse(const RbContext& ctx, const Graph& sub,
                const std::vector<idx_t>& local_to_global, idx_t k,
                idx_t part0, MlBisectStats* stats) {
  if (sub.nvtxs == 0) return;
  if (k <= 1) {
    for (const idx_t gv : local_to_global) {
      ctx.out_part[to_size(gv)] = part0;
    }
    return;
  }
  if (k >= sub.nvtxs) {
    // Fewer vertices than requested parts: spread them one per part.
    for (idx_t v = 0; v < sub.nvtxs; ++v) {
      ctx.out_part[to_size(
          local_to_global[to_size(v)])] = part0 + (v % k);
    }
    return;
  }

  Seam split(ctx.run, SeamSpec().span("rb.split"), sub);
  split.args({{"k", k}, {"part0", part0}});

  // Private RNG stream for this subproblem. (part0, k) uniquely names a
  // node of the recursion tree (children own disjoint part ranges), so
  // every subtree computes the same bisection regardless of the order or
  // thread the scheduler runs it on.
  Rng rng(mix_seed(mix_seed(ctx.root_seed, static_cast<std::uint64_t>(part0)),
                   static_cast<std::uint64_t>(k)));

  const idx_t k_left = (k + 1) / 2;
  BisectionTargets targets;
  // With explicit per-part targets the split point is the fraction of the
  // subtree's total target mass owned by the left parts.
  targets.f0 = target_sum(ctx.opts.tpwgts, part0, k_left) /
               target_sum(ctx.opts.tpwgts, part0, k);
  targets.ub = ctx.level_ub;

  Graph half[2];
  std::vector<idx_t> half_to_global[2];
  {
    // Scratch is leased only for this serial stretch and returned before
    // any task boundary: wait() below may run OTHER queued tasks on this
    // thread, and those must be free to lease the same workspace.
    WorkspacePool::Lease lease = ctx.run.wspool->acquire();
    Workspace& ws = *lease;

    std::vector<idx_t> where;
    multilevel_bisect(sub, where, targets, ctx.opts, rng, stats, &ws, &ctx.run);
    // Closed before the fork below: a clock left running across wait()
    // would time the tasks this thread helps run.
    Seam split_work(ctx.run, SeamSpec().phase("rb.split"), sub);
    ensure_nonempty_sides(sub, where);

    std::vector<char>& select = ws.select;
    select.assign(to_size(sub.nvtxs), 0);
    for (int side = 0; side < 2; ++side) {
      for (idx_t v = 0; v < sub.nvtxs; ++v) {
        select[to_size(v)] =
            where[to_size(v)] == side ? 1 : 0;
      }
      std::vector<idx_t> sub_to_parent;
      half[side] = induced_subgraph(sub, select, sub_to_parent, &ws);
      half_to_global[side].resize(sub_to_parent.size());
      for (std::size_t i = 0; i < sub_to_parent.size(); ++i) {
        half_to_global[side][i] =
            local_to_global[to_size(sub_to_parent[i])];
      }
    }
  }

  // Fork: side 1 goes to the pool (or runs inline when there is none),
  // side 0 runs here. Both halves live on this frame, which outlives the
  // tasks because wait() joins them before returning.
  TaskGroup group(ctx.run.pool);
  group.run([&ctx, &half, &half_to_global, k, k_left, part0] {
    rb_recurse(ctx, half[1], half_to_global[1], k - k_left, part0 + k_left,
               nullptr);
  });
  rb_recurse(ctx, half[0], half_to_global[0], k_left, part0, nullptr);
  // The calling thread's idle join gets its own "rb.wait" row; the
  // subtrees it helps run meanwhile keep theirs. Serial runs never wait.
  ProfScope idle(ctx.run.pool != nullptr ? ctx.run.profile : nullptr,
                 "rb.wait", /*level=*/-1, ProfScope::kWait);
  group.wait();
}

}  // namespace

sum_t multilevel_bisect(const Graph& g, std::vector<idx_t>& where,
                        const BisectionTargets& targets, const Options& opts,
                        Rng& rng, MlBisectStats* stats, Workspace* ws,
                        const RunContext* parent) {
  const idx_t ct = bisect_coarsen_to(opts, g.ncon);

  const RunContext run =
      parent != nullptr ? *parent : run_context(opts, nullptr, nullptr);
  Seam bisect(run, SeamSpec().span("bisect"), g);

  const Hierarchy h = coarsen_graph(g, coarsen_params(opts, ct, run), rng, ws);

  const Graph& coarsest = h.coarsest();
  if (stats != nullptr) {
    stats->levels = h.num_levels();
    stats->coarsest_nvtxs = coarsest.nvtxs;
  }

  std::vector<idx_t> cwhere;
  init_bisection(coarsest, cwhere, targets, opts.init_scheme,
                 opts.init_trials, opts.queue_policy, rng, run);

  sum_t cut = 0;
  std::vector<idx_t> local_proj;
  std::vector<idx_t>& proj = ws != nullptr ? ws->proj : local_proj;
  // Uncoarsen: levels[l].cmap maps level l to level l+1 (0 = finest).
  for (int l = h.num_levels(); l >= 0; --l) {
    const Graph& cur = h.graph_at(l);
    if (l < h.num_levels()) {
      const std::vector<idx_t>& cmap = h.levels[to_size(l)].cmap;
      {
        Seam project(run, SeamSpec().phase("project").level(l), cur);
        project_partition(cmap, cwhere, proj);
      }
      if (run.audit != nullptr && run.audit->boundaries()) {
        // cwhere still holds the coarse assignment; proj the projection.
        run.audit->check_projection(cur, h.graph_at(l + 1), cmap, cwhere,
                                    proj, "rb.uncoarsen");
      }
      std::swap(cwhere, proj);  // ping-pong: both buffers stay warm
    }
    Seam lvl(run,
             SeamSpec()
                 .span("uncoarsen.level")
                 .phase("refine2way")
                 .level(l)
                 .stage(Seam::Stage::kUncoarsen2Way),
             cur);
    balance_2way(cur, cwhere, targets, rng, run);
    cut = refine_2way(cur, cwhere, targets, opts.queue_policy,
                      opts.refine_passes, opts.fm_move_limit, rng, nullptr,
                      run);
    lvl.cut(cut);
    lvl.close([&] {
      lvl.imbalance(imbalance(cur, cwhere, 2));
      if (lvl.traced()) {
        BisectionBalance bal;
        bal.init(cur, cwhere, targets);
        lvl.args({{"potential", bal.potential()}});
      }
    });
  }

  where = std::move(cwhere);
  ensure_nonempty_sides(g, where);
  cut = compute_cut_2way(g, where);
  if (stats != nullptr) stats->cut = cut;
  bisect.cut(cut);
  bisect.args({{"levels", h.num_levels()},
               {"coarsest_nvtxs", coarsest.nvtxs}});
  return cut;
}

std::vector<idx_t> partition_recursive_bisection(const Graph& g,
                                                 const Options& opts, Rng& rng,
                                                 MlBisectStats* top_stats,
                                                 ThreadPool* pool,
                                                 Profiler* profile) {
  const idx_t k = std::max<idx_t>(opts.nparts, 1);
  std::vector<idx_t> part(to_size(g.nvtxs), 0);
  if (k == 1 || g.nvtxs == 0) return part;

  const std::vector<real_t> ub = opts.tolerances(g.ncon);
  const int depth =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(k))));
  const std::vector<real_t> level_ub = per_bisection_ub(ub, depth);

  std::vector<idx_t> identity(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) identity[to_size(v)] = v;

  std::optional<ThreadPool> local_pool;
  if (pool == nullptr && opts.num_threads > 1) {
    local_pool.emplace(opts.num_threads);
    pool = &*local_pool;
  }

  WorkspacePool wspool;
  const RunContext run = run_context(opts, pool, &wspool, profile);
  const std::uint64_t root_seed = rng.next_u64();
  RbContext ctx{opts, level_ub, part, root_seed, run};
  // The root call fills top_stats from the first (top) bisection's real
  // hierarchy — no separate probe coarsening needed.
  rb_recurse(ctx, g, identity, k, 0, top_stats);

  // Balance fix-up: nested bisection errors multiply, so for large k the
  // assembled k-way partition can land outside the overall tolerance even
  // when every bisection was close to its own target. When that happens,
  // repair with a short greedy k-way refinement, which drains the overload
  // first (cheap, and skipped whenever RB already met the tolerance).
  const std::vector<real_t>* tp = opts.targets();
  if (!kway_feasible(g, part_weights(g, part, k), k, ub, tp)) {
    Seam fixup(run, SeamSpec().phase("rb.fixup"), g);
    fixup.count("rb.fixup");
    kway_refine(g, k, part, ub, /*max_passes=*/3, rng, nullptr, tp, run);
    // Still overloaded: escalate to the dedicated rebalancer. `part` is
    // already thread-invariant here, so determinism holds.
    rebalance_if_infeasible(g, part, ub, rng, opts, run);
  }
  return part;
}

}  // namespace mcgp
