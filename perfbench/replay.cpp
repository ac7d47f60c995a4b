#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/balance2way.hpp"
#include "core/coarsen.hpp"
#include "core/initpart.hpp"
#include "core/kway_refine.hpp"
#include "core/project.hpp"
#include "core/rb_driver.hpp"
#include "core/rebalance.hpp"
#include "core/refine2way.hpp"
#include "graph/graph_ops.hpp"
#include "graph/metrics.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "support/workspace.hpp"

namespace perfbench {

using mcgp::Graph;
using mcgp::idx_t;
using mcgp::Options;
using mcgp::real_t;
using mcgp::Rng;
using mcgp::to_size;

namespace {

using Clock = std::chrono::steady_clock;

/// Times leaf calls into the library and records them in a Trace.
class Tracer {
 public:
  explicit Tracer(Trace& t) : t_(t), start_(Clock::now()) {}

  template <class F>
  decltype(auto) span(Layer layer, int level, F&& f, bool count_call = true) {
    const double t0 = since_start();
    struct Close {
      Tracer& tr;
      Layer layer;
      int level;
      double t0;
      ~Close() { tr.t_.spans.push_back({layer, level, t0, tr.since_start()}); }
    } close{*this, layer, level, t0};
    if (count_call) ++t_.calls[static_cast<std::size_t>(layer)];
    return f();
  }

  void finish() { t_.wall_s = since_start(); }

 private:
  double since_start() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  Trace& t_;
  Clock::time_point start_;
};

std::vector<real_t> tolerances(const Graph& g, const Options& opts) {
  std::vector<real_t> ub(to_size(g.ncon));
  for (int i = 0; i < g.ncon; ++i) ub[to_size(i)] = opts.ub_for(i);
  return ub;
}

const std::vector<real_t>* targets_or_null(const Options& opts) {
  return opts.tpwgts.empty() ? nullptr : &opts.tpwgts;
}

void note_hierarchy(Trace& t, const mcgp::Hierarchy& h) {
  t.coarsen_levels += h.num_levels();
  for (int l = 0; l < h.num_levels(); ++l) {
    t.coarsen_edges += h.graph_at(l).nedges();
    t.coarsen_ratio_sum += static_cast<double>(h.graph_at(l + 1).nvtxs) /
                           static_cast<double>(h.graph_at(l).nvtxs);
  }
}

/// The feasibility gate plus rebalance_partition, as every driver ends.
void gate_and_rebalance(const Graph& g, idx_t k, std::vector<idx_t>& where,
                        const std::vector<real_t>& ub, Rng& rng,
                        const std::vector<real_t>* tp, Tracer& tr, Trace& t) {
  if (mcgp::kway_feasible(g, mcgp::part_weights(g, where, k), k, ub, tp)) {
    return;
  }
  mcgp::RebalanceStats st;
  tr.span(Layer::kRebalance, 0, [&] {
    return mcgp::rebalance_partition(g, k, where, ub, rng, tp, &st);
  });
  t.reb_episodes += st.episodes;
  t.reb_vcycles += st.vcycles;
  t.reb_moves += st.moves;
  t.reb_swaps += st.swaps;
  t.reb_feasible += st.feasible ? 1 : 0;
}

/// What partition()/refine_partition() compute after the drivers return
/// (fill_quality); replayed so the replay's wall covers the same work.
void recompute_quality(const Graph& g, const std::vector<idx_t>& part,
                       idx_t k, const std::vector<real_t>& ub,
                       const std::vector<real_t>* tp) {
  volatile mcgp::sum_t cut = mcgp::edge_cut(g, part);
  volatile real_t lb = mcgp::max_imbalance(g, part, k);
  volatile bool feasible =
      mcgp::kway_feasible(g, mcgp::part_weights(g, part, k), k, ub, tp);
  (void)cut;
  (void)lb;
  (void)feasible;
}

// ---- MC-RB (core/rb_driver.cpp), serial ----------------------------------

struct RbReplay {
  const Options& opts;
  std::vector<real_t> level_ub;
  std::vector<idx_t>& out_part;
  std::uint64_t root_seed;
  mcgp::WorkspacePool& wspool;
  Tracer& tr;
  Trace& t;

  /// multilevel_bisect: coarsen, initial bisection, then per level
  /// projection, 2-way balancing and FM refinement.
  void bisect(const Graph& g, std::vector<idx_t>& where,
              const mcgp::BisectionTargets& targets, Rng& rng,
              mcgp::Workspace& ws) {
    mcgp::CoarsenParams cp;
    cp.coarsen_to = opts.coarsen_to > 0
                        ? opts.coarsen_to
                        : std::max<idx_t>(100, 30 * g.ncon);
    cp.scheme = opts.matching;
    cp.min_reduction = opts.min_coarsen_reduction;
    cp.wspool = &wspool;
    const mcgp::Hierarchy h = tr.span(Layer::kCoarsen, 0, [&] {
      return mcgp::coarsen_graph(g, cp, rng, &ws);
    });
    note_hierarchy(t, h);

    std::vector<idx_t> cwhere;
    tr.span(Layer::kInitpart, h.num_levels(), [&] {
      return mcgp::init_bisection(h.coarsest(), cwhere, targets,
                                  opts.init_scheme, opts.init_trials,
                                  opts.queue_policy, rng);
    });
    t.init_coarsest_nvtxs += h.coarsest().nvtxs;

    std::vector<idx_t>& proj = ws.proj;
    for (int l = h.num_levels(); l >= 0; --l) {
      const Graph& cur = h.graph_at(l);
      if (l < h.num_levels()) {
        tr.span(Layer::kProject, l, [&] {
          mcgp::project_partition(h.levels[to_size(l)].cmap, cwhere, proj);
        });
        std::swap(cwhere, proj);
      }
      tr.span(Layer::kBalance2way, l, [&] {
        return mcgp::balance_2way(cur, cwhere, targets, rng);
      });
      mcgp::Refine2WayStats st;
      tr.span(Layer::kRefine2way, l, [&] {
        return mcgp::refine_2way(cur, cwhere, targets, opts.queue_policy,
                                 opts.refine_passes, opts.fm_move_limit, rng,
                                 &st);
      });
      t.fm_passes += st.passes;
      t.fm_moves += st.moves;
    }
    where = std::move(cwhere);
    volatile mcgp::sum_t cut = mcgp::compute_cut_2way(g, where);
    (void)cut;
  }

  /// rb_recurse with the pool absent: side 1 runs before side 0, as an
  /// inline TaskGroup runs it.
  void recurse(const Graph& sub, const std::vector<idx_t>& local_to_global,
               idx_t k, idx_t part0) {
    if (sub.nvtxs == 0) return;
    if (k <= 1) {
      for (const idx_t gv : local_to_global) out_part[to_size(gv)] = part0;
      return;
    }
    if (k >= sub.nvtxs) {
      for (idx_t v = 0; v < sub.nvtxs; ++v) {
        out_part[to_size(local_to_global[to_size(v)])] = part0 + (v % k);
      }
      return;
    }
    Rng rng(mcgp::mix_seed(
        mcgp::mix_seed(root_seed, static_cast<std::uint64_t>(part0)),
        static_cast<std::uint64_t>(k)));
    const idx_t k_left = (k + 1) / 2;
    mcgp::BisectionTargets targets;
    targets.f0 = static_cast<real_t>(k_left) / static_cast<real_t>(k);
    targets.ub = level_ub;

    Graph half[2];
    std::vector<idx_t> half_to_global[2];
    {
      mcgp::WorkspacePool::Lease lease = wspool.acquire();
      mcgp::Workspace& ws = *lease;
      std::vector<idx_t> where;
      bisect(sub, where, targets, rng, ws);
      std::vector<char>& select = ws.select;
      select.assign(to_size(sub.nvtxs), 0);
      for (int side = 0; side < 2; ++side) {
        for (idx_t v = 0; v < sub.nvtxs; ++v) {
          select[to_size(v)] = where[to_size(v)] == side ? 1 : 0;
        }
        std::vector<idx_t> sub_to_parent;
        half[side] = tr.span(Layer::kRbSplit, 0, [&] {
          return mcgp::induced_subgraph(sub, select, sub_to_parent, &ws);
        });
        half_to_global[side].resize(sub_to_parent.size());
        for (std::size_t i = 0; i < sub_to_parent.size(); ++i) {
          half_to_global[side][i] =
              local_to_global[to_size(sub_to_parent[i])];
        }
      }
    }
    recurse(half[1], half_to_global[1], k - k_left, part0 + k_left);
    recurse(half[0], half_to_global[0], k_left, part0);
  }
};

std::vector<idx_t> replay_rb(const Graph& g, const Options& opts, Rng& rng,
                             Tracer& tr, Trace& t) {
  const idx_t k = std::max<idx_t>(opts.nparts, 1);
  std::vector<idx_t> part(to_size(g.nvtxs), 0);
  if (k == 1 || g.nvtxs == 0) return part;
  const std::vector<real_t> ub = tolerances(g, opts);
  const int depth =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(k))));
  std::vector<idx_t> identity(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) identity[to_size(v)] = v;

  mcgp::WorkspacePool wspool;
  RbReplay rb{opts, mcgp::per_bisection_ub(ub, depth), part, rng.next_u64(),
              wspool, tr, t};
  rb.recurse(g, identity, k, 0);

  // Balance fix-up of the assembled k-way partition.
  const std::vector<real_t>* tp = targets_or_null(opts);
  if (!mcgp::kway_feasible(g, mcgp::part_weights(g, part, k), k, ub, tp)) {
    tr.span(
        Layer::kKwayRefine, 0,
        [&] { return mcgp::kway_balance(g, k, part, ub, rng, tp); },
        /*count_call=*/false);
    mcgp::KWayExec kexec;
    kexec.wspool = &wspool;
    kexec.level = 0;
    mcgp::KWayRefineStats st;
    tr.span(Layer::kKwayRefine, 0, [&] {
      return mcgp::kway_refine(g, k, part, ub, /*max_passes=*/3, rng, &st,
                               tp, nullptr, nullptr, nullptr, &kexec);
    });
    t.kway_passes += st.passes;
    t.kway_moves += st.moves;
    gate_and_rebalance(g, k, part, ub, rng, tp, tr, t);
  }
  return part;
}

// ---- MC-KW (core/kway_driver.cpp) ----------------------------------------

std::vector<idx_t> replay_kway(const Graph& g, const Options& opts, Rng& rng,
                               mcgp::ThreadPool* pool, Tracer& tr, Trace& t) {
  const idx_t k = std::max<idx_t>(opts.nparts, 1);
  if (k == 1 || g.nvtxs == 0) return std::vector<idx_t>(to_size(g.nvtxs), 0);

  mcgp::WorkspacePool wspool;
  mcgp::Hierarchy h;
  {
    mcgp::WorkspacePool::Lease ws = wspool.acquire();
    mcgp::CoarsenParams cp;
    cp.coarsen_to =
        opts.coarsen_to > 0
            ? opts.coarsen_to
            : std::max<idx_t>({30 * k, 40 * g.ncon, 200,
                               std::min<idx_t>(g.nvtxs / 8, 3000)});
    cp.scheme = opts.matching;
    cp.min_reduction = opts.min_coarsen_reduction;
    cp.pool = pool;
    cp.wspool = &wspool;
    cp.coarsen_to = std::max<idx_t>(cp.coarsen_to, 4 * k);
    h = tr.span(Layer::kCoarsen, 0, [&] {
      return mcgp::coarsen_graph(g, cp, rng, ws.get());
    });
  }
  note_hierarchy(t, h);

  Options init_opts = opts;
  init_opts.nparts = k;
  init_opts.coarsen_to = 0;
  init_opts.ubvec.resize(to_size(g.ncon));
  for (int i = 0; i < g.ncon; ++i) {
    init_opts.ubvec[to_size(i)] =
        std::max<real_t>(1.0 + (opts.ub_for(i) - 1.0) * 0.9, 1.003);
  }
  std::vector<idx_t> cwhere = tr.span(Layer::kInitpart, h.num_levels(), [&] {
    return mcgp::partition_recursive_bisection(h.coarsest(), init_opts, rng,
                                               nullptr, nullptr, pool);
  });
  t.init_coarsest_nvtxs += h.coarsest().nvtxs;

  const std::vector<real_t> ub = tolerances(g, opts);
  const std::vector<real_t>* tp = targets_or_null(opts);
  for (int l = h.num_levels(); l >= 0; --l) {
    const Graph& cur = h.graph_at(l);
    if (l < h.num_levels()) {
      std::vector<idx_t> fine_where;
      tr.span(Layer::kProject, l, [&] {
        mcgp::project_partition(h.levels[to_size(l)].cmap, cwhere,
                                fine_where);
      });
      cwhere = std::move(fine_where);
    }
    const int passes = l == 0 ? opts.kway_passes + 2 : opts.kway_passes;
    mcgp::KWayExec kexec;
    kexec.pool = pool;
    kexec.wspool = &wspool;
    kexec.level = l;
    mcgp::KWayRefineStats st;
    tr.span(Layer::kKwayRefine, l, [&] {
      return mcgp::kway_refine(cur, k, cwhere, ub, passes, rng, &st, tp,
                               nullptr, nullptr, nullptr, &kexec);
    });
    t.kway_passes += st.passes;
    t.kway_moves += st.moves;
  }
  gate_and_rebalance(g, k, cwhere, ub, rng, tp, tr, t);
  return cwhere;
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kCoarsen: return "coarsen";
    case Layer::kInitpart: return "initpart";
    case Layer::kBalance2way: return "balance2way";
    case Layer::kRefine2way: return "refine2way";
    case Layer::kProject: return "project";
    case Layer::kRbSplit: return "rb_split";
    case Layer::kKwayRefine: return "kway_refine";
    case Layer::kRebalance: return "rebalance";
    case Layer::kCount: break;
  }
  return "?";
}

double Trace::self_s(Layer l) const {
  double s = 0.0;
  for (const Span& sp : spans) {
    if (sp.layer == l) s += sp.t1 - sp.t0;
  }
  return s;
}

double Trace::self_s_at_level0(Layer l) const {
  double s = 0.0;
  for (const Span& sp : spans) {
    if (sp.layer == l && sp.level == 0) s += sp.t1 - sp.t0;
  }
  return s;
}

double Trace::unattributed_s() const {
  double s = wall_s;
  for (const Span& sp : spans) s -= sp.t1 - sp.t0;
  return s;
}

Replay replay_partition(const Graph& g, const Options& run_opts) {
  Replay r;
  Tracer tr(r.trace);
  Options opts = run_opts;
  opts.ubvec = mcgp::effective_ubvec(g, opts);
  Rng rng(opts.seed);
  std::optional<mcgp::ThreadPool> pool;
  if (opts.num_threads > 1) pool.emplace(opts.num_threads);
  r.part = opts.algorithm == mcgp::Algorithm::kKWay
               ? replay_kway(g, opts, rng, pool ? &*pool : nullptr, tr,
                             r.trace)
               : replay_rb(g, opts, rng, tr, r.trace);
  recompute_quality(g, r.part, opts.nparts, tolerances(g, opts),
                    targets_or_null(opts));
  tr.finish();
  return r;
}

Replay replay_refine(const Graph& g, std::vector<idx_t> part,
                     const Options& run_opts) {
  Replay r;
  Tracer tr(r.trace);
  if (!mcgp::validate_partition(g, part, run_opts.nparts).empty()) {
    throw std::invalid_argument("replay: invalid start partition");
  }
  Options opts = run_opts;
  opts.ubvec = mcgp::effective_ubvec(g, opts);
  Rng rng(opts.seed);
  std::optional<mcgp::ThreadPool> pool;
  if (opts.num_threads > 1) pool.emplace(opts.num_threads);
  mcgp::WorkspacePool wspool;
  const std::vector<real_t> ub = tolerances(g, opts);
  const std::vector<real_t>* tp = targets_or_null(opts);

  mcgp::KWayExec kexec;
  kexec.pool = pool ? &*pool : nullptr;
  kexec.wspool = &wspool;
  kexec.level = 0;
  mcgp::KWayRefineStats st;
  tr.span(Layer::kKwayRefine, 0, [&] {
    return mcgp::kway_refine(g, opts.nparts, part, ub, opts.kway_passes, rng,
                             &st, tp, nullptr, nullptr, nullptr, &kexec);
  });
  r.trace.kway_passes += st.passes;
  r.trace.kway_moves += st.moves;
  gate_and_rebalance(g, opts.nparts, part, ub, rng, tp, tr, r.trace);

  r.part = std::move(part);
  recompute_quality(g, r.part, opts.nparts, ub, tp);
  tr.finish();
  return r;
}

std::string spans_json(const Trace& t, const std::string& label) {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"replay\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                "\"ts\":0,\"dur\":%.3f,\"args\":{\"workload\":\"%s\"}}",
                t.wall_s * 1e6, label.c_str());
  out += buf;
  for (const Span& sp : t.spans) {
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"level\":%d,"
                  "\"parent\":\"replay\"}}",
                  layer_name(sp.layer), sp.t0 * 1e6, (sp.t1 - sp.t0) * 1e6,
                  sp.level);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
