#include "core/kway_refine.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/audit.hpp"
#include "core/kway_boundary.hpp"
#include "core/kway_context.hpp"
#include "graph/metrics.hpp"
#include "support/bucket_queue.hpp"
#include "support/check.hpp"
#include "support/indexed_heap.hpp"
#include "support/profiler.hpp"
#include "support/thread_pool.hpp"
#include "support/workspace.hpp"

namespace mcgp {

bool kway_feasible(const Graph& g, const std::vector<sum_t>& pwgts,
                   idx_t nparts, const std::vector<real_t>& ub,
                   const std::vector<real_t>* tpwgts) {
  for (int i = 0; i < g.ncon; ++i) {
    if (g.tvwgt[to_size(i)] <= 0) continue;
    for (idx_t p = 0; p < nparts; ++p) {
      const real_t frac = tpwgts != nullptr
                              ? (*tpwgts)[to_size(p)]
                              : 1.0 / static_cast<real_t>(nparts);
      const real_t limit =
          ub[to_size(i)] * frac *
          static_cast<real_t>(g.tvwgt[to_size(i)]);
      if (static_cast<real_t>(pwgts[to_size(p) * to_size(g.ncon) + to_size(i)]) >
          limit + 1e-9) {
        return false;
      }
    }
  }
  return true;
}

namespace {

// The shared bookkeeping (part weights, counts, limits, connectivity
// scratch) lives in core/kway_context.hpp so the rebalancer can reuse it.

/// Greedy vertex coloring in ascending id order: each vertex takes the
/// smallest color absent among its already-colored neighbors. Adjacent
/// vertices never share a color, so same-color boundary vertices cannot
/// affect each other's connectivity — the independence the colored sweep's
/// concurrent propose phase rests on. Deterministic by construction.
std::vector<idx_t> color_graph(const Graph& g) {
  std::vector<idx_t> color(to_size(g.nvtxs), -1);
  std::vector<idx_t> used;  // used[c] == v iff c is taken next to v
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      const idx_t cu = color[to_size(g.adjncy[to_size(e)])];
      if (cu < 0) continue;
      if (to_size(cu) >= used.size()) used.resize(to_size(cu) + 1, -1);
      used[to_size(cu)] = v;
    }
    idx_t c = 0;
    while (to_size(c) < used.size() && used[to_size(c)] == v) ++c;
    color[to_size(v)] = c;
  }
  return color;
}

/// Best admissible move of v under the sweep rules, evaluated against the
/// (frozen) context state using caller-owned connectivity scratch. Pure
/// per-vertex function of that state: concurrent evaluation over any
/// chunking yields identical proposals. `load`, when non-null, holds
/// ctx.part_load(p) for every part as of that frozen state; null reads the
/// live loads. Returns false when no part's connectivity reaches v's
/// internal degree: then v has no move of non-negative gain whatever the
/// loads are, and dest is -1.
bool propose_move(const KWayContext& ctx, const std::vector<idx_t>& where,
                  idx_t v, const real_t* load, std::vector<sum_t>& conn,
                  std::vector<idx_t>& touched, idx_t& dest, sum_t& gain) {
  dest = -1;
  gain = 0;
  const idx_t own = where[to_size(v)];
  if (!ctx.can_leave(own)) return true;
  const sum_t idw = ctx.gather_connectivity_into(v, conn, touched);
  auto load_of = [&](idx_t p) {
    return load != nullptr ? load[to_size(p)] : ctx.part_load(p);
  };
  bool reachable = false;
  real_t best_load = 0.0;
  for (const idx_t p : touched) {
    const sum_t g2 = checked_sub(conn[to_size(p)], idw);
    if (g2 < 0) continue;
    reachable = true;
    if (!ctx.fits(v, p)) continue;
    const real_t pl = load_of(p);
    // Prefer higher gain; among equal gains prefer the lighter part.
    if (dest < 0 || g2 > gain || (g2 == gain && pl < best_load)) {
      dest = p;
      gain = g2;
      best_load = pl;
    }
  }
  if (dest < 0) return reachable;
  // Zero-gain moves are only worthwhile when they shift weight from a
  // more loaded part to a less loaded one.
  if (gain == 0 && best_load >= load_of(own) - 1e-12) dest = -1;
  return true;
}

/// What one refinement pass did.
struct PassResult {
  idx_t moves = 0;
  sum_t gain = 0;      ///< total cut improvement of the moves
  idx_t proposed = 0;  ///< vertices whose best move was evaluated
  idx_t skipped = 0;   ///< dead candidates left unevaluated
  idx_t widest_class = 0;  ///< most candidates one color class proposed
};

/// One candidate's proposal; `key` orders the commits.
struct Proposal {
  std::uint64_t key = 0;  ///< mix_seed(pass seed, v), set once dest >= 0
  idx_t v = -1;
  idx_t dest = -1;
  sum_t gain = 0;
};

/// Colored-sweep state that lives across the passes of one kway_refine()
/// call: the coloring (the graph is static, so one serves every pass), the
/// maintained boundary, degrees and dead marks, and scratch reused by
/// every pass.
struct SweepState {
  SweepState(const Graph& g, const std::vector<idx_t>& where,
             ThreadPool* pool)
      : color(color_graph(g)), bnd(g, where, color, pool) {}

  std::vector<idx_t> color;
  KWayBoundary bnd;
  std::vector<Proposal> props;  ///< the current class's candidates
  std::vector<real_t> load;     ///< part loads frozen at the class's start
};

/// One cut-driven colored sweep over the boundary as it stands at the
/// pass's start (vertices that join it during the pass wait for the next
/// one). Boundary vertices are visited color class by color class. At a
/// class's start, the members that could move — their part can spare a
/// vertex, their external degree reaches their internal one (the class's
/// movable list) and they are not marked dead — become the candidates.
/// Every other member would propose nothing, so leaving it out changes no
/// move. The proposals are computed from the state frozen at the class's
/// start (concurrently when `run` has a pool — class members are pairwise
/// non-adjacent, so proposals cannot interact); a candidate found to have
/// no part reaching its internal degree is marked dead. The proposals with
/// a destination are then sorted by the per-pass hash of their vertex and
/// committed serially in that order, re-validating can_leave/fits/zero-
/// gain-balance against the live weights. Only proposals with a
/// destination can commit, so sorting just those gives the commit
/// sequence a sort of every candidate would. A proposal's GAIN needs no
/// re-validation: only same-class commits intervene and none of them is
/// adjacent to the proposer, so its connectivity is unchanged — which
/// keeps the paranoid cut-delta audit exact.
PassResult colored_sweep(KWayContext& ctx, const std::vector<idx_t>& where,
                         SweepState& st, Rng& rng, const RunContext& run) {
  // One draw per pass: every ordering decision below derives from it by
  // vertex id, independent of threads and chunking.
  const std::uint64_t pass_seed = rng.next_u64();

  st.bnd.begin_pass();

  PassResult res;
  for (idx_t c = 0; c < st.bnd.ncolors(); ++c) {
    st.props.clear();
    for (const idx_t v : st.bnd.movable(c)) {
      if (!st.bnd.was_on_boundary(v) || !ctx.can_leave(where[to_size(v)])) {
        continue;
      }
      if (st.bnd.dead(v)) {
        ++res.skipped;
        continue;
      }
      st.props.push_back({0, v, -1, 0});
    }
    if (st.props.empty()) continue;
    const idx_t seg_n = static_cast<idx_t>(st.props.size());
    st.load.resize(to_size(ctx.nparts()));
    for (idx_t p = 0; p < ctx.nparts(); ++p) {
      st.load[to_size(p)] = ctx.part_load(p);
    }

    // Propose phase: reads the context frozen as of this class's start;
    // each candidate writes only its own proposal and its own dead mark.
    parallel_chunks(run.pool, seg_n, kSweepChunk, [&](idx_t b, idx_t e) {
      ProfScope aux(run.profile, "kway_refine", run.level, ProfScope::kAux);
      std::vector<sum_t> local_conn;
      std::vector<idx_t> local_touched;
      std::unique_ptr<WorkspacePool::Lease> lease;
      if (run.wspool != nullptr) {
        lease = std::make_unique<WorkspacePool::Lease>(run.wspool->acquire());
      }
      std::vector<sum_t>& conn = lease != nullptr ? (*lease)->kconn
                                                  : local_conn;
      std::vector<idx_t>& touched = lease != nullptr ? (*lease)->ktouched
                                                     : local_touched;
      // A pooled buffer may carry another task's touched parts; start from
      // the all-zero state the sparse-reset discipline expects.
      conn.assign(to_size(ctx.nparts()), 0);
      touched.clear();
      for (idx_t i = b; i < e; ++i) {
        Proposal& pr = st.props[to_size(i)];
        if (!propose_move(ctx, where, pr.v, st.load.data(), conn, touched,
                          pr.dest, pr.gain)) {
          st.bnd.mark_dead(pr.v);
        }
      }
    });
    res.proposed += seg_n;
    res.widest_class = std::max(res.widest_class, seg_n);

    // Commit order: the would-be moves by (per-pass hash, id) — the
    // parallel replacement for the serial sweep's rng shuffle.
    std::erase_if(st.props, [](const Proposal& pr) { return pr.dest < 0; });
    for (Proposal& pr : st.props) {
      pr.key = mix_seed(pass_seed, static_cast<std::uint64_t>(pr.v));
    }
    std::sort(st.props.begin(), st.props.end(),
              [](const Proposal& a, const Proposal& b) {
                return a.key != b.key ? a.key < b.key : a.v < b.v;
              });

    // Commit phase: serial, in that order, against the live state
    // (earlier commits of THIS class shift weights and counts).
    for (const Proposal& m : st.props) {
      const idx_t own = where[to_size(m.v)];
      if (!ctx.can_leave(own)) continue;
      if (!ctx.fits(m.v, m.dest)) continue;
      if (m.gain == 0 &&
          ctx.part_load(m.dest) >= ctx.part_load(own) - 1e-12) {
        continue;
      }
      ctx.move(m.v, m.dest);
      st.bnd.moved(m.v, own);
      res.gain = checked_add(res.gain, m.gain);
      ++res.moves;
    }
  }
  return res;
}

constexpr real_t kEps = 1e-12;

/// Relief-ordered key of moving v out of its part: cut gain per unit of
/// weight removed in the drained constraint c, so cheap cut damage and
/// large relief come first. `ed_id` is v's external minus internal
/// degree, the cut gain of moving v out.
real_t relief_key(const Graph& g, idx_t v, int c, sum_t ed_id) {
  return static_cast<real_t>(ed_id) /
         static_cast<real_t>(std::max<wgt_t>(g.weight(v, c), 1));
}

/// External minus internal degree of every vertex under `where`.
std::vector<sum_t> degree_gains(const Graph& g,
                                const std::vector<idx_t>& where) {
  std::vector<sum_t> ed_id(to_size(g.nvtxs), 0);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t pv = where[to_size(v)];
    sum_t d = 0;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      d = where[to_size(g.adjncy[to_size(e)])] == pv
              ? checked_sub(d, g.adjwgt[to_size(e)])
              : checked_add(d, g.adjwgt[to_size(e)]);
    }
    ed_id[to_size(v)] = d;
  }
  return ed_id;
}

/// Keep `ed_id` exact after v moved from part q to part `to`: an edge to
/// q turned from internal to external at both ends, an edge to `to` the
/// other way, and every other edge stays external. O(deg v).
void update_degree_gains(const Graph& g, const std::vector<idx_t>& where,
                         idx_t v, idx_t q, idx_t to,
                         std::vector<sum_t>& ed_id) {
  for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
    const idx_t u = g.adjncy[to_size(e)];
    const idx_t pu = where[to_size(u)];
    if (pu != q && pu != to) continue;
    const sum_t w2 = checked_mul(2, g.adjwgt[to_size(e)]);
    const sum_t d = pu == q ? w2 : checked_sub(0, w2);
    ed_id[to_size(u)] = checked_add(ed_id[to_size(u)], d);
    ed_id[to_size(v)] = checked_add(ed_id[to_size(v)], d);
  }
}

/// One pass over `load` (part_load by part): the global peak, the largest
/// load, and the least loaded part other than q, the smallest id within
/// kEps (-1 when q is the only part).
void peak_and_lightest(const std::vector<real_t>& load, idx_t q, real_t& peak,
                       idx_t& lightest) {
  peak = 0.0;
  lightest = -1;
  real_t lightest_load = 1e300;
  for (idx_t p = 0; p < static_cast<idx_t>(load.size()); ++p) {
    const real_t l = load[to_size(p)];
    peak = std::max(peak, l);
    if (p != q && l < lightest_load - kEps) {
      lightest_load = l;
      lightest = p;
    }
  }
}

/// Best destination for moving v out of q, among the parts v's gathered
/// connectivity touches and `lightest` (relief matters more than locality
/// here, so it is a candidate even without an edge into it): a part where
/// v outright fits, or failing that one whose post-move load stays
/// strictly below the global `peak`. Strict fits-only acceptance would
/// deadlock when every part with slack in one constraint is overloaded in
/// another (complementary overloads, common after a granular coarse-level
/// initial partition). Among admissible parts: fits > cut gain > lower
/// post-move load > smaller id. Returns -1 when none is.
idx_t pick_destination(const KWayContext& ctx, idx_t v, idx_t q, sum_t idw,
                       real_t peak, idx_t lightest) {
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
  consider(lightest);
  return best;
}

/// One priority-queue pass: boundary vertices keyed by their optimistic
/// gain (best neighbor connectivity minus internal degree). Each popped
/// vertex takes its best admissible move under the sweep rules.
PassResult pq_pass(const Graph& g, KWayContext& ctx,
                   const std::vector<idx_t>& where, BucketQueue& queue,
                   Rng& rng) {
  queue.reset(g.nvtxs);
  std::vector<char> popped(to_size(g.nvtxs), 0);
  for (const idx_t v : ctx.boundary(rng)) {
    const sum_t idw = ctx.gather_connectivity(v);
    sum_t best_conn = 0;
    for (const idx_t p : ctx.touched()) best_conn = std::max(best_conn, ctx.conn(p));
    queue.insert(v, checked_narrow<wgt_t>(checked_sub(best_conn, idw)));
  }

  std::vector<sum_t> conn(to_size(ctx.nparts()), 0);
  std::vector<idx_t> touched;
  PassResult res;
  while (!queue.empty()) {
    const idx_t v = queue.pop_max();
    popped[to_size(v)] = 1;  // each vertex moves at most once per pass
    idx_t dest;
    sum_t gain;
    propose_move(ctx, where, v, nullptr, conn, touched, dest, gain);
    ++res.proposed;
    if (dest < 0) continue;
    ctx.move(v, dest);
    res.gain = checked_add(res.gain, gain);
    ++res.moves;
    // Refresh the optimistic keys of v's unpopped neighbors; insert
    // neighbors that just became boundary vertices, drop ones that left it.
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      const idx_t u = g.adjncy[to_size(e)];
      if (popped[to_size(u)]) continue;
      const sum_t idw = ctx.gather_connectivity(u);
      sum_t best_conn = 0;
      for (const idx_t p : ctx.touched()) {
        best_conn = std::max(best_conn, ctx.conn(p));
      }
      const bool on_boundary = !ctx.touched().empty();
      if (queue.contains(u)) {
        if (on_boundary) {
          queue.update(u, checked_narrow<wgt_t>(checked_sub(best_conn, idw)));
        } else {
          queue.remove(u);
        }
      } else if (on_boundary) {
        queue.insert(u, checked_narrow<wgt_t>(checked_sub(best_conn, idw)));
      }
    }
  }
  return res;
}

void balance_if_infeasible(const Graph& g, KWayContext& ctx, idx_t nparts,
                           std::vector<idx_t>& where,
                           const std::vector<real_t>& ub, Rng& rng,
                           const std::vector<real_t>* tpwgts,
                           const RunContext& run) {
  if (ctx.feasible()) return;
  kway_balance(g, nparts, where, ub, rng, tpwgts, run);
  ctx.reload();
}

/// The pass loop both refiners share, from a balanced start to the final
/// cut. Runs `pass(rng)` until the cut stops improving (zero-gain balance
/// jiggling alone is not progress), bounded by a generous multiple of the
/// configured pass count as a safety net against oscillation, then
/// balances again if the passes could not keep the partition feasible.
/// `pass_site` names every pass's audits, `site` the finished refinement's.
template <class Pass>
sum_t run_passes(const Graph& g, KWayContext& ctx, idx_t nparts,
                 std::vector<idx_t>& where, const std::vector<real_t>& ub,
                 int max_passes, Rng& rng, KWayRefineStats* stats,
                 const std::vector<real_t>* tpwgts, const RunContext& run,
                 const char* pass_site, const char* site, Pass&& pass) {
  const bool delta_audit = run.audit != nullptr && run.audit->paranoid();
  const int pass_cap = 4 * max_passes;
  for (int p = 0; p < pass_cap; ++p) {
    Seam seam(run, SeamSpec().span("kway.pass").stage(Seam::Stage::kKWayPass),
              g);
    const sum_t cut_before = delta_audit ? edge_cut(g, where) : 0;
    const PassResult r = pass(rng);
    if (delta_audit) {
      // Every accepted move's gain was exact at commit time, so the sum
      // must account for the pass's cut change to the last unit.
      run.audit->check_cut_delta(cut_before, r.gain, edge_cut(g, where),
                                 pass_site);
      run.audit->check_kway_state(g, where, nparts, ctx.pwgts(),
                                  &ctx.vcounts(), pass_site);
    }
    if (stats != nullptr) {
      ++stats->passes;
      stats->moves += r.moves;
      stats->proposed += r.proposed;
      stats->skipped += r.skipped;
      stats->widest_class = std::max(stats->widest_class, r.widest_class);
    }
    seam.close([&] {
      seam.pass(p).moves(r.moves);
      seam.args({{"proposed", r.proposed}, {"skipped", r.skipped}});
      seam.gain(r.gain).worst_imbalance(ctx.max_overload());
      seam.count("kway.passes");
      seam.count("kway.moves", r.moves);
      seam.count("kway.proposed", r.proposed);
      seam.count("kway.skipped", r.skipped);
    });
    if (r.moves == 0 || (r.gain == 0 && p + 1 >= max_passes)) break;
  }

  if (run.audit != nullptr && run.audit->boundaries()) {
    run.audit->check_kway_state(g, where, nparts, ctx.pwgts(), &ctx.vcounts(),
                                site);
  }
  balance_if_infeasible(g, ctx, nparts, where, ub, rng, tpwgts, run);

  const sum_t cut = edge_cut(g, where);
  if (stats != nullptr) {
    stats->final_cut = cut;
    stats->feasible = ctx.feasible();
  }
  return cut;
}

}  // namespace

DrainStats drain_peaks(KWayContext& ctx, const RunContext& run) {
  const Graph& g = ctx.graph();
  const std::vector<idx_t>& where = ctx.where();
  // Each episode drains the current peak, so the PeakState improves while
  // episodes make progress; the loop stops at the first episode that does
  // not improve it. The caps backstop that check, so a tight instance
  // terminates even if the peak creeps down by epsilon steps.
  const int max_episodes = 16 * g.ncon * std::max<idx_t>(ctx.nparts(), 2);
  const sum_t move_cap =
      checked_mul(static_cast<sum_t>(8),
                  static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
  const bool paranoid = run.audit != nullptr && run.audit->paranoid();
  DrainStats st;
  KeyedMaxHeap heap;
  std::vector<char> requeued(to_size(g.nvtxs), 0);
  std::vector<idx_t> requeued_list;  // the vertices to clear after an episode
  // part_load by part. A commit changes only its two parts' loads, so the
  // global peak (the largest load) and the lightest part are recomputed
  // from this table only after one.
  std::vector<real_t> load(to_size(ctx.nparts()));
  for (idx_t p = 0; p < ctx.nparts(); ++p) load[to_size(p)] = ctx.part_load(p);
  // ed - id per vertex, the numerator of every relief key. Built at the
  // first episode and kept exact by every drain move, so keying a member
  // costs no connectivity gather.
  std::vector<sum_t> ed_id;
  KWayContext::PeakState prev = ctx.peak_state();
  for (int ep = 0; ep < max_episodes; ++ep) {
    idx_t q;
    int c;
    if (!ctx.overload_peak(q, c)) {
      st.stop = "feasible";
      break;
    }
    if (st.moves >= move_cap) {
      st.stop = "move_cap";
      break;
    }
    if (ed_id.empty()) ed_id = degree_gains(g, where);

    const std::vector<idx_t>& members = ctx.members(q);
    st.scanned = checked_add(st.scanned, static_cast<sum_t>(members.size()));
    for (const idx_t v : members) {
      if (g.weight(v, c) > 0) {
        heap.insert(v, relief_key(g, v, c, ed_id[to_size(v)]));
      }
    }

    real_t peak = 0.0;
    idx_t lightest = -1;
    bool stale = true;
    idx_t ep_moves = 0;
    while (!heap.empty()) {
      if (ctx.overload(q, c) <= 1.0 + kEps) break;
      if (!ctx.can_leave(q)) break;
      const real_t popped_key = heap.top_key();
      const idx_t v = heap.pop_max();
      // Lazy revalidation: earlier moves shifted v's neighborhood. If the
      // fresh key lost its place at the top, requeue once and move on —
      // the one-requeue guard keeps the episode linear.
      const real_t fresh = relief_key(g, v, c, ed_id[to_size(v)]);
      if (requeued[to_size(v)] == 0 && fresh < popped_key - 1e-9 &&
          !heap.empty() && fresh < heap.top_key()) {
        requeued[to_size(v)] = 1;
        requeued_list.push_back(v);
        heap.insert(v, fresh);
        continue;
      }
      if (stale) {
        peak_and_lightest(load, q, peak, lightest);
        stale = false;
      }
      const sum_t idw = ctx.gather_connectivity(v);
      const idx_t dest = pick_destination(ctx, v, q, idw, peak, lightest);
      if (dest < 0) continue;
      ctx.move(v, dest);
      update_degree_gains(g, where, v, q, dest, ed_id);
      load[to_size(q)] = ctx.part_load(q);
      load[to_size(dest)] = ctx.part_load(dest);
      stale = true;
      ++ep_moves;
    }
    heap.clear();
    for (const idx_t v : requeued_list) requeued[to_size(v)] = 0;
    requeued_list.clear();
    if (paranoid) run.audit->check_drain_degrees(g, where, ed_id, "kway.drain");

    if (ep_moves == 0) {
      st.stop = "no_moves";
      break;
    }
    st.moves = checked_add(st.moves, static_cast<sum_t>(ep_moves));
    ++st.episodes;
    const KWayContext::PeakState cur = ctx.peak_state();
    if (!cur.improves_on(prev)) {
      st.stop = "no_progress";
      break;
    }
    prev = cur;
  }
  return st;
}

bool kway_balance(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                  const std::vector<real_t>& ub, Rng& /*rng*/,
                  const std::vector<real_t>* tpwgts, const RunContext& run) {
  KWayContext ctx(g, nparts, where, ub, tpwgts);
  if (ctx.feasible()) return true;

  Seam seam(run, SeamSpec().span("kway.balance"), g);
  const DrainStats d = drain_peaks(ctx, run);

  // The drain mutated pwgts/vcount incrementally across many moves.
  if (run.audit != nullptr && run.audit->boundaries()) {
    run.audit->check_kway_state(g, where, nparts, ctx.pwgts(), &ctx.vcounts(),
                                "kway.balance");
  }

  const bool ok = ctx.feasible();
  seam.close([&] {
    seam.moves(d.moves).worst_imbalance(ctx.max_overload()).feasible(ok);
    seam.args({{"episodes", d.episodes}, {"scanned", d.scanned}});
    seam.count("kway.balance.moves", d.moves);
    seam.count("kway.balance.episodes", d.episodes);
    seam.count("kway.balance.scanned", d.scanned);
    // Why the drain stopped, so tight instances are diagnosable from
    // counters alone.
    seam.count("kway.balance.bail." + std::string(ok ? "feasible" : d.stop));
  });
  return ok;
}

sum_t kway_refine(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                  const std::vector<real_t>& ub, int max_passes, Rng& rng,
                  KWayRefineStats* stats, const std::vector<real_t>* tpwgts,
                  const RunContext& run) {
  KWayContext ctx(g, nparts, where, ub, tpwgts);
  balance_if_infeasible(g, ctx, nparts, where, ub, rng, tpwgts, run);

  SweepState st(g, where, run.pool);
  const bool paranoid = run.audit != nullptr && run.audit->paranoid();
  return run_passes(g, ctx, nparts, where, ub, max_passes, rng, stats, tpwgts,
                    run, "kway.sweep", "kway.refine", [&](Rng& r) {
                      const PassResult res =
                          colored_sweep(ctx, where, st, r, run);
                      if (paranoid) {
                        run.audit->check_kway_boundary(g, where, st.bnd,
                                                       "kway.sweep");
                      }
                      return res;
                    });
}

sum_t kway_refine(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                  const std::vector<real_t>& ub, int max_passes, Rng& rng,
                  KWayRefineStats* stats, const std::vector<real_t>* tpwgts,
                  TraceRecorder* trace, InvariantAuditor* audit,
                  FlightRecorder* flight, const KWayExec* exec) {
  RunContext run = exec != nullptr ? *exec : RunContext{};
  run.trace = trace;
  run.audit = audit;
  run.flight = flight;
  return kway_refine(g, nparts, where, ub, max_passes, rng, stats, tpwgts,
                     run);
}

sum_t kway_refine_pq(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                     const std::vector<real_t>& ub, int max_passes, Rng& rng,
                     KWayRefineStats* stats,
                     const std::vector<real_t>* tpwgts,
                     const RunContext& run) {
  KWayContext ctx(g, nparts, where, ub, tpwgts);
  balance_if_infeasible(g, ctx, nparts, where, ub, rng, tpwgts, run);

  BucketQueue queue;
  return run_passes(g, ctx, nparts, where, ub, max_passes, rng, stats, tpwgts,
                    run, "kway.pq_pass", "kway.refine_pq", [&](Rng& r) {
                      return pq_pass(g, ctx, where, queue, r);
                    });
}

sum_t kway_refine_level(const Graph& g, std::vector<idx_t>& where,
                        const std::vector<real_t>& ub, int passes, Rng& rng,
                        const Options& opts, const RunContext& run,
                        SeamSpec spec) {
  const bool pq = opts.kway_scheme == KWayRefineScheme::kPriorityQueue;
  spec.phase(pq ? "kway_refine_pq" : "kway_refine").level(run.level);
  Seam seam(run, spec, g);
  const sum_t cut =
      pq ? kway_refine_pq(g, opts.nparts, where, ub, passes, rng, nullptr,
                          opts.targets(), run)
         : kway_refine(g, opts.nparts, where, ub, passes, rng, nullptr,
                       opts.targets(), run);
  seam.cut(cut);
  seam.close([&] {
    seam.imbalance(opts.targets() != nullptr
                       ? target_imbalance(g, where, opts.nparts, opts.tpwgts)
                       : imbalance(g, where, opts.nparts));
  });
  return cut;
}

}  // namespace mcgp
