#include "core/rebalance.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <ranges>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/coarsen.hpp"
#include "core/kway_context.hpp"
#include "core/kway_refine.hpp"
#include "core/matching.hpp"
#include "core/project.hpp"
#include "graph/metrics.hpp"
#include "core/seam.hpp"
#include "support/check.hpp"

namespace mcgp {

namespace {

constexpr real_t kEps = 1e-12;

/// Graphs at or below this size get the pairwise-swap escape when single
/// moves deadlock; the pair search is quadratic-ish and only tiny, tight
/// instances (coarse granularity relative to part size) need it.
constexpr idx_t kSwapMaxVtxs = 10000;

/// At most this many source vertices are tried per swap-pair search.
constexpr idx_t kSwapCandCap = 128;

/// One run of the shared peak drain (core/kway_context.hpp), counted into
/// `st`.
void drain(KWayContext& ctx, RebalanceStats& st, const RunContext& run) {
  const DrainStats d = drain_peaks(ctx, run);
  st.moves = checked_add(st.moves, d.moves);
  st.episodes += d.episodes;
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

}  // namespace

sum_t max_weight_below(real_t limit, real_t bound) {
  auto below = [&](sum_t w) {
    return static_cast<real_t>(w) / limit < bound;
  };
  constexpr sum_t kMax = std::numeric_limits<sum_t>::max();
  if (below(kMax)) return kMax;
  // floor(bound * limit) is off by at most a rounding step of doubles of
  // its size (one unit below 2^53); the predicate settles the rest.
  const real_t est = std::floor(bound * limit);
  sum_t w = 0;
  if (est >= 0x1p63) {
    w = checked_sub(kMax, 1);
  } else if (est > 0.0) {
    w = static_cast<sum_t>(est);
  }
  while (below(checked_add(w, 1))) w = checked_add(w, 1);
  while (!below(w)) w = checked_sub(w, 1);
  return w;
}

sum_t swap_escape(const Graph& g, KWayContext& ctx) {
  if (g.nvtxs > kSwapMaxVtxs) return 0;
  const std::vector<idx_t>& where = ctx.where();
  const idx_t nparts = ctx.nparts();
  const auto ncon = to_size(g.ncon);
  sum_t swaps = 0;
  const sum_t swap_cap =
      checked_mul(static_cast<sum_t>(4),
                  static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
  std::vector<idx_t> cand;
  // below[p*ncon+i]: the most weight part p may hold in constraint i and
  // stay under the peak; need[p*ncon+i] and room[i]: the least and most
  // weight in i a partner from part p may weigh for a swap with the
  // current source to keep both parts under it.
  std::vector<sum_t> below(to_size(nparts) * ncon);
  std::vector<sum_t> need(to_size(nparts) * ncon);
  std::array<sum_t, kMaxNcon> room{};
  while (swaps < swap_cap) {
    idx_t q;
    int c;
    if (!ctx.overload_peak(q, c)) break;
    const real_t peak = ctx.max_overload();
    for (idx_t p = 0; p < nparts; ++p) {
      for (int i = 0; i < g.ncon; ++i) {
        below[to_size(p) * ncon + to_size(i)] =
            max_weight_below(ctx.limit(p, i), peak - kEps);
      }
    }

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
      const wgt_t* wv = g.weights(v);
      for (idx_t p = 0; p < nparts; ++p) {
        for (int i = 0; i < g.ncon; ++i) {
          const std::size_t pi = to_size(p) * ncon + to_size(i);
          const sum_t held = ctx.pwgts()[pi];
          if (p == q) {
            room[to_size(i)] = checked_sub(below[pi], checked_sub(held, wv[i]));
          } else {
            need[pi] = checked_sub(checked_add(held, wv[i]), below[pi]);
          }
        }
      }
      for (idx_t u = 0; u < g.nvtxs; ++u) {
        const idx_t p = where[to_size(u)];
        if (p == q) continue;
        // Swapping must strictly reduce both touched parts below the
        // peak. The weight bounds decide that exactly, without dividing;
        // the loads are computed only for the pairs that pass.
        const wgt_t* wu = g.weights(u);
        const sum_t* np = &need[to_size(p) * ncon];
        bool under = true;
        for (std::size_t i = 0; i < ncon && under; ++i) {
          under = wu[i] <= room[i] && wu[i] >= np[i];
        }
        if (!under) continue;
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

namespace {

/// max(0, overload - 1) of every (part, constraint) and whether the part
/// is overloaded in any constraint (above 1 + kEps): the terms of the
/// summed relative overload both descents minimize, cached and refreshed
/// only for the two parts a move or swap touches.
class PartExcess {
 public:
  explicit PartExcess(const KWayContext& ctx)
      : ctx_(ctx),
        ncon_(to_size(ctx.graph().ncon)),
        excess_(to_size(ctx.nparts()) * ncon_),
        over_(to_size(ctx.nparts())) {
    for (idx_t p = 0; p < ctx.nparts(); ++p) refresh(p);
  }

  void refresh(idx_t p) {
    over_[to_size(p)] = 0;
    for (std::size_t i = 0; i < ncon_; ++i) {
      const real_t l = ctx_.overload(p, static_cast<int>(i));
      if (l > 1.0 + kEps) over_[to_size(p)] = 1;
      excess_[to_size(p) * ncon_ + i] = std::max(0.0, l - 1.0);
    }
  }

  real_t operator()(idx_t p, int i) const {
    return excess_[to_size(p) * ncon_ + to_size(i)];
  }
  bool over(idx_t p) const { return over_[to_size(p)] != 0; }

 private:
  const KWayContext& ctx_;
  std::size_t ncon_;
  std::vector<real_t> excess_;
  std::vector<char> over_;
};

/// Change in the total relative overload sum_i max(0, load - 1) over both
/// touched parts if v (in q) and u (in p) were exchanged. Negative = net
/// relief. This is the joint multi-constraint potential: the peak drain's
/// episodes can deadlock when every destination is itself near the
/// peak in SOME constraint, while the summed overload can still descend.
real_t swap_delta(const Graph& g, const KWayContext& ctx,
                  const PartExcess& excess, idx_t v, idx_t q, idx_t u,
                  idx_t p) {
  real_t d = 0.0;
  const wgt_t* wv = g.weights(v);
  const wgt_t* wu = g.weights(u);
  for (int i = 0; i < g.ncon; ++i) {
    const wgt_t dq = static_cast<wgt_t>(wu[i] - wv[i]);
    d += std::max(0.0, ctx.load_with(q, i, dq) - 1.0) - excess(q, i) +
         std::max(0.0, ctx.load_with(p, i, static_cast<wgt_t>(-dq)) - 1.0) -
         excess(p, i);
  }
  return d;
}

constexpr real_t kDescentMin = 1e-9;  ///< smallest accepted strict decrease

/// Exact memo of fruitless descent scans, shared by overload_descent and
/// swap_descent. Both scan a source vertex v of part q against every
/// candidate outside q (a destination part, or a swap partner), and an
/// evaluation reads only q's loads and vertex count, v's weight vector and
/// the candidate's part loads (and a partner's weights). A part's loads
/// change only through a logged move. So when a full scan from (q, w) found
/// nothing and q has not changed since, a later scan from (q, w) can only
/// succeed in a part some logged move touched: every other candidate gives
/// the delta it gave then, which failed the initial threshold and so fails
/// any lower running best as well. The memo keeps, per source part, up to
/// kSlots weight vectors whose scan came up empty, each stamped with the
/// length of the log of the parts every committed move or swap touched.
class ScanMemo {
 public:
  /// What a scan may skip: kSkip, all of it (nothing moved since the
  /// stamp); kPartial, all but the candidates in parts(); kNone, nothing.
  enum class Hit { kNone, kSkip, kPartial };

  ScanMemo(idx_t nparts, int ncon)
      : ncon_(to_size(ncon)),
        touch_(to_size(nparts), 0),
        stamp_(to_size(nparts) * kSlots, -1),
        wts_(to_size(nparts) * kSlots * to_size(ncon), 0) {}

  /// A committed move or swap changed the loads of parts a and b.
  void log(idx_t a, idx_t b) {
    log_.emplace_back(a, b);
    const auto n = static_cast<std::int64_t>(log_.size());
    touch_[to_size(a)] = n;
    touch_[to_size(b)] = n;
  }

  /// Look up a scan from source part q with weight vector vw. A hit needs
  /// a fruitless scan of (q, vw) that q has not changed since, and at most
  /// kReplay logged moves after it.
  Hit find(idx_t q, const wgt_t* vw) {
    const int s = slot_of(q, vw);
    if (s < 0) return Hit::kNone;
    const std::int64_t stamp = stamp_[to_size(q) * kSlots + to_size(s)];
    const auto now = static_cast<std::int64_t>(log_.size());
    if (touch_[to_size(q)] > stamp || now - stamp > kReplay) return Hit::kNone;
    if (now == stamp) return Hit::kSkip;
    parts_.clear();
    for (auto i = to_size(stamp); i < log_.size(); ++i) {
      parts_.push_back(log_[i].first);
      parts_.push_back(log_[i].second);
    }
    std::sort(parts_.begin(), parts_.end());
    parts_.erase(std::unique(parts_.begin(), parts_.end()), parts_.end());
    return Hit::kPartial;
  }

  /// The parts changed since the stamp of the last kPartial hit, ascending.
  const std::vector<idx_t>& parts() const { return parts_; }

  /// The scan from (q, vw) found nothing in the current state: stamp it,
  /// in its own slot, else an empty one, else the one stamped longest ago.
  void fruitless(idx_t q, const wgt_t* vw) {
    int s = slot_of(q, vw);
    if (s < 0) {
      s = 0;
      for (int t = 1; t < kSlots; ++t) {
        if (stamp_[to_size(q) * kSlots + to_size(t)] <
            stamp_[to_size(q) * kSlots + to_size(s)]) {
          s = t;
        }
      }
      std::copy(vw, vw + ncon_,
                &wts_[(to_size(q) * kSlots + to_size(s)) * ncon_]);
    }
    stamp_[to_size(q) * kSlots + to_size(s)] =
        static_cast<std::int64_t>(log_.size());
  }

 private:
  static constexpr int kSlots = 8;
  static constexpr std::int64_t kReplay = 12;

  int slot_of(idx_t q, const wgt_t* vw) const {
    for (int slot = 0; slot < kSlots; ++slot) {
      const std::size_t at = to_size(q) * kSlots + to_size(slot);
      if (stamp_[at] >= 0 && std::equal(vw, vw + ncon_, &wts_[at * ncon_])) {
        return slot;
      }
    }
    return -1;
  }

  std::size_t ncon_;
  std::vector<std::pair<idx_t, idx_t>> log_;
  /// touch_[p]: the log length just after p's last move, 0 if none.
  std::vector<std::int64_t> touch_;
  /// stamp_[q*kSlots+s]: the log length at slot s's fruitless scan, -1
  /// when the slot is empty; wts_ holds its weight vector.
  std::vector<std::int64_t> stamp_;
  std::vector<wgt_t> wts_;
  std::vector<idx_t> parts_;
};

}  // namespace

sum_t overload_descent(const Graph& g, KWayContext& ctx, RebalanceStats& st,
                       const RunContext& run) {
  const idx_t nparts = ctx.nparts();
  const std::vector<idx_t>& where = ctx.where();
  const bool paranoid = run.audit != nullptr && run.audit->paranoid();
  sum_t moves = 0;
  const sum_t move_cap =
      checked_mul(static_cast<sum_t>(8),
                  static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
  PartExcess excess(ctx);
  std::array<real_t, kMaxNcon> src{};  // per constraint: q_after - q_now
  // The best destination among `dests` (ascending) for a vertex of part q
  // with weights w: the first whose delta undercuts the running best, from
  // -kDescentMin, by more than kEps. Counts the parts it evaluates into
  // `scanned`.
  auto best_dest = [&](idx_t q, const wgt_t* w, const auto& dests,
                       sum_t& scanned) {
    idx_t best = -1;
    real_t best_d = -kDescentMin;
    idx_t evaluated = 0;
    for (const idx_t p : dests) {
      if (p == q) continue;
      ++evaluated;
      real_t d = 0.0;
      for (int i = 0; i < g.ncon; ++i) {
        d += src[to_size(i)] +
             std::max(0.0, ctx.load_with(p, i, w[i]) - 1.0) - excess(p, i);
      }
      if (d < best_d - kEps) {
        best_d = d;
        best = p;
      }
    }
    scanned = checked_add(scanned, static_cast<sum_t>(evaluated));
    return best;
  };
  const auto all_parts = std::views::iota(idx_t{0}, nparts);
  ScanMemo memo(nparts, g.ncon);
  bool changed = true;
  while (changed && moves < move_cap) {
    changed = false;
    for (idx_t v = 0; v < g.nvtxs && moves < move_cap; ++v) {
      const idx_t q = where[to_size(v)];
      if (!excess.over(q) || !ctx.can_leave(q)) continue;
      const wgt_t* w = g.weights(v);
      st.descent_evals =
          checked_add(st.descent_evals, static_cast<sum_t>(nparts - 1));
      const ScanMemo::Hit hit = memo.find(q, w);
      if (hit != ScanMemo::Hit::kSkip || paranoid) {
        for (int i = 0; i < g.ncon; ++i) {
          const wgt_t out = checked_narrow<wgt_t>(-static_cast<sum_t>(w[i]));
          src[to_size(i)] =
              std::max(0.0, ctx.load_with(q, i, out) - 1.0) - excess(q, i);
        }
      }
      idx_t best = -1;
      if (hit == ScanMemo::Hit::kNone) {
        best = best_dest(q, w, all_parts, st.descent_scanned);
      } else if (hit == ScanMemo::Hit::kPartial) {
        best = best_dest(q, w, memo.parts(), st.descent_scanned);
      }
      if (paranoid && hit != ScanMemo::Hit::kNone) {
        sum_t unused = 0;
        run.audit->check_memo_scan(v, best, best_dest(q, w, all_parts, unused),
                                   "rebalance.descent");
      }
      if (best < 0) {
        memo.fruitless(q, w);
        continue;
      }
      ctx.move(v, best);
      memo.log(q, best);
      excess.refresh(q);
      excess.refresh(best);
      moves = checked_add(moves, 1);
      changed = true;
    }
  }
  return moves;
}

sum_t swap_descent(const Graph& g, KWayContext& ctx, RebalanceStats& st,
                   const RunContext& run) {
  if (g.nvtxs > kSwapMaxVtxs) return 0;
  const std::vector<idx_t>& where = ctx.where();
  const bool paranoid = run.audit != nullptr && run.audit->paranoid();
  sum_t swaps = 0;
  const sum_t swap_cap =
      checked_mul(static_cast<sum_t>(4),
                  static_cast<sum_t>(std::max<idx_t>(g.nvtxs, 1)));
  const std::int64_t pair_budget = 1 << 22;
  PartExcess excess(ctx);
  // The best partner among `partners` (ascending) for source v of part q:
  // the first outside q whose delta undercuts the running best, from
  // -kDescentMin, by more than kEps. Counts the pairs it evaluates into
  // `scanned`.
  auto best_partner = [&](idx_t v, idx_t q, const auto& partners,
                          sum_t& scanned) {
    idx_t best_u = -1;
    real_t best_d = -kDescentMin;
    idx_t evaluated = 0;
    for (const idx_t u : partners) {
      const idx_t p = where[to_size(u)];
      if (p == q) continue;
      ++evaluated;
      const real_t d = swap_delta(g, ctx, excess, v, q, u, p);
      if (d < best_d - kEps) {
        best_d = d;
        best_u = u;
      }
    }
    scanned = checked_add(scanned, static_cast<sum_t>(evaluated));
    return best_u;
  };
  const auto all_vtxs = std::views::iota(idx_t{0}, g.nvtxs);
  ScanMemo memo(ctx.nparts(), g.ncon);
  std::vector<idx_t> partners;
  bool changed = true;
  while (changed && swaps < swap_cap) {
    changed = false;
    std::int64_t pairs = 0;
    for (idx_t v = 0; v < g.nvtxs && swaps < swap_cap; ++v) {
      if (pairs >= pair_budget) break;
      const idx_t q = where[to_size(v)];
      if (!excess.over(q)) continue;
      // Every partner outside q counts against the budget, scanned or not.
      const idx_t outside = g.nvtxs - ctx.vcounts()[to_size(q)];
      pairs = checked_add(pairs, static_cast<std::int64_t>(outside));
      const wgt_t* w = g.weights(v);
      const ScanMemo::Hit hit = memo.find(q, w);
      idx_t best_u = -1;
      if (hit == ScanMemo::Hit::kNone) {
        best_u = best_partner(v, q, all_vtxs, st.swap_scanned);
      } else if (hit == ScanMemo::Hit::kPartial) {
        partners.clear();
        for (const idx_t p : memo.parts()) {
          const std::vector<idx_t>& m = ctx.members(p);
          partners.insert(partners.end(), m.begin(), m.end());
        }
        std::sort(partners.begin(), partners.end());
        best_u = best_partner(v, q, partners, st.swap_scanned);
      }
      if (paranoid && hit != ScanMemo::Hit::kNone) {
        sum_t unused = 0;
        run.audit->check_memo_scan(v, best_u,
                                   best_partner(v, q, all_vtxs, unused),
                                   "rebalance.swap_descent");
      }
      if (best_u < 0) {
        memo.fruitless(q, w);
        continue;
      }
      const idx_t p = where[to_size(best_u)];
      ctx.move(v, p);
      ctx.move(best_u, q);
      memo.log(q, p);
      excess.refresh(q);
      excess.refresh(p);
      swaps = checked_add(swaps, 1);
      changed = true;
    }
  }
  return swaps;
}

namespace {

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
void overload_sum_escape(const Graph& g, KWayContext& ctx, RebalanceStats& st,
                         const RunContext& run) {
  for (int round = 0; round < 8; ++round) {
    const sum_t m = overload_descent(g, ctx, st, run);
    st.moves = checked_add(st.moves, m);
    if (ctx.feasible()) break;
    const sum_t s = swap_descent(g, ctx, st, run);
    st.swaps = checked_add(st.swaps, s);
    if (ctx.feasible() || (m == 0 && s == 0)) break;
  }
}

/// The descent chain run on every graph the pass balances: the peak
/// drain, then, while still infeasible, the pairwise-swap escape and the
/// summed-overload descent. Counts into `st`.
void descend(const Graph& g, KWayContext& ctx, RebalanceStats& st,
             const RunContext& run) {
  drain(ctx, st, run);
  if (!ctx.feasible()) {
    st.swaps = checked_add(st.swaps, swap_escape(g, ctx));
  }
  if (!ctx.feasible()) overload_sum_escape(g, ctx, st, run);
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
/// and of `run` only the trace and the auditor reach its refiners. The
/// coarse descent's work counts are added to `st`. Returns false when the
/// graph would not shrink (nothing to do).
bool run_vcycle(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
                const std::vector<real_t>& ub, Rng& rng,
                const std::vector<real_t>* tpwgts, const RunContext& run,
                RebalanceStats& st) {
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

  // Coarsest problem: the descent chain, then refinement. Clusters move
  // as units here, which is exactly the strength single-vertex moves at
  // the finest level lack.
  {
    Graph& cg = levels.back().graph;
    std::vector<idx_t>& cw = parts.back();
    KWayContext cctx(cg, nparts, cw, ub, tpwgts);
    // Coarse moves are not the caller's moves: only the work counts are
    // kept.
    RebalanceStats coarse;
    descend(cg, cctx, coarse, refine);
    st.descent_evals = checked_add(st.descent_evals, coarse.descent_evals);
    st.descent_scanned =
        checked_add(st.descent_scanned, coarse.descent_scanned);
    st.swap_scanned = checked_add(st.swap_scanned, coarse.swap_scanned);
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
    // Level l and its partition are spent; the finer refinement runs
    // without them.
    levels.pop_back();
    parts.pop_back();
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

  Seam seam(run,
            SeamSpec().span("rebalance").stage(Seam::Stage::kRebalance), g);

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

  descend(g, ctx, st, run);
  note_state();

  for (int cycle = 0; cycle < max_vcycles && !ctx.feasible(); ++cycle) {
    const real_t before = ctx.max_overload();
    const real_t before_sum = total_overload(g, ctx, nparts);
    // The V-cycle's coarse graphs are this pass's memory peak; the member
    // index is rebuilt afterwards anyway (reload below), so free it now.
    ctx.drop_members();
    if (!run_vcycle(g, nparts, where, ub, rng, tpwgts, run, st)) break;
    ctx.reload();
    ++st.vcycles;
    descend(g, ctx, st, run);
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
      drain(ctx, st, run);
      overload_sum_escape(g, ctx, st, run);
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

  seam.moves(st.moves).worst_imbalance(st.max_overload).feasible(st.feasible);
  seam.args({{"swaps", st.swaps},
             {"episodes", st.episodes},
             {"vcycles", st.vcycles},
             {"descent_evals", st.descent_evals}});
  seam.count("rebalance.moves", st.moves);
  seam.count("rebalance.swaps", st.swaps);
  seam.count("rebalance.episodes", st.episodes);
  seam.count("rebalance.vcycles", st.vcycles);
  seam.count("rebalance.descent.evals", st.descent_evals);
  seam.count("rebalance.descent.scanned", st.descent_scanned);
  seam.count("rebalance.swaps.scanned", st.swap_scanned);
  seam.count(st.feasible ? "rebalance.feasible" : "rebalance.infeasible");
  return st.feasible;
}

void rebalance_if_infeasible(const Graph& g, std::vector<idx_t>& where,
                             const std::vector<real_t>& ub, Rng& rng,
                             const Options& opts, const RunContext& run) {
  const idx_t k = opts.nparts;
  if (kway_feasible(g, part_weights(g, where, k), k, ub, opts.targets())) {
    return;
  }
  Seam seam(run, SeamSpec().phase("rebalance").level(0), g);
  rebalance_partition(g, k, where, ub, rng, opts.targets(), nullptr, run);
}

}  // namespace mcgp
