#include "core/refine2way.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "core/audit.hpp"
#include "core/seam.hpp"
#include "support/check.hpp"
#include "support/bucket_queue.hpp"

namespace mcgp {

int dominant_constraint(const Graph& g, idx_t v) {
  const wgt_t* w = g.weights(v);
  int dom = 0;
  real_t best = -1.0;
  for (int i = 0; i < g.ncon; ++i) {
    const real_t nw = static_cast<real_t>(w[i]) * g.invtvwgt[to_size(i)];
    if (nw > best) {
      best = nw;
      dom = i;
    }
  }
  return dom;
}

namespace {

/// How far past the tolerance an intermediate state may stray within a
/// pass (see the exploration-envelope note in FmRefiner::run).
constexpr real_t kBalanceExploreSlack = 0.10;

/// The FM state of one refine_2way call, reused by all of its passes.
/// What persists across passes is set up once per call: the dominant
/// constraints, the internal and external degrees (kept exact through
/// every move and every rollback) and one node array shared by all 2m gain
/// queues, so the queue storage does not grow with the constraint count.
/// A pass only undoes what the previous one left behind, so its own cost
/// is its moves plus the RNG permutation that orders the boundary seeding.
/// Queue (side, c) is index side * nqueues_ + c (policy kSingleQueue uses
/// c = 0 only).
class FmRefiner {
 public:
  FmRefiner(const Graph& g, std::vector<idx_t>& where,
            const BisectionTargets& targets, QueuePolicy policy, Rng& rng)
      : g_(g), where_(where), policy_(policy), rng_(rng) {
    // Part weights are integers and a pass rolls back exactly, so one
    // init serves every pass (the boundaries audit re-checks it per pass).
    balance_.init(g, where, targets);
    const auto n = to_size(g.nvtxs);
    id_.resize(n);
    ed_.resize(n);
    moved_.assign(n, 0);
    dom_.resize(n);
    sum_t cut2 = 0;
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      dom_[to_size(v)] =
          policy == QueuePolicy::kSingleQueue ? 0 : dominant_constraint(g, v);
      sum_t idw = 0, edw = 0;
      const idx_t pv = where_[to_size(v)];
      for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
        if (where_[to_size(g.adjncy[to_size(e)])] == pv) {
          idw = checked_add(idw, g.adjwgt[to_size(e)]);
        } else {
          edw = checked_add(edw, g.adjwgt[to_size(e)]);
        }
      }
      id_[to_size(v)] = idw;
      ed_[to_size(v)] = edw;
      cut2 = checked_add(cut2, edw);
    }
    initial_cut_ = cut2 / 2;
    nqueues_ = policy == QueuePolicy::kSingleQueue ? 1 : g.ncon;
    queues_.reset(g.nvtxs, 64, 2 * nqueues_);
  }

  /// The cut of the starting bisection, from the degrees just computed.
  sum_t initial_cut() const { return initial_cut_; }

  /// Run one pass; returns true if it improved (cut or balance).
  bool run(sum_t& cut, idx_t move_limit, Refine2WayStats* stats,
           const RunContext& run, int pass_index);

 private:
  struct MoveRecord {
    idx_t v;
    int from;
    sum_t cut_delta;
  };

  void seed_queues();
  bool select(idx_t& v, int& from);
  void commit_move(idx_t v, int from, sum_t& cut);
  void rollback_to(std::size_t best_prefix, sum_t& cut);

  wgt_t gain(idx_t v) const {
    return checked_narrow<wgt_t>(
        checked_sub(ed_[to_size(v)], id_[to_size(v)]));
  }

  int queue_of(idx_t v) const {
    return where_[to_size(v)] * nqueues_ + dom_[to_size(v)];
  }

  /// Account for a neighbour of u, across an edge of weight w, having just
  /// joined (`joined`) or left u's side.
  void shift_degree(std::size_t su, wgt_t w, bool joined) {
    if (joined) {
      id_[su] = checked_add(id_[su], w);
      ed_[su] = checked_sub(ed_[su], w);
    } else {
      id_[su] = checked_sub(id_[su], w);
      ed_[su] = checked_add(ed_[su], w);
    }
  }

  const Graph& g_;
  std::vector<idx_t>& where_;
  QueuePolicy policy_;
  Rng& rng_;
  BisectionBalance balance_;

  std::vector<sum_t> id_, ed_;  // internal/external weighted degree
  sum_t initial_cut_ = 0;
  std::vector<char> moved_;
  std::vector<idx_t> popped_;  // the vertices moved_ marks this pass
  std::vector<int> dom_;
  BucketQueue queues_;
  int nqueues_ = 1;  // queues per side
  int rr_next_ = 0;  // round-robin cursor (kRoundRobin policy)
  std::vector<idx_t> perm_;
  std::vector<MoveRecord> log_;
};

void FmRefiner::seed_queues() {
  // Forget the previous pass: what it left queued, what it popped, and
  // where the round-robin cursor stopped (every pass starts at constraint 0).
  // The degrees need no refresh: commits and rollbacks kept them exact.
  queues_.clear();
  for (const idx_t v : popped_) moved_[to_size(v)] = 0;
  popped_.clear();
  rr_next_ = 0;
  // Seed queues with boundary vertices in random order (randomized
  // insertion breaks ties inside equal-gain buckets differently per seed).
  random_permutation(g_.nvtxs, perm_, rng_);
  for (const idx_t v : perm_) {
    if (ed_[to_size(v)] > 0) queues_.insert(v, gain(v), queue_of(v));
  }
}

bool FmRefiner::select(idx_t& v, int& from) {
  if (nqueues_ == 1) {
    // Single-queue policy: prefer the heavier side overall, fall back to
    // the other side.
    const int heavy =
        balance_.nload(0, balance_.worst_constraint()) >=
                balance_.nload(1, balance_.worst_constraint())
            ? 0
            : 1;
    for (const int s : {heavy, 1 - heavy}) {
      if (!queues_.empty(s)) {
        v = queues_.pop_max(s);
        from = s;
        return true;
      }
    }
    return false;
  }

  // Order constraints by tolerance-relative overload (descending) — the
  // paper's selection rule — or cyclically for the round-robin ablation.
  const int nq = std::clamp(nqueues_, 1, kMaxNcon);
  std::array<int, kMaxNcon> order{};
  std::iota(order.begin(), order.begin() + nq, 0);
  if (policy_ == QueuePolicy::kMostImbalanced) {
    // Stable insertion sort by descending potential, ties in constraint
    // order: the order std::sort yields at this size (it insertion-sorts
    // up to 16 elements), without its GCC 12 -Warray-bounds false positive
    // under the sanitizers.
    for (int j = 1; j < nq; ++j) {
      const int c = order[to_size(j)];
      const real_t pc = balance_.constraint_potential(c);
      int at = j;
      for (; at > 0 &&
             pc > balance_.constraint_potential(order[to_size(at - 1)]);
           --at) {
        order[to_size(at)] = order[to_size(at - 1)];
      }
      order[to_size(at)] = c;
    }
  } else {
    std::rotate(order.begin(), order.begin() + (rr_next_ % nq),
                order.begin() + nq);
    rr_next_ = (rr_next_ + 1) % nq;
  }

  for (int oi = 0; oi < nq; ++oi) {
    const int c = order[to_size(oi)];
    const int heavy = balance_.heavy_side(c);
    const int q = heavy * nqueues_ + c;
    if (!queues_.empty(q)) {
      v = queues_.pop_max(q);
      from = heavy;
      return true;
    }
  }
  // All heavy-side queues empty: fall back to the best-gain vertex across
  // every remaining queue so pure cut improvement can continue.
  wgt_t best_gain = 0;
  int bq = -1;
  for (int q = 0; q < 2 * nqueues_; ++q) {
    if (queues_.empty(q)) continue;
    const wgt_t gq = queues_.max_key(q);
    if (bq < 0 || gq > best_gain) {
      best_gain = gq;
      bq = q;
    }
  }
  if (bq < 0) return false;
  v = queues_.pop_max(bq);
  from = bq / nqueues_;
  return true;
}

void FmRefiner::commit_move(idx_t v, int from, sum_t& cut) {
  const int to = 1 - from;
  const sum_t delta = checked_sub(id_[to_size(v)], ed_[to_size(v)]);
  cut = checked_add(cut, delta);
  log_.push_back(MoveRecord{v, from, delta});

  where_[to_size(v)] = to;
  balance_.apply_move(v, from);
  std::swap(id_[to_size(v)], ed_[to_size(v)]);

  for (idx_t e = g_.xadj[to_size(v)]; e < g_.xadj[to_size(v + 1)]; ++e) {
    const idx_t u = g_.adjncy[to_size(e)];
    const wgt_t w = g_.adjwgt[to_size(e)];
    const std::size_t su = to_size(u);
    shift_degree(su, w, where_[su] == to);
    if (moved_[su]) continue;
    // An unmoved vertex is queued by its own side and dominant constraint,
    // so being in any queue means being in its own.
    const bool queued = queues_.owner(u) >= 0;
    if (ed_[su] > 0) {
      if (queued) {
        queues_.update(u, gain(u));
      } else {
        queues_.insert(u, gain(u), queue_of(u));
      }
    } else if (queued) {
      queues_.remove(u);
    }
  }
}

void FmRefiner::rollback_to(std::size_t best_prefix, sum_t& cut) {
  while (log_.size() > best_prefix) {
    const MoveRecord r = log_.back();
    log_.pop_back();
    where_[to_size(r.v)] = r.from;
    balance_.apply_move(r.v, 1 - r.from);
    cut = checked_sub(cut, r.cut_delta);
    // The inverse of commit_move's degree updates, so the next pass starts
    // from exact degrees without rescanning the graph.
    std::swap(id_[to_size(r.v)], ed_[to_size(r.v)]);
    for (idx_t e = g_.xadj[to_size(r.v)]; e < g_.xadj[to_size(r.v + 1)];
         ++e) {
      const std::size_t su = to_size(g_.adjncy[to_size(e)]);
      shift_degree(su, g_.adjwgt[to_size(e)], where_[su] == r.from);
    }
  }
}

bool FmRefiner::run(sum_t& cut, idx_t move_limit, Refine2WayStats* stats,
                    const RunContext& run, int pass_index) {
  Seam seam(run, SeamSpec().span("fm.pass").stage(Seam::Stage::kFmPass), g_);
  Histogram* gain_hist = seam.hist("gain.histogram");

  seed_queues();
  log_.clear();

  // The degrees and the seeding carry over from earlier passes; a slip in
  // commit_move's or rollback_to's updates shows here, at the pass after it.
  if (run.audit != nullptr && run.audit->paranoid()) {
    run.audit->check_fm_state(g_, where_, id_, ed_, queues_, "refine2way.seed");
  }

  const sum_t start_cut = cut;
  const real_t start_potential = balance_.potential();
  const bool start_feasible = start_potential <= 1.0 + 1e-12;

  sum_t best_cut = cut;
  real_t best_potential = start_potential;
  bool best_feasible = start_feasible;
  std::size_t best_prefix = 0;

  // Intra-pass exploration envelope. FM only escapes local minima by
  // passing through worse intermediate states (a vertex *swap* across the
  // cut is two single moves whose midpoint is worse than both endpoints),
  // so moves may overshoot the tolerance by a bounded margin; the rollback
  // to the best prefix guarantees the pass never ends worse than it began.
  // Multiplicative headroom above the starting potential: when the pass
  // starts infeasible, intermediate states must still be allowed to climb
  // above the start or no swap can ever begin.
  const real_t explore_cap =
      std::max(start_potential, 1.0) * (1.0 + kBalanceExploreSlack);

  idx_t bad_streak = 0;
  idx_t v;
  int from;
  while (bad_streak < move_limit && select(v, from)) {
    moved_[to_size(v)] = 1;
    popped_.push_back(v);

    // The popped gain is the incrementally maintained ed - id; a drift in
    // either degree array corrupts every later selection, so paranoid
    // audits recompute it from the adjacency list for sampled pops.
    if (run.audit != nullptr && run.audit->paranoid() &&
        run.audit->sample_gain()) {
      run.audit->check_gain(g_, where_, v, gain(v), "refine2way.select");
    }

    const real_t pot = balance_.potential();
    const real_t new_pot = balance_.potential_after(v, from);
    const bool admissible =
        new_pot <= explore_cap + 1e-12 || new_pot < pot - 1e-12;
    if (!admissible) {
      ++bad_streak;
      continue;
    }

    if (gain_hist != nullptr) gain_hist->record(gain(v));
    commit_move(v, from, cut);

    const real_t cur_pot = new_pot;
    const bool cur_feasible = cur_pot <= 1.0 + 1e-12;
    const bool better =
        (cur_feasible && (!best_feasible || cut < best_cut)) ||
        (!cur_feasible && !best_feasible &&
         (cur_pot < best_potential - 1e-12 ||
          (cur_pot <= best_potential + 1e-12 && cut < best_cut)));
    if (better) {
      best_cut = cut;
      best_potential = cur_pot;
      best_feasible = cur_feasible;
      best_prefix = log_.size();
      bad_streak = 0;
    } else {
      ++bad_streak;
    }
  }

  const std::size_t total_moves = log_.size();
  rollback_to(best_prefix, cut);
  if (stats != nullptr) stats->moves += static_cast<idx_t>(best_prefix);

  // The pass mutated where_/balance_/cut through committed moves and the
  // rollback; all three must still agree with a from-scratch recompute.
  if (run.audit != nullptr && run.audit->boundaries()) {
    run.audit->check_bisection_weights(g_, where_, balance_, "refine2way.pass");
    run.audit->check_bisection_cut(g_, where_, cut, "refine2way.pass");
  }

  const auto moves = static_cast<std::int64_t>(best_prefix);
  const auto rolled_back = static_cast<std::int64_t>(total_moves - best_prefix);
  seam.close([&] {
    seam.pass(pass_index).cut(cut).moves(moves);
    seam.gain(checked_sub(start_cut, cut)).worst_imbalance(best_potential);
    seam.count("fm.passes");
    seam.count("fm.moves", moves);
    seam.count("fm.rollbacks", rolled_back);
    seam.args({{"cut_before", start_cut},
               {"rolled_back", rolled_back},
               {"potential_before", start_potential},
               {"feasible", static_cast<std::int64_t>(best_feasible)}});
  });

  const bool improved =
      (best_feasible && !start_feasible) || best_cut < start_cut ||
      best_potential < start_potential - 1e-12;
  return improved && best_prefix > 0;
}

}  // namespace

sum_t refine_2way(const Graph& g, std::vector<idx_t>& where,
                  const BisectionTargets& targets, QueuePolicy policy,
                  int max_passes, idx_t move_limit, Rng& rng,
                  Refine2WayStats* stats, const RunContext& run) {
  if (move_limit <= 0) move_limit = std::max<idx_t>(64, g.nvtxs / 100);

  FmRefiner fm(g, where, targets, policy, rng);
  Seam(run, SeamSpec(), g).count("fm.degree_scans", g.nvtxs);
  sum_t cut = fm.initial_cut();
  if (stats != nullptr) stats->initial_cut = cut;
  for (int pass = 0; pass < max_passes; ++pass) {
    const bool improved =
        fm.run(cut, move_limit, stats, run, pass);
    if (stats != nullptr) ++stats->passes;
    if (!improved) break;
  }

  if (stats != nullptr) stats->final_cut = cut;
  return cut;
}

}  // namespace mcgp
