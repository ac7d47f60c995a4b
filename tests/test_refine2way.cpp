#include "core/refine2way.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>

#include "core/audit.hpp"
#include "core/balance2way.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "support/bucket_queue.hpp"
#include "support/check.hpp"
#include "support/random.hpp"
#include "support/trace.hpp"

namespace mcgp {
namespace {

BisectionTargets even_targets(int ncon, real_t ub = 1.05) {
  BisectionTargets t;
  t.f0 = 0.5;
  t.ub.assign(to_size(ncon), ub);
  return t;
}

/// A balanced but deliberately jagged bisection of a grid (stripes).
std::vector<idx_t> jagged_bisection(idx_t nx, idx_t ny) {
  std::vector<idx_t> where(to_size(nx) * to_size(ny));
  for (idx_t x = 0; x < nx; ++x) {
    for (idx_t y = 0; y < ny; ++y) {
      // Checker-ish split that keeps counts even but cuts many edges.
      where[to_size(x * ny + y)] = (x + 2 * y) % 4 < 2 ? 0 : 1;
    }
  }
  return where;
}

TEST(DominantConstraint, PicksLargestNormalized) {
  GraphBuilder b(2, 3);
  b.add_edge(0, 1);
  b.set_weights(0, {10, 1, 1});
  b.set_weights(1, {1, 1, 10});
  Graph g = b.build();
  EXPECT_EQ(dominant_constraint(g, 0), 0);
  EXPECT_EQ(dominant_constraint(g, 1), 2);
}

TEST(DominantConstraint, NormalizationMatters) {
  // Constraint totals differ wildly: raw weight 5 of a small-total
  // constraint dominates raw weight 50 of a large-total one.
  GraphBuilder b(3, 2);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.set_weights(0, {50, 5});
  b.set_weights(1, {1000, 1});
  b.set_weights(2, {1000, 1});
  Graph g = b.build();
  // For vertex 0: 50/2050 < 5/7.
  EXPECT_EQ(dominant_constraint(g, 0), 1);
}

class RefinePolicies : public testing::TestWithParam<QueuePolicy> {};

TEST_P(RefinePolicies, NeverWorsensCut) {
  Graph g = grid2d(20, 20);
  std::vector<idx_t> where = jagged_bisection(20, 20);
  const sum_t before = compute_cut_2way(g, where);
  Rng rng(1);
  const sum_t after = refine_2way(g, where, even_targets(1), GetParam(), 8,
                                  0, rng);
  EXPECT_LE(after, before);
  EXPECT_EQ(after, compute_cut_2way(g, where));
}

TEST_P(RefinePolicies, SubstantiallyImprovesJaggedCut) {
  Graph g = grid2d(24, 24);
  std::vector<idx_t> where = jagged_bisection(24, 24);
  const sum_t before = compute_cut_2way(g, where);
  Rng rng(2);
  const sum_t after = refine_2way(g, where, even_targets(1), GetParam(), 8,
                                  0, rng);
  EXPECT_LT(after, before / 2) << "policy failed to clean up stripes";
}

TEST_P(RefinePolicies, PreservesFeasibility) {
  Graph g = random_geometric(800, 0, 3, 3);
  apply_type_s_weights(g, 3, 8, 0, 19, 5);
  const BisectionTargets t = even_targets(3, 1.10);
  // Start from a feasible balanced-ish split via balance helper.
  std::vector<idx_t> where(to_size(g.nvtxs));
  Rng seedr(3);
  for (auto& s : where) s = static_cast<idx_t>(seedr.next_below(2));
  balance_2way(g, where, t, seedr);
  BisectionBalance b;
  b.init(g, where, t);
  const real_t pot_before = b.potential();

  Rng rng(4);
  refine_2way(g, where, t, GetParam(), 8, 0, rng);
  b.init(g, where, t);
  // The pass must not end in a worse balance state than it started.
  EXPECT_LE(b.potential(), std::max(pot_before, 1.0) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, RefinePolicies,
                         testing::Values(QueuePolicy::kMostImbalanced,
                                         QueuePolicy::kRoundRobin,
                                         QueuePolicy::kSingleQueue));

TEST(Refine2Way, GridBisectionNearOptimal) {
  // 32x32 grid: the optimal bisection cut is 32. A random balanced start
  // refined by FM should land within a small factor.
  Graph g = grid2d(32, 32);
  std::vector<idx_t> where(1024);
  Rng seedr(5);
  idx_t c0 = 0;
  for (auto& s : where) {
    s = static_cast<idx_t>(seedr.next_below(2));
    c0 += s == 0 ? 1 : 0;
  }
  const BisectionTargets t = even_targets(1);
  Rng rng(6);
  balance_2way(g, where, t, rng);
  const sum_t cut = refine_2way(g, where, t, QueuePolicy::kMostImbalanced,
                                12, 0, rng);
  // From a random start FM will not reach 32, but must do far better than
  // the ~1500 expected of a random bisection.
  EXPECT_LT(cut, 400);
}

TEST(Refine2Way, RepairsModestImbalance) {
  Graph g = grid2d(20, 20);
  const BisectionTargets t = even_targets(1, 1.05);
  // 70/30 split: infeasible.
  std::vector<idx_t> where(400);
  for (idx_t v = 0; v < 400; ++v) where[to_size(v)] = v < 280 ? 0 : 1;
  Rng rng(7);
  refine_2way(g, where, t, QueuePolicy::kMostImbalanced, 10, 0, rng);
  BisectionBalance b;
  b.init(g, where, t);
  EXPECT_LE(b.potential(), 1.0 + 1e-9) << "FM failed to restore balance";
}

TEST(Refine2Way, RespectsUnevenTargets) {
  Graph g = grid2d(18, 18);
  BisectionTargets t = even_targets(1, 1.05);
  t.f0 = 0.25;
  std::vector<idx_t> where(324);
  for (idx_t v = 0; v < 324; ++v) where[to_size(v)] = v < 81 ? 0 : 1;
  Rng rng(8);
  const sum_t before = compute_cut_2way(g, where);
  refine_2way(g, where, t, QueuePolicy::kMostImbalanced, 8, 0, rng);
  BisectionBalance b;
  b.init(g, where, t);
  EXPECT_LE(b.potential(), 1.0 + 1e-9);
  EXPECT_LE(compute_cut_2way(g, where), before);
}

TEST(Refine2Way, StatsAreConsistent) {
  Graph g = grid2d(16, 16);
  std::vector<idx_t> where = jagged_bisection(16, 16);
  Refine2WayStats stats;
  Rng rng(9);
  const sum_t cut = refine_2way(g, where, even_targets(1),
                                QueuePolicy::kMostImbalanced, 8, 0, rng,
                                &stats);
  EXPECT_EQ(stats.final_cut, cut);
  EXPECT_GE(stats.initial_cut, stats.final_cut);
  EXPECT_GT(stats.passes, 0);
  EXPECT_GT(stats.moves, 0);
}

TEST(Refine2Way, NoopOnPerfectBisection) {
  Graph g = grid2d(16, 16);
  std::vector<idx_t> where(256);
  for (idx_t v = 0; v < 256; ++v) where[to_size(v)] = v < 128 ? 0 : 1;
  const sum_t before = compute_cut_2way(g, where);
  EXPECT_EQ(before, 16);
  Rng rng(10);
  const sum_t after = refine_2way(g, where, even_targets(1),
                                  QueuePolicy::kMostImbalanced, 8, 0, rng);
  EXPECT_EQ(after, 16);
}

TEST(Refine2Way, MultiConstraintSwapEscape) {
  // Sides peak in different constraints: only swap sequences (through the
  // exploration envelope) can equalize both. Build two vertex populations
  // with complementary vectors placed adversarially.
  GraphBuilder bld(80, 2);
  for (idx_t v = 0; v + 1 < 80; ++v) bld.add_edge(v, v + 1);
  for (idx_t v = 0; v < 80; ++v) {
    bld.set_weights(v, v % 2 == 0 ? std::vector<wgt_t>{4, 1}
                                  : std::vector<wgt_t>{1, 4});
  }
  Graph g = bld.build();
  // Put all even (4,1)-vertices on side 0, odd on side 1: constraint 0
  // peaks on side 0, constraint 1 on side 1 — balanced counts, imbalanced
  // constraints.
  std::vector<idx_t> where(80);
  for (idx_t v = 0; v < 80; ++v) where[to_size(v)] = v % 2;
  const BisectionTargets t = even_targets(2, 1.05);
  BisectionBalance b;
  b.init(g, where, t);
  ASSERT_GT(b.potential(), 1.2);  // genuinely imbalanced start

  Rng rng(11);
  for (int i = 0; i < 3; ++i) {
    balance_2way(g, where, t, rng);
    refine_2way(g, where, t, QueuePolicy::kMostImbalanced, 10, 0, rng);
  }
  b.init(g, where, t);
  EXPECT_LE(b.potential(), 1.0 + 1e-9) << "swap escape failed";
}

// ---------------------------------------------------------------------------
// Reference: the FM refiner as it was before refine_2way kept its state
// across passes — a fresh pass object (fresh queues, dominant constraints,
// side weights and round-robin cursor) per pass. Trace/audit/flight hooks
// are left out; they never change the moves.

class ReferenceFmPass {
 public:
  ReferenceFmPass(const Graph& g, std::vector<idx_t>& where,
                  const BisectionTargets& targets, QueuePolicy policy,
                  Rng& rng)
      : g_(g), where_(where), policy_(policy), rng_(rng) {
    balance_.init(g, where, targets);
    const auto n = to_size(g.nvtxs);
    id_.assign(n, 0);
    ed_.assign(n, 0);
    moved_.assign(n, 0);
    dom_.resize(n);
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      dom_[to_size(v)] =
          policy == QueuePolicy::kSingleQueue ? 0 : dominant_constraint(g, v);
    }
    nqueues_ = policy == QueuePolicy::kSingleQueue ? 1 : g.ncon;
    for (int s = 0; s < 2; ++s) {
      for (int c = 0; c < nqueues_; ++c) {
        queues_[to_size(s)][to_size(c)].reset(g.nvtxs);
      }
    }
  }

  bool run(sum_t& cut, idx_t move_limit) {
    seed(cut);
    const sum_t start_cut = cut;
    const real_t start_potential = balance_.potential();
    const bool start_feasible = start_potential <= 1.0 + 1e-12;
    sum_t best_cut = cut;
    real_t best_potential = start_potential;
    bool best_feasible = start_feasible;
    std::size_t best_prefix = 0;
    const real_t explore_cap = std::max(start_potential, 1.0) * 1.10;

    idx_t bad_streak = 0;
    idx_t v;
    int from;
    while (bad_streak < move_limit && select(v, from)) {
      moved_[to_size(v)] = 1;
      const real_t pot = balance_.potential();
      const real_t new_pot = balance_.potential_after(v, from);
      if (!(new_pot <= explore_cap + 1e-12 || new_pot < pot - 1e-12)) {
        ++bad_streak;
        continue;
      }
      commit(v, from, cut);
      const bool cur_feasible = new_pot <= 1.0 + 1e-12;
      const bool better =
          (cur_feasible && (!best_feasible || cut < best_cut)) ||
          (!cur_feasible && !best_feasible &&
           (new_pot < best_potential - 1e-12 ||
            (new_pot <= best_potential + 1e-12 && cut < best_cut)));
      if (better) {
        best_cut = cut;
        best_potential = new_pot;
        best_feasible = cur_feasible;
        best_prefix = log_.size();
        bad_streak = 0;
      } else {
        ++bad_streak;
      }
    }
    while (log_.size() > best_prefix) {
      const MoveRecord r = log_.back();
      log_.pop_back();
      where_[to_size(r.v)] = r.from;
      balance_.apply_move(r.v, 1 - r.from);
      cut = checked_sub(cut, r.cut_delta);
    }
    const bool improved = (best_feasible && !start_feasible) ||
                          best_cut < start_cut ||
                          best_potential < start_potential - 1e-12;
    return improved && best_prefix > 0;
  }

 private:
  struct MoveRecord {
    idx_t v;
    int from;
    sum_t cut_delta;
  };

  wgt_t gain(idx_t v) const {
    return checked_narrow<wgt_t>(
        checked_sub(ed_[to_size(v)], id_[to_size(v)]));
  }

  BucketQueue& queue_of(idx_t v) {
    return queues_[to_size(where_[to_size(v)])][to_size(dom_[to_size(v)])];
  }

  void seed(sum_t& cut) {
    sum_t cut2 = 0;
    for (idx_t v = 0; v < g_.nvtxs; ++v) {
      sum_t idw = 0, edw = 0;
      for (idx_t e = g_.xadj[to_size(v)]; e < g_.xadj[to_size(v + 1)]; ++e) {
        if (where_[to_size(g_.adjncy[to_size(e)])] == where_[to_size(v)]) {
          idw = checked_add(idw, g_.adjwgt[to_size(e)]);
        } else {
          edw = checked_add(edw, g_.adjwgt[to_size(e)]);
        }
      }
      id_[to_size(v)] = idw;
      ed_[to_size(v)] = edw;
      cut2 = checked_add(cut2, edw);
    }
    cut = cut2 / 2;
    std::vector<idx_t> perm;
    random_permutation(g_.nvtxs, perm, rng_);
    for (const idx_t v : perm) {
      if (ed_[to_size(v)] > 0) queue_of(v).insert(v, gain(v));
    }
  }

  bool select(idx_t& v, int& from) {
    if (nqueues_ == 1) {
      const int c = balance_.worst_constraint();
      const int heavy = balance_.nload(0, c) >= balance_.nload(1, c) ? 0 : 1;
      for (const int s : {heavy, 1 - heavy}) {
        if (!queues_[to_size(s)][0].empty()) {
          v = queues_[to_size(s)][0].pop_max();
          from = s;
          return true;
        }
      }
      return false;
    }
    const int nq = std::clamp(nqueues_, 1, kMaxNcon);
    std::array<int, kMaxNcon> order{};
    std::iota(order.begin(), order.begin() + nq, 0);
    if (policy_ == QueuePolicy::kMostImbalanced) {
      // Stable, as the library's insertion sort is (and std::sort is at
      // this size); std::sort itself trips a GCC 12 -Warray-bounds false
      // positive under the sanitizers.
      std::stable_sort(order.begin(), order.begin() + nq, [&](int a, int b) {
        return balance_.constraint_potential(a) >
               balance_.constraint_potential(b);
      });
    } else {
      std::rotate(order.begin(), order.begin() + (rr_next_ % nq),
                  order.begin() + nq);
      rr_next_ = (rr_next_ + 1) % nq;
    }
    for (int oi = 0; oi < nq; ++oi) {
      const int c = order[to_size(oi)];
      const int heavy = balance_.heavy_side(c);
      if (!queues_[to_size(heavy)][to_size(c)].empty()) {
        v = queues_[to_size(heavy)][to_size(c)].pop_max();
        from = heavy;
        return true;
      }
    }
    wgt_t best_gain = 0;
    int bs = -1, bc = -1;
    for (int s = 0; s < 2; ++s) {
      for (int c = 0; c < nqueues_; ++c) {
        if (queues_[to_size(s)][to_size(c)].empty()) continue;
        const wgt_t gq = queues_[to_size(s)][to_size(c)].max_key();
        if (bs < 0 || gq > best_gain) {
          best_gain = gq;
          bs = s;
          bc = c;
        }
      }
    }
    if (bs < 0) return false;
    v = queues_[to_size(bs)][to_size(bc)].pop_max();
    from = bs;
    return true;
  }

  void commit(idx_t v, int from, sum_t& cut) {
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
      if (where_[su] == to) {
        id_[su] = checked_add(id_[su], w);
        ed_[su] = checked_sub(ed_[su], w);
      } else {
        id_[su] = checked_sub(id_[su], w);
        ed_[su] = checked_add(ed_[su], w);
      }
      if (moved_[su]) continue;
      BucketQueue& q = queue_of(u);
      if (ed_[su] > 0) {
        if (q.contains(u)) {
          q.update(u, gain(u));
        } else {
          q.insert(u, gain(u));
        }
      } else if (q.contains(u)) {
        q.remove(u);
      }
    }
  }

  const Graph& g_;
  std::vector<idx_t>& where_;
  QueuePolicy policy_;
  Rng& rng_;
  BisectionBalance balance_;
  std::vector<sum_t> id_, ed_;
  std::vector<char> moved_;
  std::vector<int> dom_;
  std::array<std::array<BucketQueue, kMaxNcon>, 2> queues_;
  int nqueues_ = 1;
  int rr_next_ = 0;
  std::vector<MoveRecord> log_;
};

/// Returns the number of passes run, counted like Refine2WayStats::passes.
int reference_refine_2way(const Graph& g, std::vector<idx_t>& where,
                          const BisectionTargets& targets, QueuePolicy policy,
                          int max_passes, Rng& rng) {
  const idx_t move_limit = std::max<idx_t>(64, g.nvtxs / 100);
  sum_t cut = compute_cut_2way(g, where);
  int passes = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    ReferenceFmPass fm(g, where, targets, policy, rng);
    const bool improved = fm.run(cut, move_limit);
    ++passes;
    if (!improved) break;
  }
  return passes;
}

TEST(Refine2Way, MatchesPerPassReference) {
  // Multi-pass calls under every queue policy, m 1/3/5, random and
  // striped starts, tight and loose tolerances, even and uneven targets:
  // keeping the FM state across passes must not change a single move.
  int multipass_round_robin = 0;
  for (const QueuePolicy policy :
       {QueuePolicy::kMostImbalanced, QueuePolicy::kRoundRobin,
        QueuePolicy::kSingleQueue}) {
    for (const int m : {1, 3, 5}) {
      for (const bool geometric : {false, true}) {
        Graph g = geometric ? random_geometric(900, 0, 41, m)
                            : grid2d(30, 30, m);
        apply_type_s_weights(g, m, 12, 0, 19, 43);
        for (const real_t ub : {1.02, 1.10}) {
          for (const real_t f0 : {0.5, 0.35}) {
            BisectionTargets t = even_targets(m, ub);
            t.f0 = f0;
            for (const std::uint64_t seed : {1ULL, 2ULL}) {
              std::vector<idx_t> where(to_size(g.nvtxs));
              if (geometric) {
                Rng start(seed);
                for (auto& s : where) {
                  s = static_cast<idx_t>(start.next_below(2));
                }
              } else {
                where = jagged_bisection(30, 30);
              }
              std::vector<idx_t> ref = where;
              Rng r1(seed + 100), r2(seed + 100);
              Refine2WayStats stats;
              const sum_t cut =
                  refine_2way(g, where, t, policy, 10, 0, r1, &stats);
              const int ref_passes =
                  reference_refine_2way(g, ref, t, policy, 10, r2);
              SCOPED_TRACE(testing::Message()
                           << "policy " << static_cast<int>(policy) << " m "
                           << m << " geometric " << geometric << " ub " << ub
                           << " f0 " << f0 << " seed " << seed);
              ASSERT_EQ(where, ref);
              EXPECT_EQ(cut, compute_cut_2way(g, ref));
              EXPECT_EQ(stats.passes, ref_passes);
              EXPECT_EQ(r1.next_u64(), r2.next_u64());  // same draws made
              if (policy == QueuePolicy::kRoundRobin && m > 1 &&
                  stats.passes > 2) {
                ++multipass_round_robin;
              }
            }
          }
        }
      }
    }
  }
  // The cursor reset only matters from a call's second pass on.
  EXPECT_GT(multipass_round_robin, 4);
}

TEST(Refine2Way, ParanoidAuditCleanOnReferenceMatrix) {
  // The MatchesPerPassReference matrix again, under a paranoid auditor:
  // it re-derives the carried degrees and the seeded boundary at every
  // pass start, so a slip in the rollback's inverse updates throws at the
  // pass after it. Auditing must not change a move either.
  InvariantAuditor audit(AuditLevel::kParanoid);
  RunContext audited;
  audited.audit = &audit;
  for (const QueuePolicy policy :
       {QueuePolicy::kMostImbalanced, QueuePolicy::kRoundRobin,
        QueuePolicy::kSingleQueue}) {
    for (const int m : {1, 3, 5}) {
      for (const bool geometric : {false, true}) {
        Graph g = geometric ? random_geometric(900, 0, 41, m)
                            : grid2d(30, 30, m);
        apply_type_s_weights(g, m, 12, 0, 19, 43);
        for (const real_t ub : {1.02, 1.10}) {
          for (const real_t f0 : {0.5, 0.35}) {
            BisectionTargets t = even_targets(m, ub);
            t.f0 = f0;
            for (const std::uint64_t seed : {1ULL, 2ULL}) {
              std::vector<idx_t> where(to_size(g.nvtxs));
              if (geometric) {
                Rng start(seed);
                for (auto& s : where) {
                  s = static_cast<idx_t>(start.next_below(2));
                }
              } else {
                where = jagged_bisection(30, 30);
              }
              std::vector<idx_t> ref = where;
              Rng r1(seed + 100), r2(seed + 100);
              SCOPED_TRACE(testing::Message()
                           << "policy " << static_cast<int>(policy) << " m "
                           << m << " geometric " << geometric << " ub " << ub
                           << " f0 " << f0 << " seed " << seed);
              ASSERT_NO_THROW(refine_2way(g, where, t, policy, 10, 0, r1,
                                          nullptr, audited));
              reference_refine_2way(g, ref, t, policy, 10, r2);
              ASSERT_EQ(where, ref);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(audit.count(AuditCheck::kBisectionState), 0u) << audit.summary();
  EXPECT_GT(audit.count(AuditCheck::kGainSample), 0u) << audit.summary();
}

TEST(Refine2Way, DegreesScannedOncePerCall) {
  // Degrees are computed from the adjacency once, in setup; later passes
  // inherit them exact from the moves and rollbacks.
  Graph g = grid2d(30, 30, 3);
  apply_type_s_weights(g, 3, 12, 0, 19, 43);
  std::vector<idx_t> where = jagged_bisection(30, 30);
  TraceRecorder trace;
  RunContext traced;
  traced.trace = &trace;
  Rng rng(5);
  Refine2WayStats stats;
  refine_2way(g, where, even_targets(3), QueuePolicy::kMostImbalanced, 10, 0,
              rng, &stats, traced);
  ASSERT_GE(stats.passes, 2);
  EXPECT_EQ(trace.counters().get("fm.degree_scans"), g.nvtxs);
  EXPECT_EQ(trace.counters().get("fm.passes"), stats.passes);
}

}  // namespace
}  // namespace mcgp
