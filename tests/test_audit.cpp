// InvariantAuditor: the checks must fire on deliberately corrupted state
// (negative tests — an auditor that cannot detect corruption is worse
// than none) and stay silent across healthy end-to-end runs at every
// level and thread count.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/audit.hpp"
#include "core/bisection.hpp"
#include "core/coarsen.hpp"
#include "core/kway_boundary.hpp"
#include "core/kway_refine.hpp"
#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "support/check.hpp"
#include "support/workspace.hpp"

namespace mcgp {
namespace {

Graph test_graph() { return grid2d(8, 8); }

TEST(CheckedArithmetic, PassesThroughInRangeValues) {
  EXPECT_EQ(checked_add(2, 3), 5);
  EXPECT_EQ(checked_sub(2, 5), -3);
  EXPECT_EQ(checked_mul(-4, 6), -24);
}

TEST(CheckedArithmetic, ThrowsOnOverflow) {
  const sum_t big = std::numeric_limits<sum_t>::max();
  const sum_t small = std::numeric_limits<sum_t>::min();
  EXPECT_THROW(checked_add(big, 1), AuditFailure);
  EXPECT_THROW(checked_sub(small, 1), AuditFailure);
  EXPECT_THROW(checked_mul(big, 2), AuditFailure);
}

TEST(AuditMacro, NullAuditorIsANoop) {
  InvariantAuditor* aud = nullptr;
  MCGP_AUDIT(aud, false);  // must not dereference or throw
}

TEST(AuditMacro, FailureMessageCarriesContext) {
  InvariantAuditor aud(AuditLevel::kBoundaries);
  try {
    MCGP_AUDIT_MSG(&aud, 1 == 2, "site: value ", 42);
    FAIL() << "expected AuditFailure";
  } catch (const AuditFailure& f) {
    const std::string what = f.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
    EXPECT_NE(what.find("42"), std::string::npos) << what;
  }
}

TEST(InvariantAuditor, LevelsGateBoundariesAndParanoid) {
  EXPECT_FALSE(InvariantAuditor(AuditLevel::kOff).boundaries());
  EXPECT_TRUE(InvariantAuditor(AuditLevel::kBoundaries).boundaries());
  EXPECT_FALSE(InvariantAuditor(AuditLevel::kBoundaries).paranoid());
  EXPECT_TRUE(InvariantAuditor(AuditLevel::kParanoid).boundaries());
  EXPECT_TRUE(InvariantAuditor(AuditLevel::kParanoid).paranoid());
}

TEST(InvariantAuditor, ParseAuditLevelRoundTrips) {
  AuditLevel lvl = AuditLevel::kOff;
  EXPECT_TRUE(parse_audit_level("boundaries", lvl));
  EXPECT_EQ(lvl, AuditLevel::kBoundaries);
  EXPECT_TRUE(parse_audit_level("2", lvl));
  EXPECT_EQ(lvl, AuditLevel::kParanoid);
  EXPECT_TRUE(parse_audit_level("off", lvl));
  EXPECT_EQ(lvl, AuditLevel::kOff);
  EXPECT_FALSE(parse_audit_level("verbose", lvl));
  EXPECT_EQ(lvl, AuditLevel::kOff);  // untouched on failure
}

TEST(InvariantAuditor, DetectsCorruptedCoarseVertexWeight) {
  const Graph fine = test_graph();
  Rng rng(7);
  Workspace ws;
  CoarsenParams cp;
  cp.coarsen_to = 20;
  Hierarchy h = coarsen_graph(fine, cp, rng, &ws);
  ASSERT_GE(h.num_levels(), 1);
  Graph& coarse = h.levels[0].graph;
  const std::vector<idx_t>& cmap = h.levels[0].cmap;

  InvariantAuditor aud(AuditLevel::kBoundaries);
  aud.check_coarse_level(fine, coarse, cmap, "test");  // healthy: no throw
  EXPECT_EQ(aud.count(AuditCheck::kCoarseLevel), 1u);

  coarse.vwgt[0] += 1;  // silently corrupt one coarse weight
  EXPECT_THROW(aud.check_coarse_level(fine, coarse, cmap, "test"),
               AuditFailure);
}

TEST(InvariantAuditor, DetectsCorruptedProjection) {
  const Graph fine = test_graph();
  Rng rng(7);
  Workspace ws;
  CoarsenParams cp;
  cp.coarsen_to = 20;
  const Hierarchy h = coarsen_graph(fine, cp, rng, &ws);
  ASSERT_GE(h.num_levels(), 1);
  const Graph& coarse = h.levels[0].graph;
  const std::vector<idx_t>& cmap = h.levels[0].cmap;

  std::vector<idx_t> cpart(to_size(coarse.nvtxs));
  for (idx_t v = 0; v < coarse.nvtxs; ++v) {
    cpart[to_size(v)] = v % 2;
  }
  std::vector<idx_t> fpart(to_size(fine.nvtxs));
  for (idx_t v = 0; v < fine.nvtxs; ++v) {
    fpart[to_size(v)] =
        cpart[to_size(cmap[to_size(v)])];
  }

  InvariantAuditor aud(AuditLevel::kBoundaries);
  aud.check_projection(fine, coarse, cmap, cpart, fpart, "test");

  fpart[3] = 1 - fpart[3];  // one vertex lands on the wrong side
  EXPECT_THROW(aud.check_projection(fine, coarse, cmap, cpart, fpart, "test"),
               AuditFailure);
}

TEST(InvariantAuditor, DetectsDriftedBisectionWeights) {
  const Graph g = test_graph();
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = v % 2;
  }
  BisectionTargets targets;
  targets.ub.assign(to_size(g.ncon), 1.5);
  BisectionBalance bal;
  bal.init(g, where, targets);

  InvariantAuditor aud(AuditLevel::kBoundaries);
  aud.check_bisection_weights(g, where, bal, "test");

  // Simulate a missed apply_move: where changes, bookkeeping does not.
  where[0] = 1 - where[0];
  EXPECT_THROW(aud.check_bisection_weights(g, where, bal, "test"),
               AuditFailure);
}

TEST(InvariantAuditor, DetectsWrongClaimedCut) {
  const Graph g = test_graph();
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = v % 2;
  }
  const sum_t cut = compute_cut_2way(g, where);

  InvariantAuditor aud(AuditLevel::kBoundaries);
  aud.check_bisection_cut(g, where, cut, "test");
  EXPECT_THROW(aud.check_bisection_cut(g, where, checked_add(cut, 1), "test"),
               AuditFailure);
}

TEST(InvariantAuditor, DetectsDriftedKWayState) {
  const Graph g = test_graph();
  const idx_t nparts = 4;
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = v % nparts;
  }
  std::vector<sum_t> pwgts(to_size(nparts) * to_size(g.ncon), 0);
  std::vector<idx_t> vcount(to_size(nparts), 0);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t p = where[to_size(v)];
    ++vcount[to_size(p)];
    for (int i = 0; i < g.ncon; ++i) {
      const std::size_t s = to_size(p) * to_size(g.ncon) + to_size(i);
      pwgts[s] = checked_add(pwgts[s], g.weight(v, i));
    }
  }

  InvariantAuditor aud(AuditLevel::kBoundaries);
  aud.check_kway_state(g, where, nparts, pwgts, &vcount, "test");

  pwgts[1] = checked_add(pwgts[1], 2);  // drifted part weight
  EXPECT_THROW(aud.check_kway_state(g, where, nparts, pwgts, &vcount, "test"),
               AuditFailure);
  pwgts[1] = checked_sub(pwgts[1], 2);
  vcount[2] -= 1;  // drifted vertex count
  EXPECT_THROW(aud.check_kway_state(g, where, nparts, pwgts, &vcount, "test"),
               AuditFailure);
}

TEST(InvariantAuditor, DetectsStaleKWayBoundary) {
  const Graph g = test_graph();
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = v < 32 ? 0 : 1;  // two halves of the 8x8 grid
  }
  const std::vector<idx_t> color(to_size(g.nvtxs), 0);
  KWayBoundary bnd(g, where, color);
  InvariantAuditor aud(AuditLevel::kParanoid);
  aud.check_kway_boundary(g, where, bnd, "test");

  where[0] = 1;  // moved behind the bookkeeping's back
  EXPECT_THROW(aud.check_kway_boundary(g, where, bnd, "test"), AuditFailure);
  bnd.moved(0, 0);  // reported: consistent again
  aud.check_kway_boundary(g, where, bnd, "test");
  EXPECT_EQ(aud.count(AuditCheck::kKWayState), 2u);
}

TEST(InvariantAuditor, DetectsStaleDeadCandidate) {
  const Graph g = test_graph();
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = v < 32 ? 0 : 1;  // two halves of the 8x8 grid
  }
  const std::vector<idx_t> color(to_size(g.nvtxs), 0);
  KWayBoundary bnd(g, where, color);
  InvariantAuditor aud(AuditLevel::kParanoid);

  // Vertex 28 (row 3) has internal degree 3 and one edge into part 1: a
  // true dead mark.
  bnd.mark_dead(28);
  aud.check_kway_boundary(g, where, bnd, "test");

  // Its neighbor 27 leaves for part 2. The move clears 28's mark; with
  // internal degree 2 against connectivity 1 and 1 it is dead again —
  // its external degree reaches its internal one, but no single part's
  // connectivity does.
  where[27] = 2;
  bnd.moved(27, 0);
  EXPECT_FALSE(bnd.dead(28));
  bnd.mark_dead(28);
  aud.check_kway_boundary(g, where, bnd, "test");

  // Neighbor 20 joins part 1: connectivity 2 to part 1 now reaches the
  // internal degree 1, so a mark planted after the move is stale.
  where[20] = 1;
  bnd.moved(20, 0);
  bnd.mark_dead(28);
  EXPECT_THROW(aud.check_kway_boundary(g, where, bnd, "test"), AuditFailure);
  EXPECT_EQ(aud.count(AuditCheck::kKWayState), 2u);
}

TEST(InvariantAuditor, DetectsStaleFmDegreesAndSeeding) {
  const Graph g = test_graph();
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = v < 32 ? 0 : 1;  // two halves of the 8x8 grid
  }
  std::vector<sum_t> id(to_size(g.nvtxs), 0), ed(to_size(g.nvtxs), 0);
  BucketQueue queued;
  queued.reset(g.nvtxs, 64, 2);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      sum_t& d = where[to_size(g.adjncy[to_size(e)])] == where[to_size(v)]
                     ? id[to_size(v)]
                     : ed[to_size(v)];
      d = checked_add(d, g.adjwgt[to_size(e)]);
    }
    if (ed[to_size(v)] > 0) queued.insert(v, 0, where[to_size(v)]);
  }
  InvariantAuditor aud(AuditLevel::kParanoid);
  aud.check_fm_state(g, where, id, ed, queued, "test");

  id[40] = checked_add(id[40], 1);  // a missed inverse update
  EXPECT_THROW(aud.check_fm_state(g, where, id, ed, queued, "test"),
               AuditFailure);
  id[40] = checked_sub(id[40], 1);
  queued.remove(30);  // a boundary vertex (row 3) left unseeded
  EXPECT_THROW(aud.check_fm_state(g, where, id, ed, queued, "test"),
               AuditFailure);
  queued.insert(30, 0, 0);
  queued.insert(0, 0, 0);  // an interior vertex seeded
  EXPECT_THROW(aud.check_fm_state(g, where, id, ed, queued, "test"),
               AuditFailure);
  queued.remove(0);
  aud.check_fm_state(g, where, id, ed, queued, "test");
  EXPECT_EQ(aud.count(AuditCheck::kBisectionState), 2u);
}

TEST(InvariantAuditor, DetectsStaleDrainDegrees) {
  const Graph g = test_graph();
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = v < 32 ? 0 : 1;  // two halves of the 8x8 grid
  }
  // Rows 3 and 4 touch the cut: internal degree 3, external 1 (ed - id =
  // -2); corners have 2 internal edges, every other vertex 3 or 4.
  std::vector<sum_t> ed_id(to_size(g.nvtxs), 0);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      const bool internal =
          where[to_size(g.adjncy[to_size(e)])] == where[to_size(v)];
      ed_id[to_size(v)] =
          internal ? checked_sub(ed_id[to_size(v)], g.adjwgt[to_size(e)])
                   : checked_add(ed_id[to_size(v)], g.adjwgt[to_size(e)]);
    }
  }
  EXPECT_EQ(ed_id[28], -2);
  InvariantAuditor aud(AuditLevel::kParanoid);
  aud.check_drain_degrees(g, where, ed_id, "test");

  where[28] = 1;  // moved without updating the cache
  EXPECT_THROW(aud.check_drain_degrees(g, where, ed_id, "test"),
               AuditFailure);
  where[28] = 0;
  ed_id[5] = checked_add(ed_id[5], 2);  // a drifted entry
  EXPECT_THROW(aud.check_drain_degrees(g, where, ed_id, "test"),
               AuditFailure);
  EXPECT_EQ(aud.count(AuditCheck::kKWayState), 1u);
}

TEST(AuditedPipeline, ParanoidDrainChecksItsDegreeCacheEveryEpisode) {
  // A 4x4 block start on a Type-P weighted grid is far out of balance:
  // the drain runs many episodes, and each one's cache must match.
  Graph g = grid2d(32, 32);
  apply_type_p_weights(g, 3, 16, 2003);
  const idx_t k = 16;
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = (v / 32) / 8 * 4 + (v % 32) / 8;
  }
  const std::vector<real_t> ub(3, 1.05);
  std::vector<idx_t> plain = where;
  Rng r1(1);
  kway_balance(g, k, plain, ub, r1);

  InvariantAuditor aud(AuditLevel::kParanoid);
  RunContext run;
  run.audit = &aud;
  Rng r2(1);
  kway_balance(g, k, where, ub, r2, nullptr, run);
  EXPECT_EQ(where, plain);  // auditing changes nothing
  // One state check at the end of the call, the rest are the drain's.
  EXPECT_GT(aud.count(AuditCheck::kKWayState), 10u);
}

TEST(InvariantAuditor, DetectsStaleGainAndCutDelta) {
  const Graph g = test_graph();
  std::vector<idx_t> where(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    where[to_size(v)] = v % 2;
  }
  sum_t idw = 0, edw = 0;
  for (idx_t e = g.xadj[0]; e < g.xadj[1]; ++e) {
    if (where[to_size(g.adjncy[to_size(e)])] == where[0]) {
      idw = checked_add(idw, g.adjwgt[to_size(e)]);
    } else {
      edw = checked_add(edw, g.adjwgt[to_size(e)]);
    }
  }
  InvariantAuditor aud(AuditLevel::kParanoid);
  aud.check_gain(g, where, 0, checked_sub(edw, idw), "test");
  EXPECT_THROW(
      aud.check_gain(g, where, 0, checked_add(checked_sub(edw, idw), 1),
                     "test"),
      AuditFailure);

  aud.check_cut_delta(10, 4, 6, "test");
  EXPECT_THROW(aud.check_cut_delta(10, 4, 7, "test"), AuditFailure);
}

TEST(InvariantAuditor, DetectsInvalidFinalPartition) {
  const Graph g = test_graph();
  std::vector<idx_t> part(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    part[to_size(v)] = v % 3;
  }
  InvariantAuditor aud(AuditLevel::kBoundaries);
  aud.check_final_partition(g, part, 3, edge_cut(g, part), "test");
  EXPECT_THROW(aud.check_final_partition(g, part, 2, edge_cut(g, part), "t"),
               AuditFailure);
  part[0] = -1;
  EXPECT_THROW(aud.check_final_partition(g, part, 3, 0, "t"), AuditFailure);
}

/// End-to-end: both algorithms, both audit levels, serial and threaded —
/// healthy pipelines must pass every seam check, and the counters must
/// show the seams were actually visited.
class AuditedPipeline
    : public testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(AuditedPipeline, FullRunPassesAllChecks) {
  const auto [alg, level, threads] = GetParam();
  Graph g = grid2d(24, 24);
  apply_type_s_weights(g, /*m=*/3, /*nregions=*/12, 0, 19, 42);

  InvariantAuditor audit(static_cast<AuditLevel>(level));
  Options opts;
  opts.nparts = 6;
  opts.num_threads = threads;
  opts.audit = &audit;
  opts.algorithm = alg == 0 ? Algorithm::kRecursiveBisection
                            : Algorithm::kKWay;

  const PartitionResult r = partition(g, opts);
  EXPECT_TRUE(validate_partition(g, r.part, opts.nparts).empty());
  EXPECT_GT(audit.count(AuditCheck::kCoarseLevel), 0u) << audit.summary();
  EXPECT_GT(audit.count(AuditCheck::kProjection), 0u) << audit.summary();
  EXPECT_GT(audit.count(AuditCheck::kBisectionState), 0u) << audit.summary();
  EXPECT_GT(audit.count(AuditCheck::kFinalPartition), 0u) << audit.summary();
  if (opts.algorithm == Algorithm::kKWay) {
    EXPECT_GT(audit.count(AuditCheck::kKWayState), 0u) << audit.summary();
  }
  if (static_cast<AuditLevel>(level) == AuditLevel::kParanoid) {
    EXPECT_GT(audit.count(AuditCheck::kGainSample), 0u) << audit.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgLevelThreads, AuditedPipeline,
    testing::Combine(testing::Values(0, 1),  // rb, kway
                     testing::Values(1, 2),  // boundaries, paranoid
                     testing::Values(1, 8)));

TEST(AuditedPipeline, AuditLevelOptionCreatesInternalAuditor) {
  Graph g = grid2d(12, 12);
  Options opts;
  opts.nparts = 4;
  opts.audit_level = AuditLevel::kBoundaries;
  // No external auditor: partition() builds its own. The observable
  // contract is simply that the audited run completes and validates.
  const PartitionResult r = partition(g, opts);
  EXPECT_TRUE(validate_partition(g, r.part, opts.nparts).empty());
}

TEST(AuditedPipeline, RefinePartitionHonorsAuditor) {
  Graph g = grid2d(16, 16);
  std::vector<idx_t> part(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    part[to_size(v)] = (v / 64) % 4;
  }
  InvariantAuditor audit(AuditLevel::kParanoid);
  Options opts;
  opts.nparts = 4;
  opts.audit = &audit;
  const PartitionResult r = refine_partition(g, part, opts);
  EXPECT_TRUE(validate_partition(g, r.part, opts.nparts).empty());
  EXPECT_GT(audit.count(AuditCheck::kKWayState), 0u) << audit.summary();
  EXPECT_GT(audit.count(AuditCheck::kFinalPartition), 0u) << audit.summary();
}

TEST(AuditOptions, OutOfRangeAuditLevelRejected) {
  Graph g = grid2d(4, 4);
  Options opts;
  opts.nparts = 2;
  opts.audit_level = static_cast<AuditLevel>(7);
  EXPECT_THROW(partition(g, opts), std::invalid_argument);
}

TEST(AuditOptions, NonFiniteToleranceRejected) {
  Graph g = grid2d(4, 4);
  Options opts;
  opts.nparts = 2;
  opts.ubvec = {std::numeric_limits<real_t>::infinity()};
  EXPECT_THROW(partition(g, opts), std::invalid_argument);
  opts.ubvec = {std::numeric_limits<real_t>::quiet_NaN()};
  EXPECT_THROW(partition(g, opts), std::invalid_argument);
  opts.ubvec = {0.9};
  EXPECT_THROW(partition(g, opts), std::invalid_argument);
}

}  // namespace
}  // namespace mcgp
