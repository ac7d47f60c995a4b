// Public refine_partition() API: flat refinement of an existing
// decomposition after the weights changed (the adaptive use case), plus
// the repartitioning metrics that support it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "support/profiler.hpp"
#include "support/random.hpp"
#include "support/trace.hpp"

namespace mcgp {
namespace {

TEST(MovedVertices, CountsDifferences) {
  EXPECT_EQ(moved_vertices({0, 1, 2}, {0, 1, 2}), 0);
  EXPECT_EQ(moved_vertices({0, 1, 2}, {0, 2, 1}), 2);
  EXPECT_EQ(moved_vertices({}, {}), 0);
}

TEST(PartComponents, ContiguousStripes) {
  Graph g = grid2d(8, 8);
  std::vector<idx_t> part(64);
  for (idx_t v = 0; v < 64; ++v) part[to_size(v)] = v < 32 ? 0 : 1;
  EXPECT_EQ(count_part_components(g, part, 2), 2);
}

TEST(PartComponents, DetectsFragmentation) {
  Graph g = grid2d(8, 8);
  std::vector<idx_t> part(64, 0);
  part[0] = 1;   // corner island
  part[63] = 1;  // opposite corner island
  EXPECT_EQ(count_part_components(g, part, 2), 3);
}

TEST(RefinePartition, ImprovesAfterWeightDrift) {
  // Partition for one weight pattern, drift the weights, refine in place.
  Graph g = grid2d(40, 40);
  apply_type_s_weights(g, 3, 16, 0, 19, 1);
  Options o;
  o.nparts = 8;
  const PartitionResult initial = partition(g, o);

  // Drift: re-roll the region weights (new seed).
  apply_type_s_weights(g, 3, 16, 0, 19, 2);
  const real_t stale_imb = max_imbalance(g, initial.part, 8);

  const PartitionResult refined = refine_partition(g, initial.part, o);
  EXPECT_LE(refined.max_imbalance, stale_imb + 1e-9);
  EXPECT_LE(refined.max_imbalance, 1.20);  // usually back under tolerance
  EXPECT_TRUE(validate_partition(g, refined.part, 8, true).empty());

  // Migration should be modest compared to a from-scratch repartition.
  const PartitionResult scratch = partition(g, o);
  const idx_t migrated_refine = moved_vertices(initial.part, refined.part);
  const idx_t migrated_scratch = moved_vertices(initial.part, scratch.part);
  EXPECT_LT(migrated_refine, migrated_scratch);
}

TEST(RefinePartition, NoopOnGoodPartition) {
  Graph g = grid2d(24, 24);
  Options o;
  o.nparts = 4;
  const PartitionResult r = partition(g, o);
  const PartitionResult refined = refine_partition(g, r.part, o);
  EXPECT_LE(refined.cut, r.cut);
  EXPECT_LE(refined.max_imbalance, 1.05 + 1e-9);
}

TEST(RefinePartition, WorksWithPriorityQueueScheme) {
  Graph g = grid2d(20, 20);
  std::vector<idx_t> part(400);
  Rng rng(3);
  for (auto& p : part) p = static_cast<idx_t>(rng.next_below(4));
  const sum_t before = edge_cut(g, part);
  Options o;
  o.nparts = 4;
  o.kway_scheme = KWayRefineScheme::kPriorityQueue;
  const PartitionResult r = refine_partition(g, part, o);
  EXPECT_LT(r.cut, before);
  EXPECT_LE(r.max_imbalance, 1.05 + 1e-9);
}

TEST(RefinePartition, RejectsInvalidInput) {
  Graph g = grid2d(4, 4);
  Options o;
  o.nparts = 2;
  EXPECT_THROW(refine_partition(g, {0, 1}, o), std::invalid_argument);
  EXPECT_THROW(refine_partition(g, std::vector<idx_t>(16, 5), o),
               std::invalid_argument);
}

TEST(RefinePartition, RespectsTpwgts) {
  Graph g = grid2d(30, 30);
  Options o;
  o.nparts = 3;
  o.tpwgts = {0.5, 0.3, 0.2};
  const PartitionResult r = partition(g, o);
  const PartitionResult refined = refine_partition(g, r.part, o);
  EXPECT_LE(refined.max_imbalance, 1.05 + 0.02);
}

TEST(RefinePartition, EscalationHasItsOwnRebalanceBucket) {
  // Grid 13x13 at k=64 leaves ~2.6 vertices per part; with three Type-S
  // constraints the refiner's balancer exits overloaded from a stripe
  // start, so the call escalates to the rebalancer. That time belongs in
  // the ("rebalance", 0) bucket, as in MC-KW partition(), not folded into
  // the refiner's.
  Graph g = grid2d(13, 13, 3);
  apply_type_s_weights(g, 3, 8, 0, 19, 3);
  const idx_t k = 64;
  std::vector<idx_t> start(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) start[to_size(v)] = v * k / g.nvtxs;
  TraceRecorder trace;
  Options o;
  o.nparts = k;
  o.trace = &trace;
  const PartitionResult r = refine_partition(g, start, o);

  bool escalated = false;
  for (const TraceEvent& e : trace.events()) {
    if (std::string(e.name) == "rebalance") escalated = true;
  }
  ASSERT_TRUE(escalated) << "the start no longer needs the rebalancer";
  std::int64_t refine_scopes = 0, rebalance_scopes = 0;
  for (const ProfPhase& p : r.profile.phases) {
    if (p.phase == "kway_refine" && p.level == 0) {
      refine_scopes = p.stats.scopes;
    }
    if (p.phase == "rebalance" && p.level == 0) {
      rebalance_scopes = p.stats.scopes;
    }
  }
  EXPECT_EQ(refine_scopes, 1);
  EXPECT_EQ(rebalance_scopes, 1);
}

}  // namespace
}  // namespace mcgp
