#include "core/kway_driver.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "support/profiler.hpp"

namespace mcgp {
namespace {

Options kw_options(idx_t k, std::uint64_t seed = 1) {
  Options o;
  o.nparts = k;
  o.algorithm = Algorithm::kKWay;
  o.seed = seed;
  return o;
}

TEST(PartitionKWay, ValidForVariousK) {
  Graph g = grid2d(20, 20);
  for (const idx_t k : {1, 2, 5, 8, 16}) {
    Rng rng(1);
    const auto part = partition_kway(g, kw_options(k), rng);
    EXPECT_TRUE(validate_partition(g, part, k, k <= g.nvtxs).empty())
        << "k=" << k;
  }
}

TEST(PartitionKWay, SingleConstraintBalancedAndReasonable) {
  Graph g = grid2d(40, 40);
  Rng rng(2);
  const auto part = partition_kway(g, kw_options(8), rng);
  EXPECT_LE(max_imbalance(g, part, 8), 1.05 + 1e-9);
  // A 40x40 grid cut into 8 pieces: sane cuts are well under 600.
  EXPECT_LT(edge_cut(g, part), 600);
  EXPECT_GT(edge_cut(g, part), 0);
}

TEST(PartitionKWay, MultiConstraintFeasible) {
  Graph g = random_geometric(4000, 0, 11, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 13);
  Rng rng(3);
  const auto part = partition_kway(g, kw_options(16), rng);
  for (const real_t lb : imbalance(g, part, 16)) {
    EXPECT_LE(lb, 1.05 + 0.02);
  }
  EXPECT_TRUE(validate_partition(g, part, 16, true).empty());
}

TEST(PartitionKWay, DeterministicPerSeed) {
  Graph g = tri_grid2d(22, 22);
  Rng a(5), b(5);
  EXPECT_EQ(partition_kway(g, kw_options(6), a),
            partition_kway(g, kw_options(6), b));
}

TEST(PartitionKWay, K1Trivial) {
  Graph g = grid2d(5, 5);
  Rng rng(6);
  const auto part = partition_kway(g, kw_options(1), rng);
  for (const idx_t p : part) EXPECT_EQ(p, 0);
}

TEST(PartitionKWay, StatsPopulated) {
  Graph g = grid2d(60, 60);
  Rng rng(7);
  MlBisectStats stats;
  Profiler prof;
  Options o = kw_options(8);
  o.profile = &prof;
  partition_kway(g, o, rng, &stats);
  EXPECT_GT(stats.levels, 0);
  EXPECT_GT(stats.coarsest_nvtxs, 0);
  EXPECT_LT(stats.coarsest_nvtxs, 3600);
  // Without a run scope no thread is the run's, so the top-level phases
  // carry CPU time only.
  const std::map<std::string, PhaseClock> top = prof.top_level();
  ASSERT_TRUE(top.count("kway_refine"));
  EXPECT_GT(top.at("kway_refine").cpu_ns, 0);
  EXPECT_EQ(top.at("kway_refine").wall_ns, 0);
}

TEST(PartitionKWay, RespectsExplicitCoarsenTo) {
  Graph g = grid2d(50, 50);
  Options o = kw_options(4);
  o.coarsen_to = 800;
  Rng rng(8);
  MlBisectStats stats;
  partition_kway(g, o, rng, &stats);
  EXPECT_GE(stats.coarsest_nvtxs, 700);
  EXPECT_LE(stats.coarsest_nvtxs, 1700);
}

TEST(PartitionKWay, DisconnectedGraph) {
  GraphBuilder b(300, 1);
  for (idx_t v = 0; v < 149; ++v) b.add_edge(v, v + 1);
  for (idx_t v = 150; v < 299; ++v) b.add_edge(v, v + 1);
  Graph g = b.build();
  Rng rng(9);
  const auto part = partition_kway(g, kw_options(4), rng);
  EXPECT_TRUE(validate_partition(g, part, 4, true).empty());
  EXPECT_LE(max_imbalance(g, part, 4), 1.10);
}

TEST(PartitionKWay, TighterToleranceHonored) {
  Graph g = grid2d(40, 40);
  Options o = kw_options(4);
  o.ubvec = {1.02};
  Rng rng(10);
  const auto part = partition_kway(g, o, rng);
  EXPECT_LE(max_imbalance(g, part, 4), 1.02 + 1e-9);
}

}  // namespace
}  // namespace mcgp
