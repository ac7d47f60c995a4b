#include "core/rb_driver.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "support/profiler.hpp"

namespace mcgp {
namespace {

Options rb_options(idx_t k, std::uint64_t seed = 1) {
  Options o;
  o.nparts = k;
  o.algorithm = Algorithm::kRecursiveBisection;
  o.seed = seed;
  return o;
}

TEST(MultilevelBisect, GridCutNearOptimal) {
  Graph g = grid2d(32, 32);
  BisectionTargets t;
  t.f0 = 0.5;
  t.ub = {1.05};
  Options o;
  Rng rng(1);
  std::vector<idx_t> where;
  MlBisectStats stats;
  const sum_t cut = multilevel_bisect(g, where, t, o, rng, &stats);
  // Optimal is 32 (straight cut); multilevel should land close.
  EXPECT_LE(cut, 48);
  EXPECT_GT(stats.levels, 1);
  EXPECT_EQ(stats.cut, cut);
  BisectionBalance b;
  b.init(g, where, t);
  EXPECT_LE(b.potential(), 1.0 + 1e-9);
}

TEST(MultilevelBisect, MultiConstraintFeasible) {
  Graph g = tri_grid2d(40, 40);
  apply_type_s_weights(g, 3, 16, 0, 19, 3);
  BisectionTargets t;
  t.f0 = 0.5;
  t.ub.assign(3, 1.05);
  Options o;
  Rng rng(2);
  std::vector<idx_t> where;
  multilevel_bisect(g, where, t, o, rng);
  BisectionBalance b;
  b.init(g, where, t);
  EXPECT_LE(b.potential(), 1.0 + 0.01);
}

TEST(PartitionRB, ValidPartitionAllK) {
  Graph g = grid2d(18, 18);
  for (const idx_t k : {1, 2, 3, 5, 8, 13}) {
    Rng rng(3);
    const auto part = partition_recursive_bisection(g, rb_options(k), rng);
    EXPECT_TRUE(validate_partition(g, part, k, k <= g.nvtxs).empty())
        << "k=" << k;
  }
}

TEST(PartitionRB, NonPowerOfTwoBalanced) {
  Graph g = grid2d(30, 30);
  Rng rng(4);
  const auto part = partition_recursive_bisection(g, rb_options(7), rng);
  EXPECT_LE(max_imbalance(g, part, 7), 1.05 + 0.01);
  EXPECT_GT(edge_cut(g, part), 0);
}

TEST(PartitionRB, MultiConstraintBalanced) {
  Graph g = random_geometric(3000, 0, 7, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 5);
  Rng rng(5);
  const auto part = partition_recursive_bisection(g, rb_options(8), rng);
  for (const real_t lb : imbalance(g, part, 8)) {
    EXPECT_LE(lb, 1.05 + 0.02);
  }
}

TEST(PartitionRB, DeterministicPerSeed) {
  Graph g = grid2d(20, 20, 2);
  apply_type_s_weights(g, 2, 8, 0, 9, 7);
  Rng a(42), b(42), c(99);
  const auto p1 = partition_recursive_bisection(g, rb_options(4), a);
  const auto p2 = partition_recursive_bisection(g, rb_options(4), b);
  EXPECT_EQ(p1, p2);
  const auto p3 = partition_recursive_bisection(g, rb_options(4), c);
  EXPECT_NE(p1, p3);  // overwhelmingly likely
}

TEST(PartitionRB, K1TrivialAndKEqualsN) {
  Graph g = grid2d(4, 4);
  Rng rng(6);
  const auto p1 = partition_recursive_bisection(g, rb_options(1), rng);
  for (const idx_t p : p1) EXPECT_EQ(p, 0);
  const auto pn = partition_recursive_bisection(g, rb_options(16), rng);
  EXPECT_TRUE(validate_partition(g, pn, 16, true).empty());
}

TEST(PartitionRB, KGreaterThanN) {
  Graph g = grid2d(3, 3);
  Rng rng(7);
  const auto part = partition_recursive_bisection(g, rb_options(20), rng);
  EXPECT_TRUE(validate_partition(g, part, 20).empty());
  // Each vertex alone (9 non-empty parts).
  std::vector<idx_t> count(20, 0);
  for (const idx_t p : part) ++count[to_size(p)];
  for (const idx_t c : count) EXPECT_LE(c, 1);
}

TEST(PartitionRB, DisconnectedGraph) {
  GraphBuilder b(200, 1);
  for (idx_t v = 0; v < 99; ++v) b.add_edge(v, v + 1);
  for (idx_t v = 100; v < 199; ++v) b.add_edge(v, v + 1);
  Graph g = b.build();
  Rng rng(8);
  const auto part = partition_recursive_bisection(g, rb_options(4), rng);
  EXPECT_TRUE(validate_partition(g, part, 4, true).empty());
  EXPECT_LE(max_imbalance(g, part, 4), 1.10);
}

TEST(PartitionRB, StatsPopulated) {
  Graph g = grid2d(25, 25);
  Rng rng(9);
  MlBisectStats stats;
  Profiler prof;
  Options o = rb_options(4);
  partition_recursive_bisection(g, o, rng, &stats, nullptr, &prof);
  EXPECT_GT(stats.levels, 0);
  EXPECT_GT(stats.coarsest_nvtxs, 0);
  const std::map<std::string, PhaseClock> top = prof.top_level();
  for (const char* phase : {"coarsen.matching", "initpart", "refine2way"}) {
    ASSERT_TRUE(top.count(phase)) << phase;
    EXPECT_GT(top.at(phase).cpu_ns, 0) << phase;
  }
}

TEST(PartitionRB, CutScalesWithK) {
  Graph g = grid2d(24, 24);
  Rng r1(10), r2(10);
  const auto p4 = partition_recursive_bisection(g, rb_options(4), r1);
  const auto p16 = partition_recursive_bisection(g, rb_options(16), r2);
  EXPECT_LT(edge_cut(g, p4), edge_cut(g, p16));
}

}  // namespace
}  // namespace mcgp
