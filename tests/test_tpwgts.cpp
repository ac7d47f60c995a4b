// Per-part target fractions (tpwgts): heterogeneous part sizes with every
// constraint balanced against the prescribed fractions.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "support/check.hpp"

namespace mcgp {
namespace {

TEST(TargetImbalanceMetric, UniformMatchesPlainImbalance) {
  Graph g = grid2d(10, 10);
  std::vector<idx_t> part(100);
  for (idx_t v = 0; v < 100; ++v) part[to_size(v)] = v % 4;
  const auto plain = imbalance(g, part, 4);
  const auto targeted = target_imbalance(g, part, 4, {0.25, 0.25, 0.25, 0.25});
  ASSERT_EQ(plain.size(), targeted.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_NEAR(plain[i], targeted[i], 1e-12);
  }
}

TEST(TargetImbalanceMetric, DetectsDeviationFromTargets) {
  GraphBuilder b(4, 1);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  Graph g = b.build();
  // 50/50 split against 75/25 targets: part 1 holds 0.5 but targets 0.25.
  const auto lb = target_imbalance(g, {0, 0, 1, 1}, 2, {0.75, 0.25});
  EXPECT_NEAR(lb[0], 2.0, 1e-12);
}

class TpwgtsBothAlgorithms : public testing::TestWithParam<Algorithm> {};

TEST_P(TpwgtsBothAlgorithms, HitsSkewedTargetsSingleConstraint) {
  Graph g = grid2d(40, 40);
  Options o;
  o.nparts = 4;
  o.algorithm = GetParam();
  o.tpwgts = {0.4, 0.3, 0.2, 0.1};
  const PartitionResult r = partition(g, o);
  EXPECT_TRUE(validate_partition(g, r.part, 4, true).empty());
  EXPECT_LE(r.max_imbalance, 1.05 + 0.02);

  // The realized shares should track the requested fractions.
  const auto pw = part_weights(g, r.part, 4);
  for (idx_t p = 0; p < 4; ++p) {
    const double share = static_cast<double>(pw[to_size(p)]) /
                         static_cast<double>(g.tvwgt[0]);
    EXPECT_NEAR(share, o.tpwgts[to_size(p)], 0.03)
        << "part " << p;
  }
}

TEST_P(TpwgtsBothAlgorithms, HitsSkewedTargetsMultiConstraint) {
  Graph g = random_geometric(2500, 0, 21, 3);
  apply_type_s_weights(g, 3, 16, 0, 19, 77);
  Options o;
  o.nparts = 5;
  o.algorithm = GetParam();
  o.tpwgts = {0.3, 0.25, 0.2, 0.15, 0.1};
  const PartitionResult r = partition(g, o);
  EXPECT_TRUE(validate_partition(g, r.part, 5, true).empty());
  // Every constraint balanced against the skewed fractions.
  EXPECT_LE(r.max_imbalance, 1.05 + 0.06);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TpwgtsBothAlgorithms,
                         testing::Values(Algorithm::kRecursiveBisection,
                                         Algorithm::kKWay),
                         [](const testing::TestParamInfo<Algorithm>& pinfo) {
                           return pinfo.param == Algorithm::kKWay ? "kway"
                                                                 : "rb";
                         });

TEST(Tpwgts, ValidationRejectsBadVectors) {
  Graph g = grid2d(8, 8);
  Options o;
  o.nparts = 3;
  o.tpwgts = {0.5, 0.5};  // wrong size
  EXPECT_THROW(partition(g, o), std::invalid_argument);
  o.tpwgts = {0.5, 0.5, 0.5};  // does not sum to 1
  EXPECT_THROW(partition(g, o), std::invalid_argument);
  o.tpwgts = {1.2, -0.1, -0.1};  // non-positive entries
  EXPECT_THROW(partition(g, o), std::invalid_argument);
}

// NaN compares false both ways, so a check written as `f <= 0` or
// `total < 0.999 || total > 1.001` lets it through and the run reports a
// feasible verdict against a meaningless target. Every non-finite entry
// must be rejected by both entry points.
TEST(Tpwgts, NonFiniteTargetsRejected) {
  Graph g = grid2d(40, 40);
  apply_type_s_weights(g, 3, 8, 0, 19, 7);
  const idx_t k = 8;
  std::vector<idx_t> start(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) start[to_size(v)] = v * k / g.nvtxs;
  for (const real_t bad : {std::numeric_limits<real_t>::quiet_NaN(),
                           std::numeric_limits<real_t>::infinity()}) {
    for (const Algorithm alg :
         {Algorithm::kRecursiveBisection, Algorithm::kKWay}) {
      Options o;
      o.nparts = k;
      o.algorithm = alg;
      o.tpwgts.assign(to_size(k), 0.125);
      o.tpwgts[0] = bad;
      EXPECT_THROW(partition(g, o), std::invalid_argument) << bad;
      EXPECT_THROW(refine_partition(g, start, o), std::invalid_argument)
          << bad;
    }
  }
}

TEST(Tpwgts, UniformExplicitMatchesDefaultQuality) {
  Graph g = grid2d(24, 24);
  Options a;
  a.nparts = 4;
  Options b = a;
  b.tpwgts = {0.25, 0.25, 0.25, 0.25};
  const PartitionResult ra = partition(g, a);
  const PartitionResult rb = partition(g, b);
  // Same tolerance behaviour; cuts in the same band.
  EXPECT_LE(rb.max_imbalance, 1.05 + 0.01);
  EXPECT_LT(static_cast<double>(rb.cut), 2.0 * static_cast<double>(ra.cut) + 8);
}

TEST(Tpwgts, ExtremeSkew) {
  Graph g = grid2d(30, 30);
  Options o;
  o.nparts = 2;
  o.tpwgts = {0.9, 0.1};
  const PartitionResult r = partition(g, o);
  const auto pw = part_weights(g, r.part, 2);
  const double share0 = static_cast<double>(pw[0]) / 900.0;
  EXPECT_NEAR(share0, 0.9, 0.03);
  // The small part should be much cheaper to cut off than a bisection.
  Options even;
  even.nparts = 2;
  const PartitionResult re = partition(g, even);
  EXPECT_LT(r.cut, checked_add(re.cut, 10));
}

}  // namespace
}  // namespace mcgp
