// Parameterized property sweeps across the full pipeline: every
// combination of (graph family, #constraints, k, algorithm) must produce a
// structurally valid, tolerably balanced partition with a sane cut.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "support/check.hpp"

namespace mcgp {
namespace {

enum class Family { kGrid2d, kTriGrid, kGrid3d, kGeometric, kFeMesh };

Graph make_family(Family f, int ncon) {
  switch (f) {
    case Family::kGrid2d:
      return grid2d(36, 36, ncon);
    case Family::kTriGrid:
      return tri_grid2d(30, 30, ncon);
    case Family::kGrid3d:
      return grid3d(11, 11, 11, ncon);
    case Family::kGeometric:
      return random_geometric(1300, 0, 77, ncon);
    case Family::kFeMesh:
      return fe_mesh(1300, 78, ncon);
  }
  return grid2d(4, 4);
}

const char* family_name(Family f) {
  switch (f) {
    case Family::kGrid2d: return "grid2d";
    case Family::kTriGrid: return "trigrid";
    case Family::kGrid3d: return "grid3d";
    case Family::kGeometric: return "geometric";
    case Family::kFeMesh: return "femesh";
  }
  return "?";
}

using SweepParam = std::tuple<Family, int, idx_t, Algorithm>;

class PipelineSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(PipelineSweep, ValidBalancedNonTrivial) {
  const auto [family, ncon, k, alg] = GetParam();
  Graph g = make_family(family, ncon);
  if (ncon > 1) apply_type_s_weights(g, ncon, 16, 0, 19, 1234);

  Options o;
  o.nparts = k;
  o.algorithm = alg;
  o.seed = 7;
  const PartitionResult r = partition(g, o);

  // Structural validity with non-empty parts.
  EXPECT_TRUE(validate_partition(g, r.part, k, true).empty())
      << family_name(family);

  // Balance: 5% tolerance with slack that grows with the difficulty of
  // the instance (the paper documents degradation at high m).
  const real_t slack = ncon <= 3 ? 0.02 : 0.06;
  for (const real_t lb : r.imbalance) {
    EXPECT_LE(lb, 1.05 + slack)
        << family_name(family) << " ncon=" << ncon << " k=" << k;
  }

  // Cut sanity: positive (k > 1 on connected-ish graphs) and far below
  // the total edge weight (a random partition would cut ~ (1-1/k) of it).
  sum_t total_ew = 0;
  for (const wgt_t w : g.adjwgt) total_ew = checked_add(total_ew, w);
  total_ew /= 2;
  EXPECT_GT(r.cut, 0);
  EXPECT_LT(r.cut, total_ew / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, PipelineSweep,
    testing::Combine(testing::Values(Family::kGrid2d, Family::kTriGrid,
                                     Family::kGrid3d, Family::kGeometric,
                                     Family::kFeMesh),
                     testing::Values(1, 2, 4),
                     testing::Values<idx_t>(2, 7, 16),
                     testing::Values(Algorithm::kRecursiveBisection,
                                     Algorithm::kKWay)),
    [](const testing::TestParamInfo<SweepParam>& pinfo) {
      std::string name = family_name(std::get<0>(pinfo.param));
      name += "_m" + std::to_string(std::get<1>(pinfo.param));
      name += "_k" + std::to_string(std::get<2>(pinfo.param));
      name += std::get<3>(pinfo.param) == Algorithm::kKWay ? "_kw" : "_rb";
      return name;
    });

/// Type-P (multi-phase) weights across both algorithms.
class TypePSweep
    : public testing::TestWithParam<std::tuple<int, Algorithm>> {};

TEST_P(TypePSweep, FeasibleOnPhaseWeights) {
  const auto [m, alg] = GetParam();
  Graph g = grid2d(40, 40, m);
  apply_type_p_weights(g, m, 32, 99);
  Options o;
  o.nparts = 8;
  o.algorithm = alg;
  const PartitionResult r = partition(g, o);
  EXPECT_TRUE(validate_partition(g, r.part, 8, true).empty());
  const real_t slack = m <= 3 ? 0.03 : 0.08;
  for (const real_t lb : r.imbalance) EXPECT_LE(lb, 1.05 + slack);
}

INSTANTIATE_TEST_SUITE_P(
    Phases, TypePSweep,
    testing::Combine(testing::Values(2, 3, 4, 5),
                     testing::Values(Algorithm::kRecursiveBisection,
                                     Algorithm::kKWay)),
    [](const testing::TestParamInfo<std::tuple<int, Algorithm>>& pinfo) {
      // Appended, not `"m" + ...`: GCC 12's -Wrestrict misfires on that
      // operator+ overload at -O3.
      std::string name = "m";
      name += std::to_string(std::get<0>(pinfo.param));
      name += std::get<1>(pinfo.param) == Algorithm::kKWay ? "_kw" : "_rb";
      return name;
    });

/// Determinism across the whole matrix: same options -> same partition.
class DeterminismSweep : public testing::TestWithParam<Algorithm> {};

TEST_P(DeterminismSweep, SameSeedSamePartition) {
  Graph g = random_geometric(900, 0, 5, 3);
  apply_type_s_weights(g, 3, 8, 0, 19, 55);
  Options o;
  o.nparts = 9;
  o.algorithm = GetParam();
  o.seed = 31337;
  const PartitionResult a = partition(g, o);
  const PartitionResult b = partition(g, o);
  EXPECT_EQ(a.part, b.part);
  EXPECT_EQ(a.cut, b.cut);
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, DeterminismSweep,
                         testing::Values(Algorithm::kRecursiveBisection,
                                         Algorithm::kKWay),
                         [](const testing::TestParamInfo<Algorithm>& pinfo) {
                           return pinfo.param == Algorithm::kKWay ? "kway"
                                                                 : "rb";
                         });

}  // namespace
}  // namespace mcgp
