#include "core/partitioner.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"

namespace mcgp {
namespace {

TEST(Partition, ResultFieldsConsistent) {
  Graph g = grid2d(25, 25);
  Options o;
  o.nparts = 6;
  const PartitionResult r = partition(g, o);
  EXPECT_TRUE(validate_partition(g, r.part, 6, true).empty());
  EXPECT_EQ(r.cut, edge_cut(g, r.part));
  ASSERT_EQ(r.imbalance.size(), 1u);
  EXPECT_DOUBLE_EQ(r.imbalance[0], max_imbalance(g, r.part, 6));
  EXPECT_DOUBLE_EQ(r.max_imbalance, r.imbalance[0]);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.coarsen_levels, 0);
}

TEST(Partition, BothAlgorithmsAgreeOnContract) {
  Graph g = tri_grid2d(30, 30);
  apply_type_s_weights(g, 2, 8, 0, 19, 3);
  for (const auto alg :
       {Algorithm::kRecursiveBisection, Algorithm::kKWay}) {
    Options o;
    o.nparts = 8;
    o.algorithm = alg;
    const PartitionResult r = partition(g, o);
    EXPECT_TRUE(validate_partition(g, r.part, 8, true).empty());
    EXPECT_LE(r.max_imbalance, 1.05 + 0.02);
    EXPECT_GT(r.cut, 0);
  }
}

TEST(Partition, RejectsBadOptions) {
  Graph g = grid2d(5, 5);
  Options o;
  o.nparts = 0;
  EXPECT_THROW(partition(g, o), std::invalid_argument);
  o.nparts = 2;
  o.ubvec = {0.9};
  EXPECT_THROW(partition(g, o), std::invalid_argument);
  o.ubvec = {1.05, 1.05};  // arity mismatch for ncon == 1... allowed? no:
  EXPECT_THROW(partition(g, o), std::invalid_argument);
}

// Every Options field a caller can set out of range is rejected by both
// entry points with a message naming the field, instead of silently
// running some default branch.
TEST(Partition, RejectsHostileOptions) {
  // (field the message must name, options with that field out of range)
  std::vector<std::pair<const char*, Options>> cases;
  auto add = [&cases](const char* field) -> Options& {
    cases.emplace_back(field, Options{});
    cases.back().second.nparts = 4;
    return cases.back().second;
  };
  add("algorithm").algorithm = static_cast<Algorithm>(99);
  add("algorithm").algorithm = static_cast<Algorithm>(-1);
  add("matching").matching = static_cast<MatchScheme>(99);
  add("kway_scheme").kway_scheme = static_cast<KWayRefineScheme>(99);
  add("init_scheme").init_scheme = static_cast<InitScheme>(99);
  add("queue_policy").queue_policy = static_cast<QueuePolicy>(99);
  add("audit_level").audit_level = static_cast<AuditLevel>(99);
  add("init_trials").init_trials = 0;
  add("init_trials").init_trials = -5;
  add("refine_passes").refine_passes = -1;
  add("kway_passes").kway_passes = -1;
  add("coarsen_to").coarsen_to = -1;
  add("fm_move_limit").fm_move_limit = -1;
  add("min_coarsen_reduction").min_coarsen_reduction =
      std::numeric_limits<real_t>::quiet_NaN();
  add("min_coarsen_reduction").min_coarsen_reduction = 0.0;
  add("min_coarsen_reduction").min_coarsen_reduction = 1.5;

  Graph g = grid2d(12, 12);
  const std::vector<idx_t> start(to_size(g.nvtxs), 0);
  for (const auto& [field, o] : cases) {
    for (const bool refine : {false, true}) {
      try {
        if (refine) {
          refine_partition(g, start, o);
        } else {
          partition(g, o);
        }
        ADD_FAILURE() << field << " accepted (refine=" << refine << ")";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
  }
  // The in-range edges stay accepted: 0 = automatic for coarsen_to and
  // fm_move_limit, zero passes, and a reduction factor of exactly 1.
  Options o;
  o.nparts = 4;
  o.coarsen_to = 0;
  o.fm_move_limit = 0;
  o.refine_passes = 0;
  o.kway_passes = 0;
  o.min_coarsen_reduction = 1.0;
  EXPECT_NO_THROW(partition(g, o));
  EXPECT_NO_THROW(refine_partition(g, start, o));
}

TEST(Partition, SingleUbBroadcasts) {
  Graph g = grid2d(20, 20, 3);
  apply_type_s_weights(g, 3, 8, 0, 9, 5);
  Options o;
  o.nparts = 4;
  o.ubvec = {1.10};  // one entry for three constraints
  const PartitionResult r = partition(g, o);
  EXPECT_LE(r.max_imbalance, 1.10 + 0.02);
}

TEST(Partition, EmptyGraph) {
  Graph g = make_graph(0, 1, {0}, {});
  Options o;
  o.nparts = 4;
  const PartitionResult r = partition(g, o);
  EXPECT_TRUE(r.part.empty());
  EXPECT_EQ(r.cut, 0);
}

TEST(Partition, PhaseTimesRecorded) {
  Graph g = grid2d(40, 40);
  Options o;
  o.nparts = 8;
  const PartitionResult r = partition(g, o);
  // MC-KW's top-level profiler phases, from the internally attached
  // profiler: coarsening and refinement both ran on the calling thread.
  std::map<std::string, PhaseTime> by_name;
  double wall_s = 0;
  for (const PhaseTime& p : r.phases) {
    by_name[p.phase] = p;
    wall_s += p.wall_s;
  }
  ASSERT_EQ(by_name.size(), r.phases.size());  // one entry per phase
  ASSERT_TRUE(by_name.count("coarsen.matching"));
  ASSERT_TRUE(by_name.count("kway_refine"));
  EXPECT_GT(by_name["coarsen.matching"].wall_s, 0.0);
  EXPECT_GT(by_name["kway_refine"].wall_s, 0.0);
  EXPECT_GT(by_name["kway_refine"].cpu_s, 0.0);
  EXPECT_GE(r.unattributed_s, 0.0);
  EXPECT_NEAR(wall_s + r.unattributed_s, r.seconds, 1e-6);
}

TEST(Partition, SeedChangesResultButNotQualityClass) {
  Graph g = grid2d(30, 30);
  Options o;
  o.nparts = 4;
  o.seed = 1;
  const PartitionResult r1 = partition(g, o);
  o.seed = 2;
  const PartitionResult r2 = partition(g, o);
  EXPECT_NE(r1.part, r2.part);
  // Cuts of different seeds stay within a reasonable band of each other.
  const double ratio = static_cast<double>(r1.cut) / static_cast<double>(r2.cut);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(Partition, SingleConstraintIsBaselinePath) {
  // ncon == 1 must behave like a classical partitioner: tight balance and
  // near-optimal cuts on a structured mesh.
  Graph g = grid2d(32, 32);
  Options o;
  o.nparts = 2;
  o.algorithm = Algorithm::kRecursiveBisection;
  const PartitionResult r = partition(g, o);
  EXPECT_LE(r.cut, 48);  // optimal 32
  EXPECT_LE(r.max_imbalance, 1.05);
}

}  // namespace
}  // namespace mcgp
