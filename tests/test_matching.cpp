#include "core/matching.hpp"

#include <gtest/gtest.h>

#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "support/thread_pool.hpp"

namespace mcgp {
namespace {

bool is_valid_matching(const Graph& g, const std::vector<idx_t>& match) {
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t u = match[to_size(v)];
    if (u < 0 || u >= g.nvtxs) return false;
    if (match[to_size(u)] != v) return false;  // involution
    if (u != v) {
      bool adjacent = false;
      for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
        if (g.adjncy[to_size(e)] == u) {
          adjacent = true;
          break;
        }
      }
      if (!adjacent) return false;
    }
  }
  return true;
}

class MatchingSchemes : public testing::TestWithParam<MatchScheme> {};

TEST_P(MatchingSchemes, ValidOnGrid) {
  Graph g = grid2d(17, 13);
  Rng rng(1);
  const auto match = compute_matching(g, GetParam(), rng);
  EXPECT_TRUE(is_valid_matching(g, match));
}

TEST_P(MatchingSchemes, ValidOnGeometric) {
  Graph g = random_geometric(800, 0, 3, 2);
  apply_type_s_weights(g, 2, 8, 0, 9, 5);
  Rng rng(2);
  const auto match = compute_matching(g, GetParam(), rng);
  EXPECT_TRUE(is_valid_matching(g, match));
}

TEST_P(MatchingSchemes, MatchesMostVerticesOnGrid) {
  Graph g = grid2d(20, 20);
  Rng rng(7);
  const auto match = compute_matching(g, GetParam(), rng);
  idx_t matched = 0;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    if (match[to_size(v)] != v) ++matched;
  }
  // Greedy maximal matchings on grids pair the large majority of vertices.
  EXPECT_GT(matched, g.nvtxs / 2);
}

TEST_P(MatchingSchemes, DeterministicPerSeed) {
  Graph g = tri_grid2d(15, 15);
  Rng a(42), b(42), c(43);
  EXPECT_EQ(compute_matching(g, GetParam(), a),
            compute_matching(g, GetParam(), b));
  // Different seed very likely differs.
  Rng a2(42);
  EXPECT_NE(compute_matching(g, GetParam(), a2),
            compute_matching(g, GetParam(), c));
}

TEST_P(MatchingSchemes, IsolatedVerticesStayUnmatched) {
  GraphBuilder b(5, 1);
  b.add_edge(0, 1);
  Graph g = b.build();
  Rng rng(1);
  const auto match = compute_matching(g, GetParam(), rng);
  EXPECT_TRUE(is_valid_matching(g, match));
  for (idx_t v = 2; v < 5; ++v) EXPECT_EQ(match[to_size(v)], v);
}

// Above kHandshakeMinVtxs the handshake-round path engages; it must still
// produce a valid MAXIMAL matching (the serial cleanup guarantees no two
// unmatched neighbors remain).
TEST_P(MatchingSchemes, HandshakePathValidAndMaximal) {
  Graph g = grid2d(96, 96);  // 9216 vertices >= kHandshakeMinVtxs
  ASSERT_GE(g.nvtxs, kHandshakeMinVtxs);
  Rng rng(11);
  const auto match = compute_matching(g, GetParam(), rng);
  EXPECT_TRUE(is_valid_matching(g, match));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    if (match[to_size(v)] != v) continue;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      EXPECT_NE(match[to_size(g.adjncy[to_size(e)])],
                g.adjncy[to_size(e)])
          << "unmatched neighbors " << v << " and " << g.adjncy[to_size(e)];
    }
  }
}

// The handshake propose/accept phases are chunk tasks; running them on a
// pool must yield the bit-identical matching the inline execution does.
TEST_P(MatchingSchemes, PooledHandshakeBitIdenticalToInline) {
  Graph g = grid2d(96, 96);
  apply_type_s_weights(g, 2, 8, 0, 9, 5);
  Rng a(5), b(5);
  std::vector<idx_t> inline_match, pooled_match;
  compute_matching_into(g, GetParam(), a, inline_match);

  ThreadPool pool(4);
  RunContext exec;
  exec.pool = &pool;
  Workspace ws;
  compute_matching_into(g, GetParam(), b, pooled_match, &ws, exec);
  EXPECT_EQ(pooled_match, inline_match);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MatchingSchemes,
                         testing::Values(MatchScheme::kRandom,
                                         MatchScheme::kHeavyEdge,
                                         MatchScheme::kHeavyEdgeBalanced));

TEST(HeavyEdgeMatching, PrefersHeavyEdges) {
  // Triangle with one heavy edge. HEM is visit-order dependent (when
  // vertex 2 goes first it can steal an endpoint), but whenever 0 or 1 is
  // visited first the heavy edge must be collapsed — i.e. in ~2/3 of
  // random orders. Require a clear majority across seeds.
  GraphBuilder b(3, 1);
  b.add_edge(0, 1, 100);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 0, 1);
  Graph g = b.build();
  int heavy_collapsed = 0;
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const auto match = compute_matching(g, MatchScheme::kHeavyEdge, rng);
    if (match[0] == 1) ++heavy_collapsed;
  }
  EXPECT_GE(heavy_collapsed, 15);
}

TEST(BalancedEdgeScore, ZeroForSingleConstraint) {
  Graph g = grid2d(3, 3);
  EXPECT_DOUBLE_EQ(balanced_edge_score(g, 0, 1), 0.0);
}

TEST(BalancedEdgeScore, FlatterCombinationScoresLower) {
  // Vertices with complementary weight vectors combine to a flat vector.
  GraphBuilder b(4, 2);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.set_weights(0, {10, 0});
  b.set_weights(1, {0, 10});  // complementary -> flat sum
  b.set_weights(2, {10, 0});  // same profile -> skewed sum
  b.set_weights(3, {0, 10});  // keeps the totals symmetric
  Graph g = b.build();
  EXPECT_LT(balanced_edge_score(g, 0, 1), balanced_edge_score(g, 0, 2));
}

TEST(BalancedTieBreak, PicksComplementaryPartner) {
  // Vertex 0 has two equally heavy neighbors; the balanced scheme must
  // pick the complementary one, plain HEM has no preference.
  GraphBuilder b(4, 2);
  b.add_edge(0, 1, 5);
  b.add_edge(0, 2, 5);
  b.set_weights(0, {10, 0});
  b.set_weights(1, {0, 10});
  b.set_weights(2, {10, 0});
  b.set_weights(3, {5, 5});
  Graph g = b.build();
  int balanced_picks = 0;
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const auto match = compute_matching(g, MatchScheme::kHeavyEdgeBalanced, rng);
    // Whenever 0 is processed before 1 and 2 are taken, it must choose 1.
    if (match[0] == 1) ++balanced_picks;
    EXPECT_NE(match[0], 0);  // 0 always finds some partner
  }
  EXPECT_GT(balanced_picks, 10);
}

TEST(BuildCoarseMap, CountsAndCovers) {
  Graph g = grid2d(6, 6);
  Rng rng(5);
  const auto match = compute_matching(g, MatchScheme::kHeavyEdge, rng);
  std::vector<idx_t> cmap;
  const idx_t ncoarse = build_coarse_map(g, match, cmap);
  EXPECT_GT(ncoarse, 0);
  EXPECT_LT(ncoarse, g.nvtxs);
  std::vector<idx_t> count(to_size(ncoarse), 0);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    ASSERT_GE(cmap[to_size(v)], 0);
    ASSERT_LT(cmap[to_size(v)], ncoarse);
    ++count[to_size(cmap[to_size(v)])];
  }
  for (const idx_t c : count) {
    EXPECT_GE(c, 1);
    EXPECT_LE(c, 2);
  }
  // Matched pairs map to the same coarse vertex.
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    EXPECT_EQ(cmap[to_size(v)],
              cmap[to_size(match[to_size(v)])]);
  }
}

}  // namespace
}  // namespace mcgp
