#include "core/matching.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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
  // The first round's active list is every vertex: at least two chunks,
  // so the pooled run proposes and accepts concurrently.
  ASSERT_GT(g.nvtxs, kMatchChunk);
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

/// compute_matching() as it ran before the handshake rounds kept an
/// active list: every round proposes for every vertex (a matched vertex
/// proposes -1) and accepts over every vertex, then the serial greedy
/// cleanup visits the leftovers in ascending order.
idx_t reference_propose(const Graph& g, MatchScheme scheme,
                        const std::vector<idx_t>& match, idx_t v,
                        std::uint64_t round_seed) {
  const std::uint64_t vseed =
      mix_seed(round_seed, static_cast<std::uint64_t>(v));
  idx_t best = -1;
  wgt_t best_w = -1;
  real_t best_score = 1e300;
  std::uint64_t best_key = ~0ULL;
  for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
    const idx_t u = g.adjncy[to_size(e)];
    if (match[to_size(u)] >= 0) continue;
    const std::uint64_t key = mix_seed(vseed, static_cast<std::uint64_t>(u));
    const wgt_t w = g.adjwgt[to_size(e)];
    switch (scheme) {
      case MatchScheme::kRandom:
        if (key < best_key) {
          best_key = key;
          best = u;
        }
        break;
      case MatchScheme::kHeavyEdge:
        if (w > best_w || (w == best_w && key < best_key)) {
          best_w = w;
          best_key = key;
          best = u;
        }
        break;
      case MatchScheme::kHeavyEdgeBalanced: {
        if (w < best_w) break;
        const real_t score = balanced_edge_score(g, v, u);
        if (w > best_w || score < best_score ||
            (score == best_score && key < best_key)) {
          best_w = w;
          best_score = score;
          best_key = key;
          best = u;
        }
        break;
      }
    }
  }
  return best;
}

void reference_greedy(const Graph& g, MatchScheme scheme, Rng& rng,
                      std::vector<idx_t>& match,
                      const std::vector<idx_t>& order) {
  for (const idx_t v : order) {
    if (match[to_size(v)] >= 0) continue;
    idx_t best = -1;
    wgt_t best_w = -1;
    real_t best_score = 1e300;
    idx_t seen = 0;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      const idx_t u = g.adjncy[to_size(e)];
      if (match[to_size(u)] >= 0) continue;
      const wgt_t w = g.adjwgt[to_size(e)];
      switch (scheme) {
        case MatchScheme::kRandom:
          ++seen;
          if (rng.next_below(static_cast<std::uint64_t>(seen)) == 0) best = u;
          break;
        case MatchScheme::kHeavyEdge:
          if (w > best_w) {
            best_w = w;
            best = u;
          }
          break;
        case MatchScheme::kHeavyEdgeBalanced: {
          if (w < best_w) break;
          const real_t score = balanced_edge_score(g, v, u);
          if (w > best_w || score < best_score) {
            best_w = w;
            best_score = score;
            best = u;
          }
          break;
        }
      }
    }
    if (best >= 0) {
      match[to_size(v)] = best;
      match[to_size(best)] = v;
    } else {
      match[to_size(v)] = v;
    }
  }
}

std::vector<idx_t> reference_handshake(const Graph& g, MatchScheme scheme,
                                       Rng& rng) {
  const idx_t n = g.nvtxs;
  std::vector<idx_t> match(to_size(n), -1);
  std::vector<idx_t> proposal(to_size(n), -1);
  const std::uint64_t mseed = rng.next_u64();
  idx_t unmatched = n;
  for (int round = 0; round < 48; ++round) {
    if (unmatched < kHandshakeMinVtxs) break;
    const std::uint64_t round_seed =
        mix_seed(mseed, static_cast<std::uint64_t>(round));
    for (idx_t v = 0; v < n; ++v) {
      proposal[to_size(v)] =
          match[to_size(v)] >= 0
              ? idx_t{-1}
              : reference_propose(g, scheme, match, v, round_seed);
    }
    idx_t newly = 0;
    for (idx_t v = 0; v < n; ++v) {
      const idx_t u = proposal[to_size(v)];
      if (u >= 0 && proposal[to_size(u)] == v) {
        match[to_size(v)] = u;
        ++newly;
      }
    }
    unmatched -= newly;
    if (newly == 0) break;
  }
  std::vector<idx_t> order;
  for (idx_t v = 0; v < n; ++v) {
    if (match[to_size(v)] < 0) order.push_back(v);
  }
  reference_greedy(g, scheme, rng, match, order);
  return match;
}

// Rounds over the active list must reproduce the full-sweep rounds match
// for match, inline and on a pool, and leave the rng where they did.
TEST_P(MatchingSchemes, HandshakeMatchesFullSweepReference) {
  std::vector<Graph> graphs;
  graphs.push_back(grid2d(200, 200));
  graphs.push_back(random_geometric(20000, 0, 3, 3));
  graphs.push_back(fe_mesh(15000, 4));
  apply_type_s_weights(graphs[1], 3, 16, 0, 19, 7);
  apply_type_s_weights(graphs[2], 2, 12, 0, 9, 8);
  ThreadPool pool(4);
  for (const Graph& g : graphs) {
    ASSERT_GE(g.nvtxs, kHandshakeMinVtxs);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      Rng r_ref(seed);
      const std::vector<idx_t> expect =
          reference_handshake(g, GetParam(), r_ref);
      const std::uint64_t ref_next = r_ref.next_u64();
      for (const int threads : {1, 4}) {
        RunContext exec;
        exec.pool = threads > 1 ? &pool : nullptr;
        Workspace ws;
        Rng rng(seed);
        std::vector<idx_t> got;
        compute_matching_into(g, GetParam(), rng, got, &ws, exec);
        EXPECT_EQ(got, expect) << "n=" << g.nvtxs << " seed=" << seed
                               << " threads=" << threads;
        EXPECT_EQ(rng.next_u64(), ref_next);
      }
    }
  }
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
