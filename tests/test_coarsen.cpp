#include "core/coarsen.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace mcgp {
namespace {

TEST(ContractGraph, PairContractionByHand) {
  // Path 0-1-2-3; contract {0,1} and {2,3}.
  GraphBuilder b(4, 1);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 2, 3);
  b.add_edge(2, 3, 4);
  Graph g = b.build();
  Graph c = contract_graph(g, {0, 0, 1, 1}, 2);
  EXPECT_EQ(c.nvtxs, 2);
  EXPECT_EQ(c.nedges(), 1);
  EXPECT_EQ(c.adjwgt[to_size(c.xadj[0])], 3);  // only the 1-2 edge survives
  EXPECT_EQ(c.weight(0, 0), 2);
  EXPECT_EQ(c.weight(1, 0), 2);
  EXPECT_TRUE(c.validate().empty());
}

TEST(ContractGraph, MergesParallelCoarseEdges) {
  // Square 0-1-2-3-0; contract {0,1} and {2,3}: two parallel edges merge.
  GraphBuilder b(4, 1);
  b.add_edge(0, 1);
  b.add_edge(1, 2, 5);
  b.add_edge(2, 3);
  b.add_edge(3, 0, 7);
  Graph g = b.build();
  Graph c = contract_graph(g, {0, 0, 1, 1}, 2);
  EXPECT_EQ(c.nedges(), 1);
  EXPECT_EQ(c.adjwgt[to_size(c.xadj[0])], 12);
}

TEST(ContractGraph, PreservesWeightVectorTotals) {
  Graph g = random_geometric(500, 0, 9, 3);
  apply_type_s_weights(g, 3, 8, 0, 19, 4);
  Rng rng(1);
  const auto match = compute_matching(g, MatchScheme::kHeavyEdgeBalanced, rng);
  std::vector<idx_t> cmap;
  const idx_t nc = build_coarse_map(g, match, cmap);
  Graph c = contract_graph(g, cmap, nc);
  ASSERT_EQ(c.ncon, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.tvwgt[to_size(i)], g.tvwgt[to_size(i)]);
  }
  EXPECT_TRUE(c.validate().empty());
}

TEST(ContractGraph, EdgeWeightConservation) {
  // Total edge weight = surviving coarse edge weight + collapsed weight.
  Graph g = grid2d(12, 12);
  Rng rng(2);
  const auto match = compute_matching(g, MatchScheme::kHeavyEdge, rng);
  std::vector<idx_t> cmap;
  const idx_t nc = build_coarse_map(g, match, cmap);
  Graph c = contract_graph(g, cmap, nc);

  sum_t fine_total = 0, collapsed = 0;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      fine_total = checked_add(fine_total, g.adjwgt[to_size(e)]);
      if (cmap[to_size(v)] ==
          cmap[to_size(g.adjncy[to_size(e)])]) {
        collapsed = checked_add(collapsed, g.adjwgt[to_size(e)]);
      }
    }
  }
  sum_t coarse_total = 0;
  for (const wgt_t w : c.adjwgt) coarse_total = checked_add(coarse_total, w);
  EXPECT_EQ(coarse_total, checked_sub(fine_total, collapsed));
}

// The chunked parallel contraction path (pool attached, coarse graph
// larger than one chunk) must reproduce the serial output bit for bit:
// same xadj, same adjacency order within every row, same weights.
TEST(ContractGraph, ChunkedParallelPathBitIdenticalToSerial) {
  Graph g = grid2d(120, 120);  // 14400 vertices -> ~7200 coarse > one chunk
  apply_type_s_weights(g, 2, 10, 0, 9, 3);
  Rng rng(3);
  const auto match = compute_matching(g, MatchScheme::kHeavyEdge, rng);
  std::vector<idx_t> cmap;
  const idx_t nc = build_coarse_map(g, match, cmap);
  ASSERT_GT(nc, 4096) << "coarse graph too small to exercise chunking";

  const Graph serial = contract_graph(g, cmap, nc);

  ThreadPool pool(4);
  WorkspacePool wspool;
  RunContext exec;
  exec.pool = &pool;
  exec.wspool = &wspool;
  Workspace ws;
  const Graph chunked = contract_graph(g, cmap, nc, &ws, exec);

  EXPECT_EQ(chunked.xadj, serial.xadj);
  EXPECT_EQ(chunked.adjncy, serial.adjncy);
  EXPECT_EQ(chunked.adjwgt, serial.adjwgt);
  EXPECT_EQ(chunked.vwgt, serial.vwgt);
  EXPECT_TRUE(chunked.validate().empty());
  // The chunk tasks leased their scratch from the pool, so the pool's
  // footprint accounting must have seen them.
  EXPECT_GT(wspool.size(), 0);
  EXPECT_GT(wspool.footprint_bytes(), 0);
}

// A fine graph and hand-built cmap onto exactly `ncoarse` coarse vertices:
// every fifth coarse vertex is a singleton, the rest are pairs whose fine
// ids are scattered by a permutation, so the cmap is not ordered the way
// build_coarse_map orders it. The constituents of every eleventh coarse
// vertex are isolated. Each other coarse vertex's constituents connect to
// all constituents of three coarse neighbors, so up to four fine edges
// merge into one coarse edge, and one edge weight in four is zero. Pairs
// are joined by an edge that collapses; `match` records the pairs.
struct HandContraction {
  Graph g;
  std::vector<idx_t> cmap;
  std::vector<idx_t> match;
};

HandContraction hand_contraction(idx_t ncoarse) {
  std::vector<std::vector<idx_t>> members(to_size(ncoarse));
  idx_t nfine = 0;
  for (idx_t cv = 0; cv < ncoarse; ++cv) {
    const idx_t size = cv % 5 == 0 ? 1 : 2;
    for (idx_t i = 0; i < size; ++i) members[to_size(cv)].push_back(nfine++);
  }
  std::vector<idx_t> perm;
  Rng rng(static_cast<std::uint64_t>(ncoarse));
  random_permutation(nfine, perm, rng);
  HandContraction hc;
  hc.cmap.assign(to_size(nfine), -1);
  hc.match.assign(to_size(nfine), -1);
  for (idx_t cv = 0; cv < ncoarse; ++cv) {
    for (idx_t& v : members[to_size(cv)]) {
      v = perm[to_size(v)];
      hc.cmap[to_size(v)] = cv;
    }
    const auto& m = members[to_size(cv)];
    hc.match[to_size(m.front())] = m.back();
    hc.match[to_size(m.back())] = m.front();
  }
  GraphBuilder b(nfine, 2);
  for (idx_t v = 0; v < nfine; ++v) {
    b.set_weights(v, {1 + v % 7, v % 3});
  }
  const auto isolated = [](idx_t cv) { return cv % 11 == 3; };
  for (idx_t cv = 0; cv < ncoarse; ++cv) {
    if (isolated(cv)) continue;
    const auto& m = members[to_size(cv)];
    if (m.size() == 2) b.add_edge(m[0], m[1], 1 + cv % 3);
    for (const idx_t d : {1, 2, 97}) {
      const idx_t cu = (cv + d) % ncoarse;
      if (isolated(cu)) continue;
      for (const idx_t v : m) {
        for (const idx_t u : members[to_size(cu)]) {
          b.add_edge(v, u, static_cast<wgt_t>((v + u + d) % 4));
        }
      }
    }
  }
  hc.g = b.build();
  return hc;
}

// One row builder serves every pool size: the rows written at their
// bounded offsets and compacted must equal the unpooled contraction's,
// at coarse sizes around the chunk boundary (4096) and over several
// chunks, with and without a workspace, and build_coarse_map must number
// the same map at every pool size.
TEST(ContractGraph, ParallelRowsMatchSerialAtEveryPoolSize) {
  for (const idx_t ncoarse : {4095, 4096, 4097, 3 * 4096 + 1}) {
    const HandContraction hc = hand_contraction(ncoarse);
    ASSERT_TRUE(hc.g.validate().empty());
    const Graph serial = contract_graph(hc.g, hc.cmap, ncoarse);
    ASSERT_TRUE(serial.validate().empty());
    std::vector<idx_t> serial_cmap;
    const idx_t serial_nc = build_coarse_map(hc.g, hc.match, serial_cmap);
    ASSERT_EQ(serial_nc, ncoarse);

    for (const int threads : {0, 1, 2, 4, 8}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      WorkspacePool wspool;
      RunContext exec;
      exec.pool = pool.get();
      exec.wspool = &wspool;
      Workspace ws;
      for (Workspace* w : {&ws, static_cast<Workspace*>(nullptr)}) {
        const Graph c = contract_graph(hc.g, hc.cmap, ncoarse, w, exec);
        const std::string where = "ncoarse=" + std::to_string(ncoarse) +
                                  " threads=" + std::to_string(threads) +
                                  (w != nullptr ? " ws" : " no ws");
        EXPECT_EQ(c.xadj, serial.xadj) << where;
        EXPECT_EQ(c.adjncy, serial.adjncy) << where;
        EXPECT_EQ(c.adjwgt, serial.adjwgt) << where;
        EXPECT_EQ(c.vwgt, serial.vwgt) << where;
      }
      std::vector<idx_t> cmap;
      EXPECT_EQ(build_coarse_map(hc.g, hc.match, cmap, exec), serial_nc);
      EXPECT_EQ(cmap, serial_cmap) << "threads=" << threads;
    }
  }
}

TEST(CoarsenGraph, ReachesTarget) {
  Graph g = grid2d(40, 40);
  CoarsenParams params;
  params.coarsen_to = 100;
  Rng rng(3);
  Hierarchy h = coarsen_graph(g, params, rng);
  EXPECT_GT(h.num_levels(), 2);
  EXPECT_LE(h.coarsest().nvtxs, 200);  // within a factor of the target
  // Strictly decreasing level sizes.
  for (int l = 1; l <= h.num_levels(); ++l) {
    EXPECT_LT(h.graph_at(l).nvtxs, h.graph_at(l - 1).nvtxs);
  }
}

TEST(CoarsenGraph, CmapsComposeToValidMaps) {
  Graph g = tri_grid2d(25, 25);
  CoarsenParams params;
  params.coarsen_to = 60;
  Rng rng(4);
  Hierarchy h = coarsen_graph(g, params, rng);
  for (int l = 0; l < h.num_levels(); ++l) {
    const Graph& fine = h.graph_at(l);
    const Graph& coarse = h.graph_at(l + 1);
    const auto& cmap = h.levels[to_size(l)].cmap;
    ASSERT_EQ(cmap.size(), to_size(fine.nvtxs));
    for (const idx_t cv : cmap) {
      ASSERT_GE(cv, 0);
      ASSERT_LT(cv, coarse.nvtxs);
    }
  }
}

TEST(CoarsenGraph, AllLevelsValidAndTotalsPreserved) {
  Graph g = random_geometric(1500, 0, 5, 2);
  apply_type_s_weights(g, 2, 8, 1, 9, 6);
  CoarsenParams params;
  params.coarsen_to = 80;
  Rng rng(5);
  Hierarchy h = coarsen_graph(g, params, rng);
  for (int l = 0; l <= h.num_levels(); ++l) {
    const Graph& cur = h.graph_at(l);
    EXPECT_TRUE(cur.validate().empty()) << "level " << l;
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(cur.tvwgt[to_size(i)], g.tvwgt[to_size(i)]);
    }
  }
}

TEST(CoarsenGraph, NoCoarseningWhenAlreadySmall) {
  Graph g = grid2d(5, 5);
  CoarsenParams params;
  params.coarsen_to = 100;
  Rng rng(6);
  Hierarchy h = coarsen_graph(g, params, rng);
  EXPECT_EQ(h.num_levels(), 0);
  EXPECT_EQ(&h.coarsest(), &g);
}

TEST(CoarsenGraph, StallsGracefullyOnStarGraph) {
  // A star matches only one pair per level from the hub; the reduction
  // test must kick in rather than looping forever.
  GraphBuilder b(500, 1);
  for (idx_t v = 1; v < 500; ++v) b.add_edge(0, v);
  Graph g = b.build();
  CoarsenParams params;
  params.coarsen_to = 10;
  Rng rng(7);
  Hierarchy h = coarsen_graph(g, params, rng);
  EXPECT_GT(h.coarsest().nvtxs, 10);  // stopped early
  EXPECT_LE(h.num_levels(), params.max_levels);
}

TEST(CoarsenGraph, ProjectionIdentityOnCut) {
  // A cut computed on a coarse partition equals the cut of its projection
  // (no edges change sides when a pair is wholly on one side).
  Graph g = grid2d(20, 20);
  CoarsenParams params;
  params.coarsen_to = 50;
  Rng rng(8);
  Hierarchy h = coarsen_graph(g, params, rng);
  const Graph& c = h.coarsest();
  std::vector<idx_t> cpart(to_size(c.nvtxs));
  for (idx_t v = 0; v < c.nvtxs; ++v) cpart[to_size(v)] = v % 2;
  // Project down through all levels.
  std::vector<idx_t> part = cpart;
  for (int l = h.num_levels() - 1; l >= 0; --l) {
    const auto& cmap = h.levels[to_size(l)].cmap;
    std::vector<idx_t> fine(cmap.size());
    for (std::size_t v = 0; v < cmap.size(); ++v) {
      fine[v] = part[to_size(cmap[v])];
    }
    part = std::move(fine);
  }
  EXPECT_EQ(edge_cut(g, part), edge_cut(c, cpart));
}

}  // namespace
}  // namespace mcgp
