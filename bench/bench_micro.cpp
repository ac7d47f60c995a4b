// M1: google-benchmark microbenchmarks of the hot kernels: matching,
// contraction, 2-way FM refinement, k-way refinement, and the end-to-end
// partitioners.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/coarsen.hpp"
#include "core/kway_refine.hpp"
#include "core/matching.hpp"
#include "core/partitioner.hpp"
#include "core/refine2way.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/graph_ops.hpp"
#include "support/flight_recorder.hpp"
#include "support/profiler.hpp"
#include "support/thread_pool.hpp"
#include "support/workspace.hpp"

namespace {

using namespace mcgp;

Graph make_bench_graph(idx_t side, int m) {
  Graph g = grid2d(side, side);
  if (m > 1) apply_type_s_weights(g, m, 16, 0, 19, 42);
  return g;
}

void BM_Matching(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  Rng rng(1);
  for (auto _ : state) {
    auto match = compute_matching(g, MatchScheme::kHeavyEdgeBalanced, rng);
    benchmark::DoNotOptimize(match.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_Matching)->Args({200, 1})->Args({200, 3})->Args({400, 3});

void BM_MatchingWorkspace(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  Rng rng(1);
  Workspace ws;
  std::vector<idx_t> match;
  for (auto _ : state) {
    compute_matching_into(g, MatchScheme::kHeavyEdgeBalanced, rng, match,
                          &ws);
    benchmark::DoNotOptimize(match.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_MatchingWorkspace)->Args({200, 1})->Args({200, 3})->Args({400, 3});

void BM_Contract(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)), 3);
  Rng rng(1);
  const auto match = compute_matching(g, MatchScheme::kHeavyEdge, rng);
  std::vector<idx_t> cmap;
  const idx_t nc = build_coarse_map(g, match, cmap);
  for (auto _ : state) {
    Graph c = contract_graph(g, cmap, nc);
    benchmark::DoNotOptimize(c.adjncy.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nedges());
}
BENCHMARK(BM_Contract)->Arg(200)->Arg(400);

void BM_ContractWorkspace(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)), 3);
  Rng rng(1);
  const auto match = compute_matching(g, MatchScheme::kHeavyEdge, rng);
  std::vector<idx_t> cmap;
  const idx_t nc = build_coarse_map(g, match, cmap);
  Workspace ws;
  for (auto _ : state) {
    Graph c = contract_graph(g, cmap, nc, &ws);
    benchmark::DoNotOptimize(c.adjncy.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nedges());
}
BENCHMARK(BM_ContractWorkspace)->Arg(200)->Arg(400);

// Parallel handshake matching at t threads (t=1 runs the identical
// algorithm inline — the honest baseline, since the algorithm is selected
// by graph size, never by thread count). side=200 -> 40000 vertices, well
// above kHandshakeMinVtxs.
void BM_MatchingParallel(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)), 3);
  const int threads = static_cast<int>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  RunContext exec;
  exec.pool = pool.get();
  Rng rng(1);
  Workspace ws;
  std::vector<idx_t> match;
  for (auto _ : state) {
    compute_matching_into(g, MatchScheme::kHeavyEdgeBalanced, rng, match,
                          &ws, exec);
    benchmark::DoNotOptimize(match.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_MatchingParallel)->Args({200, 1})->Args({200, 8});

// Chunked parallel contraction at t threads against the same-output
// serial row builder (t=1 -> null pool -> serial path).
void BM_ContractParallel(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)), 3);
  const int threads = static_cast<int>(state.range(1));
  Rng rng(1);
  const auto match = compute_matching(g, MatchScheme::kHeavyEdge, rng);
  std::vector<idx_t> cmap;
  const idx_t nc = build_coarse_map(g, match, cmap);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  WorkspacePool wspool;
  RunContext exec;
  exec.pool = pool.get();
  exec.wspool = &wspool;
  Workspace ws;
  for (auto _ : state) {
    Graph c = contract_graph(g, cmap, nc, &ws, exec);
    benchmark::DoNotOptimize(c.adjncy.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nedges());
}
BENCHMARK(BM_ContractParallel)->Args({200, 1})->Args({200, 8});

// Colored k-way sweep at t threads: the propose phases fan out per color
// class; commit stays serial. Same algorithm at every t.
void BM_KWaySweepParallel(benchmark::State& state) {
  const idx_t side = static_cast<idx_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const Graph g = make_bench_graph(side, 3);
  const idx_t k = 16;
  std::vector<real_t> ub(3, 1.05);
  Rng seedr(3);
  std::vector<idx_t> start(to_size(g.nvtxs));
  for (auto& p : start) p = static_cast<idx_t>(seedr.next_below(k));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  WorkspacePool wspool;
  RunContext exec;
  exec.pool = pool.get();
  exec.wspool = &wspool;
  Rng rng(1);
  for (auto _ : state) {
    std::vector<idx_t> where = start;
    const sum_t cut =
        kway_refine(g, k, where, ub, 2, rng, nullptr, nullptr, exec);
    benchmark::DoNotOptimize(cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_KWaySweepParallel)->Args({200, 1})->Args({200, 8});

void BM_InducedSubgraph(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)), 1);
  const bool use_ws = state.range(1) != 0;
  // Halve along a jagged diagonal so the extraction walks real adjacency.
  std::vector<char> select(to_size(g.nvtxs));
  const idx_t side = static_cast<idx_t>(state.range(0));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    select[to_size(v)] = (v / side + v % side) % 2 == 0;
  }
  Workspace ws;
  std::vector<idx_t> l2g;
  for (auto _ : state) {
    Graph s = induced_subgraph(g, select, l2g, use_ws ? &ws : nullptr);
    benchmark::DoNotOptimize(s.adjncy.data());
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_InducedSubgraph)->Args({400, 0})->Args({400, 1});

void BM_Refine2Way(benchmark::State& state) {
  const idx_t side = static_cast<idx_t>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const Graph g = make_bench_graph(side, m);
  BisectionTargets t;
  t.f0 = 0.5;
  t.ub.assign(to_size(m), 1.05);
  // Jagged start so the refiner has real work every iteration.
  std::vector<idx_t> start(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    start[to_size(v)] = ((v / side) + 2 * (v % side)) % 4 < 2 ? 0 : 1;
  }
  Rng rng(1);
  for (auto _ : state) {
    std::vector<idx_t> where = start;
    const sum_t cut = refine_2way(g, where, t, QueuePolicy::kMostImbalanced,
                                  4, 0, rng);
    benchmark::DoNotOptimize(cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_Refine2Way)->Args({200, 1})->Args({200, 3});

void BM_KWayRefine(benchmark::State& state) {
  const idx_t side = static_cast<idx_t>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const Graph g = make_bench_graph(side, m);
  const idx_t k = 16;
  std::vector<real_t> ub(to_size(m), 1.05);
  Rng seedr(3);
  std::vector<idx_t> start(to_size(g.nvtxs));
  for (auto& p : start) p = static_cast<idx_t>(seedr.next_below(k));
  Rng rng(1);
  for (auto _ : state) {
    std::vector<idx_t> where = start;
    const sum_t cut = kway_refine(g, k, where, ub, 2, rng);
    benchmark::DoNotOptimize(cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_KWayRefine)->Args({200, 1})->Args({200, 3});

void BM_PartitionEndToEnd(benchmark::State& state) {
  const Graph g = make_bench_graph(static_cast<idx_t>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  Options o;
  o.nparts = 32;
  o.algorithm = state.range(2) == 0 ? Algorithm::kRecursiveBisection
                                    : Algorithm::kKWay;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    const PartitionResult r = partition(g, o);
    benchmark::DoNotOptimize(r.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_PartitionEndToEnd)
    ->Args({150, 1, 0})
    ->Args({150, 3, 0})
    ->Args({150, 1, 1})
    ->Args({150, 3, 1});

// Cost of the invariant-audit layer per level: off must be free (a
// pointer test per audit point), boundaries/paranoid quantify what a
// fully audited debug run pays.
void BM_PartitionAudited(benchmark::State& state) {
  const Graph g = make_bench_graph(150, 3);
  Options o;
  o.nparts = 32;
  o.algorithm = state.range(0) == 0 ? Algorithm::kRecursiveBisection
                                    : Algorithm::kKWay;
  o.audit_level = static_cast<AuditLevel>(state.range(1));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    const PartitionResult r = partition(g, o);
    benchmark::DoNotOptimize(r.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_PartitionAudited)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2});

// Cost of the flight recorder per partition call: detached (the default,
// every hook is one null-pointer test) must be within noise of the
// attached run, which pays one sample struct per level plus a /proc read.
void BM_PartitionFlightRecorder(benchmark::State& state) {
  const Graph g = make_bench_graph(150, 3);
  Options o;
  o.nparts = 32;
  o.algorithm = state.range(0) == 0 ? Algorithm::kRecursiveBisection
                                    : Algorithm::kKWay;
  FlightRecorder flight;
  o.flight = state.range(1) != 0 ? &flight : nullptr;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    flight.clear();
    const PartitionResult r = partition(g, o);
    benchmark::DoNotOptimize(r.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_PartitionFlightRecorder)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// Cost of a caller's profiler per partition call. With a null
// Options::profile the run attaches an internal profiler (its phase
// times come from it), so both variants pay two reads of each clock
// plus one mutex-guarded fold per scope and must be within noise of
// each other.
void BM_PartitionProfiled(benchmark::State& state) {
  const Graph g = make_bench_graph(150, 3);
  Options o;
  o.nparts = 32;
  o.algorithm = state.range(0) == 0 ? Algorithm::kRecursiveBisection
                                    : Algorithm::kKWay;
  Profiler prof;
  o.profile = state.range(1) != 0 ? &prof : nullptr;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    prof.clear();
    const PartitionResult r = partition(g, o);
    benchmark::DoNotOptimize(r.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.nvtxs);
}
BENCHMARK(BM_PartitionProfiled)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

}  // namespace
