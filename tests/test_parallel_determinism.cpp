// The parallel drivers must be bit-identical across thread counts: every
// subproblem derives its RNG stream from the seed and its structural
// position, never from a shared sequential generator, so the scheduler
// cannot influence the result.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "json_test_util.hpp"
#include "support/flight_recorder.hpp"
#include "support/trace.hpp"

namespace mcgp {
namespace {

Graph make_graph(int ncon) {
  Graph g = tri_grid2d(36, 36);
  if (ncon > 1) apply_type_s_weights(g, ncon, 12, 0, 7, 2);
  return g;
}

Options base_options(Algorithm algo, idx_t k, std::uint64_t seed) {
  Options o;
  o.algorithm = algo;
  o.nparts = k;
  o.seed = seed;
  return o;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<Algorithm, int>> {};

TEST_P(ParallelDeterminism, PartitionIdenticalAcrossThreadCounts) {
  const auto [algo, ncon] = GetParam();
  const Graph g = make_graph(ncon);
  for (const idx_t k : {7, 16}) {
    Options o = base_options(algo, k, /*seed=*/42);
    o.num_threads = 1;
    const PartitionResult serial = partition(g, o);
    ASSERT_TRUE(validate_partition(g, serial.part, k).empty());

    for (const int threads : {2, 4, 8}) {
      o.num_threads = threads;
      const PartitionResult parallel = partition(g, o);
      EXPECT_EQ(parallel.part, serial.part)
          << "k=" << k << " threads=" << threads;
      EXPECT_EQ(parallel.cut, serial.cut);
    }
  }
}

TEST_P(ParallelDeterminism, SeedStillSelectsDistinctPartitions) {
  const auto [algo, ncon] = GetParam();
  const Graph g = make_graph(ncon);
  Options a = base_options(algo, 8, 1);
  Options b = base_options(algo, 8, 2);
  a.num_threads = b.num_threads = 4;
  const PartitionResult ra = partition(g, a);
  const PartitionResult rb = partition(g, b);
  // Different seeds should explore different partitions (equality here
  // would suggest the seed is being ignored).
  EXPECT_NE(ra.part, rb.part);
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, ParallelDeterminism,
    ::testing::Combine(::testing::Values(Algorithm::kRecursiveBisection,
                                         Algorithm::kKWay),
                       ::testing::Values(1, 3)),
    [](const ::testing::TestParamInfo<std::tuple<Algorithm, int>>& pinfo) {
      std::string name = std::get<0>(pinfo.param) ==
                                 Algorithm::kRecursiveBisection
                             ? "rb"
                             : "kway";
      name += "_ncon" + std::to_string(std::get<1>(pinfo.param));
      return name;
    });

// The in-node data-parallel phases only engage above their size
// thresholds (handshake matching needs >= kHandshakeMinVtxs vertices,
// chunked contraction a coarse graph bigger than its chunk), so the
// bit-identity contract needs a graph big enough to cross them: a 101x101
// triangulated grid (10201 vertices) coarsens through several levels with
// the handshake + chunked paths active. MC-KW additionally drives the
// colored sweep on every level. Runs fully observed — boundary audits,
// trace and flight recorder attached, and every run is profiled — because
// observers must never perturb the partition either.
TEST(ParallelDeterminismLarge, KWayParallelPhasesBitIdenticalUnderObservers) {
  for (const int ncon : {1, 3}) {
    Graph g = tri_grid2d(101, 101);
    if (ncon > 1) apply_type_s_weights(g, ncon, 12, 0, 7, 2);

    std::vector<idx_t> reference;
    sum_t reference_cut = 0;
    for (const int threads : {1, 2, 4, 8}) {
      TraceRecorder trace;
      FlightRecorder flight;
      Options o = base_options(Algorithm::kKWay, 16, /*seed=*/99);
      o.num_threads = threads;
      o.audit_level = AuditLevel::kBoundaries;
      o.trace = &trace;
      o.flight = &flight;
      const PartitionResult r = partition(g, o);
      ASSERT_TRUE(validate_partition(g, r.part, 16).empty())
          << "ncon=" << ncon << " threads=" << threads;
      if (threads == 1) {
        reference = r.part;
        reference_cut = r.cut;
      } else {
        EXPECT_EQ(r.part, reference)
            << "ncon=" << ncon << " threads=" << threads;
        EXPECT_EQ(r.cut, reference_cut);
      }
    }
  }
}

// MC-RB runs every bisection's coarsening inside its own recursion task,
// so chunked contraction and matching must stay bit-identical when they
// run nested in concurrent tasks. On a 160x160 triangulated grid (25600
// vertices) the top bisection and both bisections of the next level
// contract more than one chunk (4096 coarse vertices), the latter two
// concurrently. Fully observed, like the MC-KW case above.
TEST(ParallelDeterminismLarge, RBParallelPhasesBitIdenticalUnderObservers) {
  Graph g = tri_grid2d(160, 160);
  apply_type_s_weights(g, 3, 12, 0, 7, 2);
  std::vector<idx_t> reference;
  sum_t reference_cut = 0;
  for (const int threads : {1, 2, 4, 8}) {
    TraceRecorder trace;
    FlightRecorder flight;
    Options o = base_options(Algorithm::kRecursiveBisection, 16, /*seed=*/99);
    o.num_threads = threads;
    o.audit_level = AuditLevel::kBoundaries;
    o.trace = &trace;
    o.flight = &flight;
    const PartitionResult r = partition(g, o);
    ASSERT_TRUE(validate_partition(g, r.part, 16).empty())
        << "threads=" << threads;
    if (threads == 1) {
      reference = r.part;
      reference_cut = r.cut;
    } else {
      EXPECT_EQ(r.part, reference) << "threads=" << threads;
      EXPECT_EQ(r.cut, reference_cut);
    }
  }
}

// The dead candidates the k-way sweep skips and the proposals the
// handshake rounds evaluate are deterministic work counts: equal at every
// thread count, and pinned exactly on fixed instances (MC-KW, k=16, Type-S
// m=3, seed 1). The 60x60 grid is below kHandshakeMinVtxs, so its
// matchings take the serial greedy path and evaluate no handshake
// proposal; the 120x120 grid's finest level runs handshake rounds.
TEST(WorkCounters, SkippedAndProposalsThreadInvariantAndPinned) {
  struct Case {
    idx_t side;
    std::int64_t skipped;
    std::int64_t proposals;
  };
  for (const Case& c : {Case{60, 2523, 0}, Case{120, 2808, 25038}}) {
    Graph g = grid2d(c.side, c.side);
    apply_type_s_weights(g, 3, 16, 0, 19, 2003);
    for (const int threads : {1, 2, 4}) {
      TraceRecorder trace;
      Options o = base_options(Algorithm::kKWay, 16, /*seed=*/1);
      o.num_threads = threads;
      o.trace = &trace;
      partition(g, o);
      const CounterRegistry counters = trace.merged_counters();
      EXPECT_EQ(counters.get("kway.skipped"), c.skipped)
          << "side=" << c.side << " threads=" << threads;
      EXPECT_EQ(counters.get("match.proposals"), c.proposals)
          << "side=" << c.side << " threads=" << threads;
    }
  }
}

// The counters that show the k-way refiner's work mix, zero-gain sweep
// commits and the localized FM's rounds, moves and rollbacks, are
// deterministic: equal at one and four threads, and pinned exactly on a
// fixed instance (MC-KW, k=16, Type-S m=3, seed 1, 60x60 grid).
TEST(WorkCounters, KWayFmCountersThreadInvariantAndPinned) {
  Graph g = grid2d(60, 60);
  apply_type_s_weights(g, 3, 16, 0, 19, 2003);
  const std::vector<std::pair<const char*, std::int64_t>> pinned = {
      {"kway.moves.zero_gain", 717},
      {"kway.fm.rounds", 10},
      {"kway.fm.moves", 998},
      {"kway.fm.rolled_back", 576},
  };
  for (const int threads : {1, 4}) {
    TraceRecorder trace;
    Options o = base_options(Algorithm::kKWay, 16, /*seed=*/1);
    o.num_threads = threads;
    o.trace = &trace;
    partition(g, o);
    const CounterRegistry counters = trace.merged_counters();
    for (const auto& [name, value] : pinned) {
      EXPECT_EQ(counters.get(name), value)
          << name << " threads=" << threads;
    }
  }
}

// Tight instance (64 parts on a 13x13 grid, ~2.6 vertices per part): the
// refiner's balancer exits overloaded and the serial rebalancer engages.
// It runs after all parallel phases on a thread-invariant `where`, so the
// bit-identity contract must survive it — and the repaired partition must
// actually be feasible, or the case would not be exercising the path.
TEST(ParallelDeterminismTight, RebalancerEngagedStaysBitIdentical) {
  for (const int ncon : {1, 3}) {
    Graph g = grid2d(13, 13, ncon);
    if (ncon > 1) apply_type_s_weights(g, ncon, 16, 0, 19, 1003);
    for (const Algorithm alg :
         {Algorithm::kKWay, Algorithm::kRecursiveBisection}) {
      Options o = base_options(alg, 64, /*seed=*/3);
      o.num_threads = 1;  // ncon=1: empty ubvec clamps to the provable
                          // bound; ncon=3 needs 1.25 (joint packing
                          // threshold, see test_rebalance.cpp)
      if (ncon > 1) o.ubvec.assign(to_size(ncon), 1.25);
      const PartitionResult serial = partition(g, o);
      ASSERT_TRUE(validate_partition(g, serial.part, 64).empty());
      EXPECT_TRUE(serial.feasible) << "ncon=" << ncon;
      for (const int threads : {2, 8}) {
        o.num_threads = threads;
        const PartitionResult parallel = partition(g, o);
        EXPECT_EQ(parallel.part, serial.part)
            << "ncon=" << ncon << " threads=" << threads;
        EXPECT_EQ(parallel.cut, serial.cut);
      }
    }
  }
}

TEST(ParallelPartition, MultithreadedRunIsValidAndBalanced) {
  Graph g = make_graph(3);
  Options o = base_options(Algorithm::kRecursiveBisection, 12, 7);
  o.num_threads = 8;
  const PartitionResult r = partition(g, o);
  EXPECT_TRUE(validate_partition(g, r.part, 12).empty());
  EXPECT_LE(r.max_imbalance, 1.25);  // loose: nested bisection tolerance
}

TEST(ParallelPartition, TraceStaysWellFormedUnderThreads) {
  Graph g = make_graph(1);
  TraceRecorder tr;
  Options o = base_options(Algorithm::kRecursiveBisection, 16, 5);
  o.num_threads = 8;
  o.trace = &tr;
  const PartitionResult r = partition(g, o);
  ASSERT_TRUE(validate_partition(g, r.part, 16).empty());

  EXPECT_EQ(tr.depth(), 0);  // home-thread spans all closed

  std::ostringstream out;
  tr.write_chrome_trace(out);
  const auto doc = testing::parse_json(out.str());
  ASSERT_TRUE(doc.has_value()) << "chrome trace is not valid JSON";
  const testing::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_FALSE(events->array.empty());

  // Per-tid begin/end streams must be balanced and properly nested.
  std::map<double, int> open_per_tid;
  for (const testing::JsonValue& ev : events->array) {
    const testing::JsonValue* ph = ev.find("ph");
    const testing::JsonValue* tid = ev.find("tid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(tid, nullptr);
    if (ph->str == "B") {
      ++open_per_tid[tid->number];
    } else if (ph->str == "E") {
      --open_per_tid[tid->number];
      EXPECT_GE(open_per_tid[tid->number], 0) << "unmatched E on a tid";
    }
  }
  for (const auto& [tid, open] : open_per_tid) {
    EXPECT_EQ(open, 0) << "unbalanced spans on tid " << tid;
  }

  // Merged counters see the work done on worker threads.
  const CounterRegistry merged = tr.merged_counters();
  EXPECT_GT(merged.get("initpart.trials"), 0);
}

}  // namespace
}  // namespace mcgp
