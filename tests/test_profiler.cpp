#include "support/profiler.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "json_test_util.hpp"
#include "support/json_writer.hpp"
#include "support/schema.hpp"

namespace mcgp {
namespace {

Graph make_pipeline_graph() {
  Graph g = tri_grid2d(40, 40);
  apply_type_s_weights(g, 2, 8, 0, 19, 7);
  return g;
}

// --- bucket folding and snapshots ------------------------------------------

TEST(Profiler, FoldMergesBucketsBySummation) {
  Profiler prof;
  ProfBucket d;
  d.scopes = 1;
  d.edges = 10;
  d.vtxs = 4;
  d.wall_ns = 100;
  d.task_clock_ns = 7;
  prof.fold("m", 0, d);
  prof.fold("m", 0, d);
  prof.fold("m", 1, d);
  prof.fold("z", -1, d);

  const std::vector<ProfPhase> snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Ordered by (phase, level).
  EXPECT_EQ(snap[0].phase, "m");
  EXPECT_EQ(snap[0].level, 0);
  EXPECT_EQ(snap[0].stats.scopes, 2);
  EXPECT_EQ(snap[0].stats.edges, 20);
  EXPECT_EQ(snap[0].stats.task_clock_ns, 14);
  EXPECT_EQ(snap[1].phase, "m");
  EXPECT_EQ(snap[1].level, 1);
  EXPECT_EQ(snap[2].phase, "z");
  EXPECT_EQ(snap[2].level, -1);

  // phase_total sums one phase across its levels.
  const ProfBucket total = prof.phase_total("m");
  EXPECT_EQ(total.scopes, 3);
  EXPECT_EQ(total.edges, 30);
  EXPECT_EQ(total.task_clock_ns, 21);

  prof.clear();
  EXPECT_TRUE(prof.snapshot().empty());
}

TEST(Profiler, DetachedScopeIsANoOp) {
  ProfScope sc(nullptr, "anything", 3);
  sc.work(1000, 100);
  sc.finish();  // must be safe and idempotent detached
}

// --- JSON round-trip --------------------------------------------------------

TEST(Profiler, ReportRoundTripsWithSchemaVersion) {
  Profiler prof;
  {
    ProfScope sc(&prof, "coarsen.matching", 0);
    sc.work(50, 20);
  }
  std::ostringstream out;
  {
    JsonWriter w(out);
    prof.write_json_value(w);
  }
  const auto doc = testing::parse_json(out.str());
  ASSERT_TRUE(doc.has_value()) << out.str();
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->find("schema_version"), nullptr);
  EXPECT_EQ(doc->find("schema_version")->number,
            static_cast<double>(kMcgpSchemaVersion));
  // Schema 2 dropped the hardware-counter members.
  EXPECT_EQ(doc->find("available"), nullptr);
  EXPECT_EQ(doc->find("status"), nullptr);
  EXPECT_EQ(doc->find("counters"), nullptr);
  ASSERT_NE(doc->find("phases"), nullptr);
  ASSERT_EQ(doc->find("phases")->array.size(), 1u);
  const testing::JsonValue& row = doc->find("phases")->array[0];
  EXPECT_EQ(row.find("phase")->str, "coarsen.matching");
  EXPECT_EQ(row.find("level")->number, 0.0);
  EXPECT_EQ(row.find("edges")->number, 50.0);
  EXPECT_EQ(row.find("vtxs")->number, 20.0);
  ASSERT_NE(row.find("wall_ns"), nullptr);
  ASSERT_NE(row.find("task_clock_ns"), nullptr);
  EXPECT_EQ(row.find("enabled_ns"), nullptr);
  EXPECT_EQ(row.find("running_ns"), nullptr);
}

TEST(Profiler, LiveRunReportIsWellFormedEitherWay) {
  // Serial and threaded runs alike: every phase row carries wall time,
  // thread CPU time and, where it measured any wall time, parallelism.
  Graph g = make_pipeline_graph();
  for (const int threads : {1, 4}) {
    Profiler prof;
    Options o;
    o.nparts = 4;
    o.num_threads = threads;
    o.profile = &prof;
    const PartitionResult r = partition(g, o);
    ASSERT_EQ(r.part.size(), to_size(g.nvtxs));

    std::ostringstream out;
    {
      JsonWriter w(out);
      prof.write_json_value(w);
    }
    const auto doc = testing::parse_json(out.str());
    ASSERT_TRUE(doc.has_value()) << out.str();
    EXPECT_EQ(doc->find("threads")->number, static_cast<double>(threads));
    ASSERT_NE(doc->find("phases"), nullptr);
    EXPECT_FALSE(doc->find("phases")->array.empty());
    for (const testing::JsonValue& row : doc->find("phases")->array) {
      const std::string& phase = row.find("phase")->str;
      ASSERT_NE(row.find("wall_ns"), nullptr) << phase;
      ASSERT_NE(row.find("task_clock_ns"), nullptr) << phase;
      EXPECT_GE(row.find("task_clock_ns")->number, 0.0) << phase;
      if (row.find("wall_ns")->number > 0) {
        EXPECT_NE(row.find("parallelism"), nullptr) << phase;
      }
    }

    // The whole-run scope observed the finest graph exactly once, and
    // its CPU time is positive and no more than every thread busy for
    // the whole wall interval (5% and 1 ms of clock-granularity slack).
    const ProfBucket run = prof.phase_total("run");
    EXPECT_EQ(run.scopes, 1);
    EXPECT_EQ(run.edges, g.nedges());
    EXPECT_EQ(run.vtxs, g.nvtxs);
    EXPECT_GT(run.wall_ns, 0);
    EXPECT_GT(run.task_clock_ns, 0) << "threads=" << threads;
    EXPECT_LE(static_cast<double>(run.task_clock_ns),
              static_cast<double>(run.wall_ns) * threads * 1.05 + 1e6)
        << "threads=" << threads;
  }
}

// --- determinism: attaching the profiler never changes the partition -------

TEST(ProfilerDeterminism, AttachedProfilerKeepsPartitionsBitIdentical) {
  Graph g = make_pipeline_graph();
  for (const Algorithm alg :
       {Algorithm::kRecursiveBisection, Algorithm::kKWay}) {
    Options base;
    base.nparts = 8;
    base.algorithm = alg;
    base.seed = 3;
    const PartitionResult ref = partition(g, base);

    for (const int threads : {1, 8}) {
      Profiler prof;
      Options o = base;
      o.num_threads = threads;
      o.profile = &prof;
      const PartitionResult r = partition(g, o);
      EXPECT_EQ(r.part, ref.part)
          << "profiler attached, alg="
          << (alg == Algorithm::kKWay ? "kway" : "rb")
          << " threads=" << threads;
      // The profiler really observed the run it left unchanged.
      EXPECT_EQ(prof.phase_total("run").scopes, 1);
      EXPECT_GT(prof.phase_total("run").wall_ns, 0);
    }
  }
}

}  // namespace
}  // namespace mcgp
