#include "support/profiler.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
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
  EXPECT_EQ(sc.finish(), 0);  // must be safe and idempotent detached
}

/// Burns a little CPU on the calling thread.
void spin() {
  double sink = 0;
  for (int i = 0; i < 200000; ++i) sink += static_cast<double>(i);
  volatile double keep = sink;
  (void)keep;
}

TEST(Profiler, OnlyTopLevelScopesFillThePhaseClocks) {
  Profiler prof;
  std::int64_t run_ns = 0;
  {
    ProfScope run(&prof, "run", -1, ProfScope::kRun);
    {
      ProfScope outer(&prof, "outer");
      ProfScope inner(&prof, "inner", 0);  // enclosed: not top-level
      spin();
    }
    // Top-level on a thread that is not the run's: CPU time only.
    std::thread([&prof] {
      ProfScope off(&prof, "worker");
      spin();
    }).join();
    run_ns = run.finish();
  }
  const std::map<std::string, PhaseClock> top = prof.top_level();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_GT(top.at("outer").wall_ns, 0);
  EXPECT_GT(top.at("outer").cpu_ns, 0);
  EXPECT_LE(top.at("outer").wall_ns, run_ns);
  EXPECT_EQ(top.at("worker").wall_ns, 0);
  EXPECT_GT(top.at("worker").cpu_ns, 0);
  // The buckets still count every scope, nested or not.
  EXPECT_EQ(prof.phase_total("inner").scopes, 1);
  EXPECT_EQ(prof.phase_total("run").wall_ns, run_ns);
  prof.clear();
  EXPECT_TRUE(prof.top_level().empty());
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

// --- PartitionResult::phases: the run's top-level scopes -------------------

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// The phases' wall times never overlap and add up to the run's wall time
// with the unattributed rest; their CPU times fit inside the process's.
// grid-21x21 m=5 takes MC-RB's fix-up, which must be attributed too.
TEST(PhaseAccounting, PhasesAddUpToTheRun) {
  struct Case {
    idx_t side;
    int m;
    Algorithm alg;
    int threads;
  };
  const Algorithm kw = Algorithm::kKWay;
  const Algorithm rb = Algorithm::kRecursiveBisection;
  for (const Case& c : {Case{120, 3, kw, 1}, Case{120, 3, kw, 4},
                        Case{120, 3, rb, 1}, Case{120, 3, rb, 4},
                        Case{21, 5, rb, 1}}) {
    SCOPED_TRACE(::testing::Message()
                 << "grid-" << c.side << " m=" << c.m << " "
                 << (c.alg == kw ? "MC-KW" : "MC-RB") << " t=" << c.threads);
    Graph g = grid2d(c.side, c.side);
    apply_type_s_weights(g, c.m, 16, 0, 19,
                         static_cast<std::uint64_t>(2000 + c.m));
    Options o;
    o.nparts = 64;
    o.algorithm = c.alg;
    o.num_threads = c.threads;
    const double cpu0 = process_cpu_s();
    const PartitionResult r = partition(g, o);
    const double cpu = process_cpu_s() - cpu0;

    double wall_s = 0;
    double cpu_s = 0;
    bool fixup = false;
    for (const PhaseTime& p : r.phases) {
      EXPECT_GE(p.wall_s, 0.0) << p.phase;
      EXPECT_GE(p.cpu_s, 0.0) << p.phase;
      wall_s += p.wall_s;
      cpu_s += p.cpu_s;
      fixup = fixup || p.phase == "rb.fixup";
    }
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GE(r.unattributed_s, 0.0);
    EXPECT_NEAR(wall_s + r.unattributed_s, r.seconds,
                std::max(0.01 * r.seconds, 1e-3));
    // 1% plus getrusage's microsecond truncation.
    EXPECT_LE(cpu_s, cpu * 1.01 + 1e-5);
    if (c.side == 21) {
      EXPECT_TRUE(fixup);
      EXPECT_GE(wall_s, 0.9 * r.seconds);
    }
  }
}

// A profiler shared across runs keeps accumulating, yet each run reports
// only its own phases.
TEST(PhaseAccounting, SharedProfilerReportsPerRunPhases) {
  const Graph g = make_pipeline_graph();
  Profiler prof;
  Options o;
  o.nparts = 8;
  o.profile = &prof;
  for (int rep = 0; rep < 3; ++rep) {
    const PartitionResult r = partition(g, o);
    double wall_s = 0;
    for (const PhaseTime& p : r.phases) wall_s += p.wall_s;
    EXPECT_GE(r.unattributed_s, 0.0) << "rep " << rep;
    EXPECT_NEAR(wall_s + r.unattributed_s, r.seconds, 1e-6) << "rep " << rep;
  }
  EXPECT_EQ(prof.phase_total("run").scopes, 3);
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
