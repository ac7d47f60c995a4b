#include "support/profiler.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
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

// A wait scope counts only the idle part of its interval: a phase run
// inside it stays top-level with its own wall time, a nested wait is
// subtracted once, and a wait inside a phase or off the run's thread
// does not arm.
TEST(Profiler, WaitScopeCountsOnlyItsIdleTime) {
  Profiler prof;
  std::int64_t run_ns = 0;
  {
    ProfScope run(&prof, "run", -1, ProfScope::kRun);
    {
      ProfScope wait(&prof, "wait", -1, ProfScope::kWait);
      spin();
      {
        ProfScope helped(&prof, "helped");
        spin();
        ProfScope nested(&prof, "wait", -1, ProfScope::kWait);  // in a phase
      }
      ProfScope inner(&prof, "wait", -1, ProfScope::kWait);
      spin();
    }
    {
      ProfScope phase(&prof, "phase");
      ProfScope inside(&prof, "wait", -1, ProfScope::kWait);
      spin();
    }
    std::thread([&prof] {
      ProfScope off(&prof, "wait", -1, ProfScope::kWait);
      spin();
    }).join();
    run_ns = run.finish();
  }
  // The outer and inner waits fold; the three others never armed.
  EXPECT_EQ(prof.phase_total("wait").scopes, 2);
  const std::map<std::string, PhaseClock> top = prof.top_level();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GT(top.at("helped").wall_ns, 0);
  EXPECT_GT(top.at("wait").wall_ns, 0);
  EXPECT_GT(top.at("wait").cpu_ns, 0);
  // Top-level walls never overlap on the run's thread, so together they
  // fit in the run; the wait's bucket is exactly its top-level share.
  EXPECT_LE(top.at("helped").wall_ns + top.at("wait").wall_ns +
                top.at("phase").wall_ns,
            run_ns);
  EXPECT_EQ(prof.phase_total("wait").wall_ns, top.at("wait").wall_ns);
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
    Options o;
    o.nparts = 4;
    o.num_threads = threads;
    const PartitionResult r = partition(g, o);
    ASSERT_EQ(r.part.size(), to_size(g.nvtxs));

    std::ostringstream out;
    {
      JsonWriter w(out);
      r.profile.write_json_value(w);
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
    const ProfBucket run = r.profile.total("run");
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

// MC-RB's calling thread idles in its joins only when there is a pool:
// then the idle time is the "rb.wait" row, and the rows still add up to
// the run. MC-KW's nested bisections wait inside "initpart", so their
// joins stay that phase's time.
TEST(PhaseAccounting, RbWaitHasItsOwnRow) {
  Graph g = grid2d(120, 120);
  apply_type_s_weights(g, 3, 16, 0, 19, 2003);
  for (const Algorithm alg :
       {Algorithm::kRecursiveBisection, Algorithm::kKWay}) {
    std::vector<idx_t> ref_part;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << (alg == Algorithm::kKWay ? "MC-KW" : "MC-RB")
                   << " t=" << threads);
      Options o;
      o.nparts = 64;
      o.algorithm = alg;
      o.num_threads = threads;
      const PartitionResult r = partition(g, o);
      const ProfBucket wait = r.profile.total("rb.wait");
      const bool waits = alg == Algorithm::kRecursiveBisection && threads > 1;
      if (waits) {
        EXPECT_GE(wait.scopes, 1);
      } else {
        EXPECT_EQ(wait.scopes, 0);
      }
      double wall_s = 0;
      bool listed = false;
      for (const PhaseTime& p : r.phases) {
        wall_s += p.wall_s;
        listed = listed || p.phase == "rb.wait";
      }
      EXPECT_EQ(listed, waits);
      EXPECT_GE(r.unattributed_s, 0.0);
      EXPECT_NEAR(wall_s + r.unattributed_s, r.seconds, 1e-6);
      if (ref_part.empty()) {
        ref_part = r.part;
      } else {
        EXPECT_EQ(r.part, ref_part);
      }
    }
  }
}

// The run bucket's task clock is the on-CPU time of every thread of the
// run. At four threads MC-RB's forked bisections burn CPU on the pool,
// and the run still covers all its phases report; at one thread it is the
// calling thread's own clock, as before.
TEST(PhaseAccounting, RunTaskClockCoversEveryThread) {
  auto thread_cpu_ns = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(ts.tv_nsec);
  };
  Graph g = grid2d(60, 60);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "t=" << threads);
    Options o;
    o.nparts = 16;
    o.algorithm = Algorithm::kRecursiveBisection;
    o.num_threads = threads;
    const std::int64_t cpu0 = thread_cpu_ns();
    const PartitionResult r = partition(g, o);
    const std::int64_t own_ns = thread_cpu_ns() - cpu0;
    double phases_cpu_s = 0;
    for (const PhaseTime& p : r.phases) phases_cpu_s += p.cpu_s;
    const ProfBucket run = r.profile.total("run");
    // cpu_s are doubles summed from nanoseconds: a microsecond of slack.
    EXPECT_GE(static_cast<double>(run.task_clock_ns) * 1e-9,
              phases_cpu_s - 1e-6);
    if (threads == 1) {
      EXPECT_LE(run.task_clock_ns, own_ns);
    }
  }
}

// Runs that share one Options each report only their own phases: the
// profile is the call's, so nothing accumulates from the runs before it.
TEST(PhaseAccounting, SharedProfilerReportsPerRunPhases) {
  const Graph g = make_pipeline_graph();
  Options o;
  o.nparts = 8;
  for (int rep = 0; rep < 3; ++rep) {
    const PartitionResult r = partition(g, o);
    double wall_s = 0;
    for (const PhaseTime& p : r.phases) wall_s += p.wall_s;
    EXPECT_GE(r.unattributed_s, 0.0) << "rep " << rep;
    EXPECT_NEAR(wall_s + r.unattributed_s, r.seconds, 1e-6) << "rep " << rep;
    EXPECT_EQ(r.profile.total("run").scopes, 1) << "rep " << rep;
  }
}

// --- determinism: the run's own profiler never changes the partition -------

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
      Options o = base;
      o.num_threads = threads;
      const PartitionResult r = partition(g, o);
      EXPECT_EQ(r.part, ref.part)
          << "alg=" << (alg == Algorithm::kKWay ? "kway" : "rb")
          << " threads=" << threads;
      // The profiler really observed the run it left unchanged.
      EXPECT_EQ(r.profile.total("run").scopes, 1);
      EXPECT_GT(r.profile.total("run").wall_ns, 0);
    }
  }
}

// Every call returns its own profile: one "run" bucket that is the call,
// a bucket behind every phase, and (rb.wait aside) the same work rows and
// the same partition at every thread count, run after run.
TEST(PhaseAccounting, ResultCarriesItsOwnRun) {
  const Graph g = make_pipeline_graph();
  const idx_t k = 8;
  std::vector<idx_t> stripes(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) stripes[to_size(v)] = v * k / g.nvtxs;
  using Row = std::tuple<std::string, int, std::int64_t, std::int64_t,
                         std::int64_t>;
  for (const char* entry : {"MC-RB", "MC-KW", "refine_partition"}) {
    SCOPED_TRACE(entry);
    std::vector<Row> ref_rows;
    std::vector<idx_t> ref_part;
    for (const int threads : {1, 4}) {
      for (int rep = 0; rep < 3; ++rep) {
        SCOPED_TRACE(::testing::Message()
                     << "t=" << threads << " rep " << rep);
        Options o;
        o.nparts = k;
        o.seed = 3;
        o.num_threads = threads;
        o.algorithm = std::string(entry) == "MC-RB"
                          ? Algorithm::kRecursiveBisection
                          : Algorithm::kKWay;
        const PartitionResult r = std::string(entry) == "refine_partition"
                                      ? refine_partition(g, stripes, o)
                                      : partition(g, o);
        EXPECT_EQ(r.profile.threads, threads);

        int runs = 0;
        std::set<std::string> profiled;
        std::vector<Row> rows;
        for (const ProfPhase& p : r.profile.phases) {
          profiled.insert(p.phase);
          if (p.phase == "run") {
            ++runs;
            EXPECT_EQ(p.stats.scopes, 1);
            EXPECT_DOUBLE_EQ(static_cast<double>(p.stats.wall_ns) * 1e-9,
                             r.seconds);
          }
          if (p.phase != "rb.wait") {
            rows.emplace_back(p.phase, p.level, p.stats.scopes,
                              p.stats.edges, p.stats.vtxs);
          }
        }
        EXPECT_EQ(runs, 1);
        for (const PhaseTime& p : r.phases) {
          EXPECT_TRUE(profiled.count(p.phase)) << p.phase;
        }
        if (ref_rows.empty()) {
          ref_rows = rows;
          ref_part = r.part;
        } else {
          EXPECT_EQ(rows, ref_rows);
          EXPECT_EQ(r.part, ref_part);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mcgp
