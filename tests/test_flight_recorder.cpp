#include "support/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/audit.hpp"
#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/part_report.hpp"
#include "json_test_util.hpp"
#include "support/schema.hpp"

namespace mcgp {
namespace {

FlightSample make_sample(FlightSample::Stage stage, idx_t nvtxs) {
  FlightSample s;
  s.stage = stage;
  s.nvtxs = nvtxs;
  s.nedges = 2 * nvtxs;
  return s;
}

TEST(FlightRecorder, RecordsInOrderBelowCapacity) {
  FlightRecorder fr(16);
  for (idx_t i = 0; i < 5; ++i) {
    fr.record(make_sample(FlightSample::Stage::kCoarsenLevel, i));
  }
  EXPECT_EQ(fr.total_recorded(), 5u);
  EXPECT_EQ(fr.dropped(), 0u);
  const std::vector<FlightSample> got = fr.snapshot();
  ASSERT_EQ(got.size(), 5u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, i);
    EXPECT_EQ(got[i].nvtxs, static_cast<idx_t>(i));
    EXPECT_GE(got[i].ts_ns, i > 0 ? got[i - 1].ts_ns : 0);
  }
}

TEST(FlightRecorder, RingWrapsKeepingNewestWindow) {
  FlightRecorder fr(8);
  for (idx_t i = 0; i < 20; ++i) {
    fr.record(make_sample(FlightSample::Stage::kFmPass, i));
  }
  EXPECT_EQ(fr.total_recorded(), 20u);
  EXPECT_EQ(fr.dropped(), 12u);
  const std::vector<FlightSample> got = fr.snapshot();
  ASSERT_EQ(got.size(), 8u);
  // The retained window is exactly the newest 8, oldest first.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, 12 + i);
    EXPECT_EQ(got[i].nvtxs, static_cast<idx_t>(12 + i));
  }
}

TEST(FlightRecorder, CapacityFloorIsOne) {
  FlightRecorder fr(0);
  EXPECT_EQ(fr.capacity(), 1u);
  fr.record(make_sample(FlightSample::Stage::kFinal, 1));
  fr.record(make_sample(FlightSample::Stage::kFinal, 2));
  const std::vector<FlightSample> got = fr.snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].nvtxs, 2);
}

TEST(FlightRecorder, NullSafeHelpersAndClear) {
  FlightRecorder fr(4);
  fr.record(make_sample(FlightSample::Stage::kFinal, 1));
  fr.note_workspace(1024, 2);
  EXPECT_EQ(fr.workspace_bytes(), 1024);
  EXPECT_EQ(fr.workspace_count(), 2);
  fr.note_workspace(512, 1);  // smaller observation must not lower the mark
  EXPECT_EQ(fr.workspace_bytes(), 1024);
  fr.clear();
  EXPECT_EQ(fr.total_recorded(), 0u);
  EXPECT_TRUE(fr.snapshot().empty());
  EXPECT_EQ(fr.workspace_bytes(), -1);
}

TEST(FlightRecorder, ConcurrentRecordersMergeAllSamples) {
  FlightRecorder fr(1 << 14);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&fr, t] {
      for (int i = 0; i < kPerThread; ++i) {
        fr.record(make_sample(FlightSample::Stage::kKWayPass,
                              static_cast<idx_t>(t)));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(fr.total_recorded(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  const std::vector<FlightSample> got = fr.snapshot();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<int> per_thread(kThreads, 0);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, i);  // seq is gap-free across threads
    ++per_thread[to_size(got[i].nvtxs)];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread[to_size(t)], kPerThread);
}

TEST(FlightRecorder, JsonRoundTripCarriesSchemaAndSamples) {
  FlightRecorder fr(32);
  FlightSample s = make_sample(FlightSample::Stage::kUncoarsen2Way, 100);
  s.level = 2;
  s.ncon = 2;
  s.cut = 42;
  s.imbalance[0] = 1.01;
  s.imbalance[1] = 1.04;
  s.worst_imbalance = 1.04;
  fr.record(s);
  fr.sample_memory();
  fr.record(make_sample(FlightSample::Stage::kFinal, 100));

  std::ostringstream out;
  fr.write_json(out);
  const auto doc = testing::parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  const auto* schema = doc->find("schema_version");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->number, static_cast<double>(kMcgpSchemaVersion));
  const auto* samples = doc->find("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_TRUE(samples->is_array());
  ASSERT_EQ(samples->array.size(), 2u);
  const auto& first = samples->array[0];
  EXPECT_EQ(first.find("stage")->str, "uncoarsen_2way");
  EXPECT_EQ(first.find("level")->number, 2.0);
  EXPECT_EQ(first.find("cut")->number, 42.0);
  ASSERT_NE(first.find("imbalance"), nullptr);
  EXPECT_EQ(first.find("imbalance")->array.size(), 2u);
  ASSERT_NE(doc->find("memory"), nullptr);
  EXPECT_NE(doc->find("memory")->find("peak_rss_bytes"), nullptr);
}

TEST(FlightRecorder, StageNamesAreStable) {
  EXPECT_STREQ(flight_stage_name(FlightSample::Stage::kCoarsenLevel),
               "coarsen_level");
  EXPECT_STREQ(flight_stage_name(FlightSample::Stage::kUncoarsen2Way),
               "uncoarsen_2way");
  EXPECT_STREQ(flight_stage_name(FlightSample::Stage::kUncoarsenKWay),
               "uncoarsen_kway");
  EXPECT_STREQ(flight_stage_name(FlightSample::Stage::kFmPass), "fm_pass");
  EXPECT_STREQ(flight_stage_name(FlightSample::Stage::kKWayPass),
               "kway_pass");
  EXPECT_STREQ(flight_stage_name(FlightSample::Stage::kFinal), "final");
}

Graph make_pipeline_graph() {
  Graph g = tri_grid2d(40, 40);
  apply_type_s_weights(g, /*m=*/2, /*nregions=*/8, 0, 19, 7);
  return g;
}

int count_stage(const std::vector<FlightSample>& samples,
                FlightSample::Stage stage) {
  int n = 0;
  for (const FlightSample& s : samples) {
    if (s.stage == stage) ++n;
  }
  return n;
}

TEST(FlightPipeline, RbRunProducesPerLevelTimeline) {
  const Graph g = make_pipeline_graph();
  FlightRecorder fr;
  Options o;
  o.nparts = 8;
  o.algorithm = Algorithm::kRecursiveBisection;
  o.flight = &fr;
  const PartitionResult r = partition(g, o);

  const std::vector<FlightSample> samples = fr.snapshot();
  EXPECT_GT(count_stage(samples, FlightSample::Stage::kCoarsenLevel), 0);
  EXPECT_GT(count_stage(samples, FlightSample::Stage::kUncoarsen2Way), 0);
  EXPECT_GT(count_stage(samples, FlightSample::Stage::kFmPass), 0);
  ASSERT_EQ(count_stage(samples, FlightSample::Stage::kFinal), 1);
  const FlightSample& fin = samples.back();
  EXPECT_EQ(fin.stage, FlightSample::Stage::kFinal);
  EXPECT_EQ(fin.cut, r.cut);
  EXPECT_EQ(fin.ncon, g.ncon);
  EXPECT_DOUBLE_EQ(fin.worst_imbalance, r.max_imbalance);
  // RB leaves its workspace-pool high-water mark behind.
  EXPECT_GT(fr.workspace_bytes(), 0);
  EXPECT_GE(fr.workspace_count(), 1);
}

TEST(FlightPipeline, KWayRunProducesPerLevelTimeline) {
  const Graph g = make_pipeline_graph();
  FlightRecorder fr;
  Options o;
  o.nparts = 8;
  o.algorithm = Algorithm::kKWay;
  o.flight = &fr;
  const PartitionResult r = partition(g, o);

  const std::vector<FlightSample> samples = fr.snapshot();
  EXPECT_GT(count_stage(samples, FlightSample::Stage::kCoarsenLevel), 0);
  EXPECT_GT(count_stage(samples, FlightSample::Stage::kUncoarsenKWay), 0);
  EXPECT_GT(count_stage(samples, FlightSample::Stage::kKWayPass), 0);
  ASSERT_EQ(count_stage(samples, FlightSample::Stage::kFinal), 1);
  EXPECT_EQ(samples.back().cut, r.cut);
  // Every uncoarsening-level sample carries the per-constraint imbalances.
  for (const FlightSample& s : samples) {
    if (s.stage == FlightSample::Stage::kUncoarsenKWay) {
      EXPECT_EQ(s.ncon, g.ncon);
      EXPECT_GE(s.worst_imbalance, 1.0);
      EXPECT_GE(s.cut, 0);
    }
  }
}

TEST(FlightPipeline, AttachingRecorderNeverChangesThePartition) {
  const Graph g = make_pipeline_graph();
  for (const auto alg :
       {Algorithm::kRecursiveBisection, Algorithm::kKWay}) {
    Options plain;
    plain.nparts = 12;
    plain.algorithm = alg;
    plain.seed = 5;
    const PartitionResult bare = partition(g, plain);

    for (const int threads : {1, 2, 8}) {
      FlightRecorder fr;
      Options o = plain;
      o.num_threads = threads;
      o.flight = &fr;
      const PartitionResult observed = partition(g, o);
      EXPECT_EQ(observed.part, bare.part)
          << "algorithm=" << static_cast<int>(alg) << " threads=" << threads;
      EXPECT_GT(fr.total_recorded(), 0u);
    }
  }
}

TEST(FlightPipeline, AuditFailureDumpsPostmortem) {
  const Graph g = make_pipeline_graph();
  const std::string dump_path =
      ::testing::TempDir() + "mcgp_flight_dump_test.json";
  // Both entry points share the abort path: partition() and
  // refine_partition() from a round-robin start.
  std::vector<idx_t> start(to_size(g.nvtxs));
  for (idx_t v = 0; v < g.nvtxs; ++v) start[to_size(v)] = v % 8;
  for (const bool refine : {false, true}) {
    SCOPED_TRACE(refine ? "refine_partition" : "partition");
    std::remove(dump_path.c_str());

    FlightRecorder fr;
    fr.set_dump_path(dump_path);
    InvariantAuditor auditor(AuditLevel::kBoundaries);
    // Let a handful of checks pass so the ring holds real samples, then
    // force the next one to throw: mid-uncoarsening in partition(), at the
    // final audit in refine_partition() (which makes three checks).
    auditor.set_trip_after(refine ? 2 : 5);

    Options o;
    o.nparts = 8;
    o.flight = &fr;
    o.audit = &auditor;
    if (refine) {
      EXPECT_THROW(refine_partition(g, start, o), AuditFailure);
    } else {
      EXPECT_THROW(partition(g, o), AuditFailure);
    }

    std::ifstream in(dump_path);
    ASSERT_TRUE(in.good()) << "no postmortem at " << dump_path;
    std::stringstream buf;
    buf << in.rdbuf();
    const auto doc = testing::parse_json(buf.str());
    ASSERT_TRUE(doc.has_value());
    const auto* error = doc->find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_NE(error->str.find("injected audit failure"), std::string::npos);
    const auto* flight = doc->find("flight");
    ASSERT_NE(flight, nullptr);
    const auto* samples = flight->find("samples");
    ASSERT_NE(samples, nullptr);
    EXPECT_FALSE(samples->array.empty());
  }
  std::remove(dump_path.c_str());
}

TEST(FlightRecorder, PostmortemDirEnvRedirectsRelativeDumpPaths) {
  FlightRecorder fr;
  // Default path is relative, so it follows the environment override.
  ASSERT_NE(fr.dump_path().front(), '/');
  std::string dir = ::testing::TempDir();  // ends with '/'
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  ::setenv("MCGP_POSTMORTEM_DIR", dir.c_str(), 1);
  EXPECT_EQ(fr.resolved_dump_path(), dir + "/" + fr.dump_path());

  // The dump itself must land in the redirected location.
  fr.record(make_sample(FlightSample::Stage::kFinal, 3));
  ASSERT_TRUE(fr.dump_on_failure("redirect test"));
  const std::string expected = dir + "/" + fr.dump_path();
  std::ifstream in(expected);
  ASSERT_TRUE(in.good()) << "no postmortem at " << expected;
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = testing::parse_json(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_NE(doc->find("error"), nullptr);
  std::remove(expected.c_str());

  // Absolute paths are explicit choices and ignore the override.
  const std::string abs = ::testing::TempDir() + "mcgp_abs_dump_test.json";
  fr.set_dump_path(abs);
  ::setenv("MCGP_POSTMORTEM_DIR", "/nonexistent-dir", 1);
  EXPECT_EQ(fr.resolved_dump_path(), abs);

  // Unset (and empty) environment falls back to the path as given.
  fr.set_dump_path("relative_dump.json");
  ::setenv("MCGP_POSTMORTEM_DIR", "", 1);
  EXPECT_EQ(fr.resolved_dump_path(), "relative_dump.json");
  ::unsetenv("MCGP_POSTMORTEM_DIR");
  EXPECT_EQ(fr.resolved_dump_path(), "relative_dump.json");
}

TEST(FlightPipeline, ReportJsonEmbedsTimeline) {
  const Graph g = make_pipeline_graph();
  FlightRecorder fr;
  Options o;
  o.nparts = 4;
  o.flight = &fr;
  const PartitionResult r = partition(g, o);

  const std::string text =
      report_to_json(analyze_partition(g, r.part, o.nparts), &fr);
  const auto doc = testing::parse_json(text);
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("schema_version"), nullptr);
  EXPECT_EQ(doc->find("schema_version")->number,
            static_cast<double>(kMcgpSchemaVersion));
  const auto* timeline = doc->find("timeline");
  ASSERT_NE(timeline, nullptr);
  ASSERT_TRUE(timeline->is_object());
  EXPECT_EQ(timeline->find("schema_version")->number,
            static_cast<double>(kMcgpSchemaVersion));
  EXPECT_FALSE(timeline->find("samples")->array.empty());

  // Without a recorder the report stays timeline-free.
  const auto bare =
      testing::parse_json(report_to_json(analyze_partition(g, r.part, o.nparts)));
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->find("timeline"), nullptr);
}

}  // namespace
}  // namespace mcgp
