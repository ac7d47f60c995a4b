#include "support/run_ledger.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "json_test_util.hpp"
#include "support/memory.hpp"
#include "support/profiler.hpp"
#include "support/schema.hpp"
#include "support/sysinfo.hpp"

namespace mcgp {
namespace {

TEST(Memory, RssCountersAreCoherent) {
  const std::int64_t cur = current_rss_bytes();
  const std::int64_t peak = peak_rss_bytes();
#if defined(__linux__)
  // /proc/self/status is always there on Linux; a test process has at
  // least a megabyte resident.
  ASSERT_GT(cur, 1 << 20);
  ASSERT_GT(peak, 1 << 20);
  EXPECT_GE(peak, cur);
#else
  // Portable contract: -1 (unavailable) or a positive byte count.
  EXPECT_TRUE(cur == -1 || cur > 0);
  EXPECT_TRUE(peak == -1 || peak > 0);
#endif
}

TEST(RunLedger, RecordCarriesRunIdentityAndMetrics) {
  Graph g = grid2d(30, 30);
  Options o;
  o.nparts = 4;
  o.seed = 9;
  o.num_threads = 2;
  o.algorithm = Algorithm::kRecursiveBisection;
  const PartitionResult r = partition(g, o);

  const RunRecord rec = make_run_record("unit", "grid-30x30", g, o, r);
  EXPECT_EQ(rec.experiment, "unit");
  EXPECT_EQ(rec.graph, "grid-30x30");
  EXPECT_EQ(rec.algorithm, std::string(algorithm_ledger_name(o)));
  EXPECT_EQ(rec.nparts, 4);
  EXPECT_EQ(rec.ncon, g.ncon);
  EXPECT_EQ(rec.threads, 2);
  EXPECT_EQ(rec.seed, 9u);
  EXPECT_EQ(rec.cut, r.cut);
  EXPECT_EQ(rec.imbalance.size(), to_size(g.ncon));
  EXPECT_DOUBLE_EQ(rec.max_imbalance, r.max_imbalance);
  EXPECT_GT(rec.seconds, 0.0);
  EXPECT_FALSE(rec.phases.empty());
  ASSERT_EQ(rec.phases.size(), r.phases.size());
  for (std::size_t i = 0; i < rec.phases.size(); ++i) {
    EXPECT_EQ(rec.phases[i].phase, r.phases[i].phase);
    EXPECT_EQ(rec.phases[i].wall_s, r.phases[i].wall_s);
    EXPECT_EQ(rec.phases[i].cpu_s, r.phases[i].cpu_s);
  }
  EXPECT_EQ(rec.unattributed_s, r.unattributed_s);
#if defined(__linux__)
  EXPECT_GT(rec.peak_rss_bytes, 0);
#endif

  // Machine identity (from support/sysinfo) rides along on every record.
  const HostInfo& hi = host_info();
  EXPECT_EQ(rec.host, hi.hostname);
  EXPECT_EQ(rec.cpu, hi.cpu_model);
  EXPECT_EQ(rec.cores, hi.cores);
#if defined(__linux__)
  EXPECT_FALSE(rec.host.empty());
  EXPECT_GT(rec.cores, 0);
#endif
  // Every record carries the run's profile headline.
  EXPECT_EQ(rec.profile_wall_ns, r.profile.total("run").wall_ns);
}

TEST(HostInfo, IsStableAcrossCalls) {
  const HostInfo& a = host_info();
  const HostInfo& b = host_info();
  EXPECT_EQ(&a, &b);  // cached once per process
  EXPECT_GE(a.cores, 0);
}

TEST(RunLedger, WrittenLineIsParsableJson) {
  Graph g = grid2d(20, 20);
  Options o;
  o.nparts = 2;
  const PartitionResult r = partition(g, o);
  const RunRecord rec = make_run_record("unit", "g", g, o, r);

  std::ostringstream out;
  write_run_record(out, rec);
  const std::string line = out.str();
  EXPECT_EQ(line.back(), '\n');

  const auto doc = testing::parse_json(line);
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("schema_version"), nullptr);
  EXPECT_EQ(doc->find("schema_version")->number,
            static_cast<double>(kMcgpSchemaVersion));
  ASSERT_NE(doc->find("git"), nullptr);
  EXPECT_FALSE(doc->find("git")->str.empty());
  EXPECT_EQ(doc->find("experiment")->str, "unit");
  EXPECT_EQ(doc->find("nparts")->number, 2.0);
  EXPECT_EQ(doc->find("cut")->number, static_cast<double>(r.cut));
  // Schema 3: each phase is {wall_s, cpu_s}, and the phases' wall times
  // plus unattributed_s add up to seconds.
  const auto* phases = doc->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_object());
  ASSERT_EQ(phases->object.size(), r.phases.size());
  double wall_s = 0;
  for (const auto& [name, phase] : phases->object) {
    ASSERT_TRUE(phase.is_object()) << name;
    ASSERT_NE(phase.find("wall_s"), nullptr) << name;
    ASSERT_NE(phase.find("cpu_s"), nullptr) << name;
    wall_s += phase.find("wall_s")->number;
  }
  ASSERT_NE(doc->find("unattributed_s"), nullptr);
  ASSERT_NE(doc->find("seconds"), nullptr);
  EXPECT_NEAR(wall_s + doc->find("unattributed_s")->number,
              doc->find("seconds")->number, 1e-6);
  ASSERT_NE(doc->find("imbalance"), nullptr);
  EXPECT_EQ(doc->find("imbalance")->array.size(), to_size(g.ncon));
#if defined(__linux__)
  ASSERT_NE(doc->find("host"), nullptr);
  EXPECT_EQ(doc->find("host")->str, host_info().hostname);
  ASSERT_NE(doc->find("cores"), nullptr);
  EXPECT_EQ(doc->find("cores")->number,
            static_cast<double>(host_info().cores));
#endif
  // Every line carries the run's profile headline.
  EXPECT_NE(doc->find("profile"), nullptr);
}

TEST(RunLedger, ProfiledRecordCarriesHeadlineCounters) {
  Graph g = grid2d(20, 20);
  Options o;
  o.nparts = 2;
  const PartitionResult r = partition(g, o);
  const RunRecord rec = make_run_record("unit", "g", g, o, r);

  // The headline is the result's whole-run bucket.
  const ProfBucket run = r.profile.total("run");
  EXPECT_EQ(rec.profile_wall_ns, run.wall_ns);
  EXPECT_EQ(rec.profile_task_clock_ns, run.task_clock_ns);
  EXPECT_GT(rec.profile_task_clock_ns, 0);

  std::ostringstream out;
  write_run_record(out, rec);
  const auto doc = testing::parse_json(out.str());
  ASSERT_TRUE(doc.has_value()) << out.str();
  const auto* profile = doc->find("profile");
  ASSERT_NE(profile, nullptr);
  ASSERT_TRUE(profile->is_object());
  ASSERT_NE(profile->find("wall_ns"), nullptr);
  EXPECT_EQ(profile->find("wall_ns")->number,
            static_cast<double>(run.wall_ns));
  ASSERT_NE(profile->find("task_clock_ns"), nullptr);
  EXPECT_EQ(profile->find("task_clock_ns")->number,
            static_cast<double>(run.task_clock_ns));
  // Schema 2 dropped the hardware-counter status members.
  EXPECT_EQ(profile->find("available"), nullptr);
  EXPECT_EQ(profile->find("status"), nullptr);
}

TEST(RunLedger, AppendAccumulatesOneLinePerRun) {
  const std::string path = ::testing::TempDir() + "mcgp_ledger_test.jsonl";
  std::remove(path.c_str());

  Graph g = grid2d(20, 20);
  Options o;
  o.nparts = 2;
  const PartitionResult r = partition(g, o);
  ASSERT_TRUE(append_run_record(path, make_run_record("unit", "g", g, o, r)));
  ASSERT_TRUE(append_run_record(path, make_run_record("unit", "g", g, o, r)));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_TRUE(testing::parse_json(line).has_value()) << line;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(RunLedger, AppendToUnwritablePathFailsSoftly) {
  Graph g = grid2d(10, 10);
  Options o;
  o.nparts = 2;
  const PartitionResult r = partition(g, o);
  // Telemetry must never fail the run: bad path returns false, no throw.
  EXPECT_FALSE(append_run_record("/nonexistent-dir/ledger.jsonl",
                                 make_run_record("unit", "g", g, o, r)));
}

}  // namespace
}  // namespace mcgp
