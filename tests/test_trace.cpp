#include "support/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "json_test_util.hpp"
#include "support/counters.hpp"
#include "support/schema.hpp"

namespace mcgp {
namespace {

using testing::JsonValue;
using testing::parse_json;

TEST(TraceRecorder, SpanNestingDepths) {
  TraceRecorder tr;
  tr.begin("outer");
  EXPECT_EQ(tr.depth(), 1);
  tr.begin("inner");
  EXPECT_EQ(tr.depth(), 2);
  tr.instant("tick");
  tr.end();
  EXPECT_EQ(tr.depth(), 1);
  tr.end();
  EXPECT_EQ(tr.depth(), 0);

  const auto& ev = tr.events();
  ASSERT_EQ(ev.size(), 5u);
  EXPECT_EQ(ev[0].type, TraceEvent::Type::kBegin);
  EXPECT_EQ(ev[0].depth, 0);
  EXPECT_STREQ(ev[0].name, "outer");
  EXPECT_EQ(ev[1].depth, 1);
  EXPECT_EQ(ev[2].type, TraceEvent::Type::kInstant);
  EXPECT_EQ(ev[2].depth, 2);
  // End events carry the innermost open span's name.
  EXPECT_EQ(ev[3].type, TraceEvent::Type::kEnd);
  EXPECT_STREQ(ev[3].name, "inner");
  EXPECT_STREQ(ev[4].name, "outer");
  // Timestamps are monotone.
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i].ts_ns, ev[i - 1].ts_ns);
  }
}

TEST(TraceRecorder, UnmatchedEndIsDropped) {
  TraceRecorder tr;
  tr.end({{"ignored", std::int64_t{1}}});
  EXPECT_TRUE(tr.events().empty());
  EXPECT_EQ(tr.depth(), 0);
}

TEST(TraceRecorder, ClearDropsEventsAndCounters) {
  TraceRecorder tr;
  tr.begin("span");
  tr.counters().incr("n");
  tr.clear();
  EXPECT_TRUE(tr.events().empty());
  EXPECT_EQ(tr.depth(), 0);
  EXPECT_TRUE(tr.counters().empty());
}

TEST(TraceSpan, RaiiEmitsBeginEndWithArgs) {
  TraceRecorder tr;
  {
    TraceSpan sp(&tr, "work");
    ASSERT_TRUE(sp.enabled());
    sp.arg({"cut", std::int64_t{42}});
    sp.arg({"ratio", 0.5});
  }
  const auto& ev = tr.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[1].type, TraceEvent::Type::kEnd);
  ASSERT_EQ(ev[1].args.size(), 2u);
  EXPECT_STREQ(ev[1].args[0].key, "cut");
  EXPECT_FALSE(ev[1].args[0].is_float);
  EXPECT_EQ(ev[1].args[0].i, 42);
  EXPECT_STREQ(ev[1].args[1].key, "ratio");
  EXPECT_TRUE(ev[1].args[1].is_float);
  EXPECT_DOUBLE_EQ(ev[1].args[1].f, 0.5);
}

TEST(TraceSpan, FinishIsIdempotent) {
  TraceRecorder tr;
  TraceSpan sp(&tr, "once");
  sp.finish();
  sp.finish();            // second finish must not emit another end
  sp.arg({"late", 1.0});  // args after finish are ignored
  EXPECT_EQ(tr.events().size(), 2u);
  EXPECT_EQ(tr.depth(), 0);
}

TEST(TraceSpan, NullRecorderIsSafeNoop) {
  TraceSpan sp(nullptr, "nothing");
  EXPECT_FALSE(sp.enabled());
  sp.arg({"k", std::int64_t{1}});
  sp.finish();
  trace_instant(nullptr, "tick", {{"a", std::int64_t{2}}});
  trace_count(nullptr, "counter");
  // Reaching here without dereferencing null is the test.
}

TEST(CounterRegistry, AccumulatesInFirstUseOrder) {
  CounterRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.incr("fm.moves", 3);
  reg.incr("match.failed");
  reg.incr("fm.moves", 4);
  EXPECT_EQ(reg.get("fm.moves"), 7);
  EXPECT_EQ(reg.get("match.failed"), 1);
  EXPECT_EQ(reg.get("missing"), 0);
  ASSERT_EQ(reg.counters().size(), 2u);
  EXPECT_EQ(reg.counters()[0].first, "fm.moves");
  EXPECT_EQ(reg.counters()[1].first, "match.failed");
  reg.clear();
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.get("fm.moves"), 0);
}

TEST(Histogram, StatsAndPowerOfTwoBuckets) {
  CounterRegistry reg;
  Histogram& h = reg.hist("gain.histogram");
  for (const std::int64_t v : {0, 1, 1, 3, 5, -2, -17}) h.record(v);
  EXPECT_EQ(&h, reg.find_hist("gain.histogram"));
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.min(), -17);
  EXPECT_EQ(h.max(), 5);
  EXPECT_EQ(h.sum(), -9);
  EXPECT_NEAR(h.mean(), -9.0 / 7.0, 1e-12);

  std::uint64_t total = 0;
  for (const Histogram::Bucket& b : h.buckets()) {
    EXPECT_LE(b.lo, b.hi);
    total += b.count;
  }
  EXPECT_EQ(total, h.count());
  // Bucket boundaries sort ascending, so ranges cannot overlap.
  const auto buckets = h.buckets();
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GT(buckets[i].lo, buckets[i - 1].hi);
  }
}

TEST(TraceExport, ChromeTraceRoundTrip) {
  TraceRecorder tr;
  {
    TraceSpan outer(&tr, "outer");
    TraceSpan inner(&tr, "inner");
    inner.arg({"cut", std::int64_t{17}});
    inner.arg({"balance", 1.03});
    tr.instant("note \"quoted\"", {{"v", std::int64_t{-5}}});
  }
  std::ostringstream out;
  tr.write_chrome_trace(out);

  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value()) << out.str();
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->find("schema_version"), nullptr);
  EXPECT_DOUBLE_EQ(doc->find("schema_version")->number,
                   static_cast<double>(kMcgpSchemaVersion));
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 5u);

  int begins = 0, ends = 0, instants = 0;
  for (const JsonValue& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    const JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "B") ++begins;
    if (ph->str == "E") ++ends;
    if (ph->str == "i") ++instants;
    ASSERT_NE(ev.find("ts"), nullptr);
    EXPECT_TRUE(ev.find("ts")->is_number());
    ASSERT_NE(ev.find("name"), nullptr);
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(instants, 1);

  // The inner end event carries the recorded args.
  const JsonValue& inner_end = events->array[3];
  EXPECT_EQ(inner_end.find("name")->str, "inner");
  const JsonValue* args = inner_end.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->find("cut")->number, 17.0);
  EXPECT_NEAR(args->find("balance")->number, 1.03, 1e-9);
  // Escaped quotes in the instant's name survive the round trip.
  EXPECT_EQ(events->array[2].find("name")->str, "note \"quoted\"");
}

TEST(TraceExport, JsonlEveryLineParses) {
  TraceRecorder tr;
  {
    TraceSpan sp(&tr, "pass");
    sp.arg({"moves", std::int64_t{9}});
    tr.instant("tick");
  }
  std::ostringstream out;
  tr.write_jsonl(out);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> types;
  while (std::getline(lines, line)) {
    const auto doc = parse_json(line);
    ASSERT_TRUE(doc.has_value()) << line;
    ASSERT_TRUE(doc->is_object());
    types.push_back(doc->find("type")->str);
    ASSERT_NE(doc->find("name"), nullptr);
    ASSERT_NE(doc->find("ts_ns"), nullptr);
    ASSERT_NE(doc->find("depth"), nullptr);
  }
  EXPECT_EQ(types, (std::vector<std::string>{"begin", "instant", "end"}));
}

TEST(TraceExport, CountersJsonRoundTrip) {
  CounterRegistry reg;
  reg.incr("fm.moves", 12);
  reg.hist("gain.histogram").record(-3);
  reg.hist("gain.histogram").record(8);
  std::ostringstream out;
  reg.write_json(out);

  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value()) << out.str();
  ASSERT_NE(doc->find("schema_version"), nullptr);
  EXPECT_DOUBLE_EQ(doc->find("schema_version")->number,
                   static_cast<double>(kMcgpSchemaVersion));
  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("fm.moves")->number, 12.0);
  const JsonValue* hist = doc->find("histograms")->find("gain.histogram");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(hist->find("min")->number, -3.0);
  EXPECT_DOUBLE_EQ(hist->find("max")->number, 8.0);
  EXPECT_EQ(hist->find("buckets")->array.size(), 2u);
}

// Walk the event stream like a stack machine: every end must match an open
// begin and the recorder's stored depths must agree.
void check_well_nested(const std::vector<TraceEvent>& events) {
  std::vector<const char*> stack;
  for (const TraceEvent& ev : events) {
    switch (ev.type) {
      case TraceEvent::Type::kBegin:
        ASSERT_EQ(ev.depth, static_cast<int>(stack.size()));
        stack.push_back(ev.name);
        break;
      case TraceEvent::Type::kEnd:
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(ev.depth, static_cast<int>(stack.size()) - 1);
        EXPECT_STREQ(ev.name, stack.back());
        stack.pop_back();
        break;
      case TraceEvent::Type::kInstant:
        ASSERT_EQ(ev.depth, static_cast<int>(stack.size()));
        break;
    }
  }
  EXPECT_TRUE(stack.empty());
}

class TracedPipeline : public ::testing::TestWithParam<Algorithm> {};

TEST_P(TracedPipeline, EmitsNestedLevelsAndCounters) {
  Graph g = grid2d(48, 48);
  apply_type_s_weights(g, 2, 8, 0, 9, 5);
  TraceRecorder tr;
  Options o;
  o.nparts = 8;
  o.algorithm = GetParam();
  o.trace = &tr;
  const PartitionResult r = partition(g, o);
  EXPECT_GT(r.cut, 0);

  ASSERT_FALSE(tr.events().empty());
  EXPECT_EQ(tr.depth(), 0);
  check_well_nested(tr.events());

  int coarsen_levels = 0, refine_passes = 0, uncoarsen_levels = 0;
  bool saw_root = false;
  bool level_has_nvtxs = false;
  for (const TraceEvent& ev : tr.events()) {
    const std::string name = ev.name;
    if (name == "partition" && ev.type == TraceEvent::Type::kBegin) {
      EXPECT_EQ(ev.depth, 0);
      saw_root = true;
    }
    if (ev.type != TraceEvent::Type::kEnd) continue;
    if (name == "coarsen.level") {
      ++coarsen_levels;
      for (const TraceArg& a : ev.args) {
        if (std::string(a.key) == "nvtxs" && a.i > 0) level_has_nvtxs = true;
      }
    }
    if (name == "fm.pass" || name == "kway.pass") ++refine_passes;
    if (name == "uncoarsen.level") ++uncoarsen_levels;
  }
  EXPECT_TRUE(saw_root);
  EXPECT_GT(coarsen_levels, 0);
  EXPECT_GT(refine_passes, 0);
  EXPECT_GT(uncoarsen_levels, 0);
  EXPECT_TRUE(level_has_nvtxs);

  // Counters surfaced on the result and accumulated in the recorder.
  EXPECT_FALSE(r.counters.empty());
  EXPECT_GT(r.counters.get("coarsen.levels"), 0);
  EXPECT_EQ(r.counters.get("coarsen.levels"),
            tr.counters().get("coarsen.levels"));
  const Histogram* gains = r.counters.find_hist("gain.histogram");
  ASSERT_NE(gains, nullptr);
  EXPECT_GT(gains->count(), 0u);

  // The full pipeline trace must still be valid Chrome-trace JSON.
  std::ostringstream out;
  tr.write_chrome_trace(out);
  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("traceEvents")->array.size(), tr.events().size());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TracedPipeline,
                         ::testing::Values(Algorithm::kRecursiveBisection,
                                           Algorithm::kKWay));

TEST(TracedPipeline, DisabledTraceLeavesCountersEmpty) {
  Graph g = grid2d(24, 24);
  Options o;
  o.nparts = 4;
  const PartitionResult r = partition(g, o);
  EXPECT_TRUE(r.counters.empty());
}

}  // namespace
}  // namespace mcgp
