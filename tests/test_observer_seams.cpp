// The sinks agree at every seam: the trace, the flight recorder and the
// profile of one run describe the same uncoarsening levels and
// refinement passes with the same numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "support/flight_recorder.hpp"
#include "support/profiler.hpp"
#include "support/trace.hpp"

namespace mcgp {
namespace {

/// Integer arg `key` of an end event; fails the test when absent.
std::int64_t arg_of(const TraceEvent& ev, const char* key) {
  for (const TraceArg& a : ev.args) {
    if (std::string(a.key) == key) return a.i;
  }
  ADD_FAILURE() << ev.name << " end event has no `" << key << "` arg";
  return -1;
}

/// End events named `name` or `alt`, in order of occurrence.
std::vector<const TraceEvent*> ends(const TraceRecorder& tr, const char* name,
                                    const char* alt = "") {
  std::vector<const TraceEvent*> out;
  for (const TraceEvent& ev : tr.events()) {
    const std::string n = ev.name;
    if (ev.type == TraceEvent::Type::kEnd && (n == name || n == alt)) {
      out.push_back(&ev);
    }
  }
  return out;
}

/// Samples of stage `a` or `b`, in order of occurrence.
std::vector<FlightSample> samples(const FlightRecorder& fr,
                                  FlightSample::Stage a,
                                  FlightSample::Stage b) {
  std::vector<FlightSample> out;
  for (const FlightSample& s : fr.snapshot()) {
    if (s.stage == a || s.stage == b) out.push_back(s);
  }
  return out;
}

// One thread keeps every span in the home log and every sample in call
// order, so the i-th sample of a kind pairs with the i-th span of that
// kind. The 110x110 grid's finest levels take the handshake matching.
TEST(ObserverSeams, SinksAgreeAtEverySeam) {
  Graph g = grid2d(110, 110);
  apply_type_s_weights(g, 3, 16, 0, 19, 2003);
  for (const Algorithm alg :
       {Algorithm::kKWay, Algorithm::kRecursiveBisection}) {
    SCOPED_TRACE(alg == Algorithm::kKWay ? "MC-KW" : "MC-RB");
    TraceRecorder trace;
    FlightRecorder flight(1 << 16);
    Options o;
    o.nparts = 16;
    o.algorithm = alg;
    o.num_threads = 1;
    o.trace = &trace;
    o.flight = &flight;
    const PartitionResult r = partition(g, o);
    ASSERT_EQ(flight.dropped(), 0u);
    ASSERT_EQ(trace.num_thread_logs(), 1u);

    std::set<std::pair<std::string, int>> buckets;
    for (const ProfPhase& p : r.profile.phases) {
      buckets.insert({p.phase, p.level});
    }

    // Uncoarsening levels: MC-KW's own and those of the bisections that
    // build its initial partition (profiled there only as "initpart").
    const std::vector<FlightSample> levels =
        samples(flight, FlightSample::Stage::kUncoarsenKWay,
                FlightSample::Stage::kUncoarsen2Way);
    const std::vector<const TraceEvent*> level_spans =
        ends(trace, "uncoarsen.level");
    ASSERT_FALSE(levels.empty());
    ASSERT_EQ(levels.size(), level_spans.size());
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const FlightSample& s = levels[i];
      const TraceEvent& ev = *level_spans[i];
      EXPECT_EQ(s.level, arg_of(ev, "level")) << "level sample " << i;
      EXPECT_EQ(s.nvtxs, arg_of(ev, "nvtxs")) << "level sample " << i;
      EXPECT_EQ(s.nedges, arg_of(ev, "nedges")) << "level sample " << i;
      EXPECT_EQ(s.cut, arg_of(ev, "cut")) << "level sample " << i;
      const bool own = alg == Algorithm::kKWay
                           ? s.stage == FlightSample::Stage::kUncoarsenKWay
                           : s.stage == FlightSample::Stage::kUncoarsen2Way;
      if (own) {
        const char* phase =
            alg == Algorithm::kKWay ? "kway_refine" : "refine2way";
        EXPECT_EQ(buckets.count({phase, s.level}), 1u)
            << phase << " bucket missing at level " << s.level;
      }
    }

    // Refinement passes, k-way and FM alike.
    const std::vector<FlightSample> passes =
        samples(flight, FlightSample::Stage::kKWayPass,
                FlightSample::Stage::kFmPass);
    const std::vector<const TraceEvent*> pass_spans =
        ends(trace, "kway.pass", "fm.pass");
    ASSERT_FALSE(passes.empty());
    ASSERT_EQ(passes.size(), pass_spans.size());
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const bool kway = passes[i].stage == FlightSample::Stage::kKWayPass;
      EXPECT_EQ(std::string(pass_spans[i]->name),
                kway ? "kway.pass" : "fm.pass")
          << "pass sample " << i;
      EXPECT_EQ(passes[i].moves, arg_of(*pass_spans[i], "moves"))
          << "pass sample " << i;
    }
  }
}

}  // namespace
}  // namespace mcgp
