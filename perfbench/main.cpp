// perfbench: the benchmark of the mcgp partitioner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// One run builds the workload's instance, then calls the public entry
// points partition() / refine_partition() for --seconds seconds: call seeds
// 0, 1, 2, ... each with a partition seed derived from --seed, each at
// num_threads 1 and 4 (closed loop, one caller, alternating which thread
// count goes first).
// Call and set-up times are scaled to a reference host speed measured
// around each of them (ScaledTimer, host_probe.hpp).
// Every result is checked independently of the library's own bookkeeping.
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run replays each call layer by layer from outside the library (see
// replay.hpp) and reports per-layer numbers instead. A human-readable
// table goes to standard error.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/metrics.hpp"
#include "host_probe.hpp"
#include "replay.hpp"
#include "support/random.hpp"

namespace {

using mcgp::Graph;
using mcgp::idx_t;
using mcgp::Options;
using mcgp::PartitionResult;
using mcgp::to_size;
using perfbench::Layer;
using perfbench::Trace;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Workloads -------------------------------------------------------------

enum class Kind { kKWay, kRB, kRefine };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  idx_t side;   ///< grid2d side length
  int m;        ///< constraints
  bool type_p;  ///< Type-P weights over 32 regions (else Type-S, 16 regions)
  /// Fixed per workload, not taken from --seed: other weight seeds put the
  /// same workload in another regime (a drift call at 0.8 s or at 5 s).
  std::uint64_t weight_seed;
};

// tight-grid13-m3 runs here but is not listed in BENCHMARK.json: its ~1 s
// serial calls vary too much with the host's load (README.md).

constexpr WorkloadSpec kWorkloads[] = {
    {"kw-grid480-m5", Kind::kKWay, 480, 5, false, 2005},
    {"rb-grid480-m5", Kind::kRB, 480, 5, false, 2005},
    {"tight-grid13-m3", Kind::kKWay, 13, 3, false, 2003},
    {"drift-grid240-p3", Kind::kRefine, 240, 3, true, 2003},
};

constexpr idx_t kParts = 64;
/// Every call of a run has its own call seed, 0, 1, 2, ... The first
/// kQualitySeeds are always run, and the quality metrics are means over
/// exactly these, so they are exact for a workload seed; wall times are
/// medians over every call the run makes.
constexpr int kQualitySeeds = 6;
/// The same for a traced run: its work counts come from these seeds.
constexpr int kTraceSeeds = 2;
/// The drift start partition: an 8x8 block decomposition of the grid.
constexpr idx_t kDriftBlocks = 8;

struct Instance {
  Graph g;
  std::vector<idx_t> start;  ///< refine workloads only
};

Instance make_instance(const WorkloadSpec& w) {
  Instance in;
  in.g = mcgp::grid2d(w.side, w.side);
  if (w.type_p) {
    mcgp::apply_type_p_weights(in.g, w.m, 32, w.weight_seed);
  } else {
    mcgp::apply_type_s_weights(in.g, w.m, 16, 0, 19, w.weight_seed);
  }
  if (w.kind == Kind::kRefine) {
    // grid2d numbers vertex (x, y) as x * side + y.
    const idx_t block = w.side / kDriftBlocks;
    in.start.resize(to_size(in.g.nvtxs));
    for (idx_t x = 0; x < w.side; ++x) {
      for (idx_t y = 0; y < w.side; ++y) {
        in.start[to_size(x * w.side + y)] =
            (x / block) * kDriftBlocks + y / block;
      }
    }
  }
  return in;
}

bool same_instance(const Instance& a, const Instance& b) {
  return a.g.xadj == b.g.xadj && a.g.adjncy == b.g.adjncy &&
         a.g.adjwgt == b.g.adjwgt && a.g.vwgt == b.g.vwgt &&
         a.start == b.start;
}

Options call_options(const WorkloadSpec& w, std::uint64_t seed, int call,
                     int threads) {
  Options o;
  o.nparts = kParts;
  o.algorithm = w.kind == Kind::kRB ? mcgp::Algorithm::kRecursiveBisection
                                    : mcgp::Algorithm::kKWay;
  o.seed = mcgp::mix_seed(seed, 1000 + static_cast<std::uint64_t>(call));
  o.num_threads = threads;
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The workload's instance and its set-up. The first slice keeps the
/// instance; every later set-up must reproduce it.
class Setup {
 public:
  explicit Setup(const WorkloadSpec& w) : w_(w) {}

  /// Times set-ups until at least `min_reps` ran and `min_seconds` passed,
  /// and returns their median seconds.
  double slice(int min_reps, double min_seconds) {
    std::vector<double> times;
    const Clock::time_point begin = Clock::now();
    for (int n = 0; n < min_reps || seconds_since(begin) < min_seconds; ++n) {
      const Clock::time_point t0 = Clock::now();
      Instance in = make_instance(w_);
      times.push_back(seconds_since(t0));
      if (!have_inst_) {
        inst_ = std::move(in);
        have_inst_ = true;
      } else if (!same_instance(inst_, in)) {
        deterministic_ = false;
      }
    }
    return median(std::move(times));
  }

  const Instance& inst() const { return inst_; }
  bool deterministic() const { return deterministic_; }

 private:
  const WorkloadSpec& w_;
  Instance inst_;
  bool have_inst_ = false;
  bool deterministic_ = true;
};

/// Set-up slice timed after every call pair of an untraced run.
constexpr double kSetupSliceSeconds = 0.05;

/// Pins the calling thread to one CPU while it lives, then gives it back
/// the CPUs it had.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(int cpu) {
    CPU_ZERO(&prev_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_getaffinity(0, sizeof prev_, &prev_) == 0 &&
              sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinnedToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof prev_, &prev_);
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t prev_;
  bool pinned_ = false;
};

/// Times work on the reference host scale (host_probe.hpp). On a shared
/// host the cores slow down one by one as other tenants load them, so
/// single-thread work runs pinned, on each CPU the process may use in turn,
/// between two single-thread probes on that CPU; four-thread work runs
/// between two four-thread probes. The work's seconds are scaled by the
/// mean of its two probes.
class ScaledTimer {
 public:
  ScaledTimer() {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof s, &s) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &s)) cpus_.push_back(c);
      }
    }
  }

  struct Time {
    double raw_s;
    double scaled_s;
  };

  /// Runs `work` (which returns the seconds it measured) at `threads`.
  template <class F>
  Time time(int threads, F&& work) {
    std::optional<PinnedToCpu> pin;
    if (threads == 1 && !cpus_.empty()) pin.emplace(cpus_[next_++ % cpus_.size()]);
    const double before = probe_.measure(threads);
    const double secs = work();
    const double after = probe_.measure(threads);
    probes_.push_back(0.5 * (before + after) /
                      perfbench::HostProbe::reference_seconds(threads));
    return {secs, secs / probes_.back()};
  }

  /// Median over every timing so far of the probe's slowdown against its
  /// reference.
  double median_slowdown() const { return median(probes_); }

 private:
  perfbench::HostProbe probe_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::vector<double> probes_;
};

// ---- Calls and their independent checks ------------------------------------

/// Re-derives every claim of a result from the part vector alone: a valid
/// k-way assignment with no empty part, the cut, the worst imbalance, and
/// the feasibility verdict against the tolerances the run reports using.
std::string check_result(const Instance& in, const PartitionResult& r) {
  const Graph& g = in.g;
  std::string problem =
      mcgp::validate_partition(g, r.part, kParts, /*require_nonempty=*/true);
  if (!problem.empty()) return "invalid partition: " + problem;
  if (mcgp::edge_cut(g, r.part) != r.cut) return "reported cut is wrong";
  if (r.ubvec_used.size() != to_size(g.ncon)) return "ubvec_used arity";
  const std::vector<mcgp::sum_t> pw = mcgp::part_weights(g, r.part, kParts);
  bool feasible = true;
  double worst = 1.0;
  for (int i = 0; i < g.ncon; ++i) {
    const double tv = static_cast<double>(g.tvwgt[to_size(i)]);
    if (tv <= 0) continue;
    if (r.ubvec_used[to_size(i)] < 1.05) return "tolerance below the request";
    for (idx_t p = 0; p < kParts; ++p) {
      const double w = static_cast<double>(
          pw[to_size(p) * to_size(g.ncon) + to_size(i)]);
      worst = std::max(worst, static_cast<double>(kParts) * w / tv);
      if (w > r.ubvec_used[to_size(i)] * tv / static_cast<double>(kParts) +
                  1e-9) {
        feasible = false;
      }
    }
  }
  if (feasible != r.feasible) return "feasibility verdict is wrong";
  if (std::abs(worst - r.max_imbalance) > 1e-9 * worst) {
    return "reported max imbalance is wrong";
  }
  return "";
}

/// What the first call at one call seed returned.
struct Outcome {
  bool valid = false;
  double cut = 0.0;
  double max_imbalance = 0.0;
  bool feasible = false;
  double migrated = 0.0;  ///< refine workloads: moved vertices / n
};

/// Calls the workload's entry point, timed and checked. Call seeds are
/// visited in order. The first good result at a seed is its reference;
/// every further call at that seed (the other thread count, the replays)
/// must return the same part vector. Only the current seed's part vector
/// is kept, so memory does not grow with the number of calls.
struct Caller {
  const WorkloadSpec& w;
  const Instance& inst;
  std::uint64_t seed;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Outcome> outcomes{};  ///< by call seed
  int ref_seed = -1;
  std::vector<idx_t> ref_part{};

  /// Returns the wall seconds of the call.
  double call(int i, int threads) {
    const Options o = call_options(w, seed, i, threads);
    ++attempted;
    std::string err;
    PartitionResult r;
    const Clock::time_point t0 = Clock::now();
    try {
      r = w.kind == Kind::kRefine ? mcgp::refine_partition(inst.g, inst.start, o)
                                  : mcgp::partition(inst.g, o);
    } catch (const std::exception& e) {
      err = std::string("threw: ") + e.what();
    }
    const double secs = seconds_since(t0);
    if (err.empty()) err = check_result(inst, r);
    if (err.empty() && i != ref_seed) {
      if (outcomes.size() <= to_size(i)) outcomes.resize(to_size(i) + 1);
      Outcome& out = outcomes[to_size(i)];
      out.valid = true;
      out.cut = static_cast<double>(r.cut);
      out.max_imbalance = r.max_imbalance;
      out.feasible = r.feasible;
      if (w.kind == Kind::kRefine) {
        out.migrated =
            static_cast<double>(mcgp::moved_vertices(inst.start, r.part)) /
            static_cast<double>(inst.g.nvtxs);
      }
      ref_seed = i;
      ref_part = std::move(r.part);
    } else if (err.empty() && r.part != ref_part) {
      err = "part vector differs from the first call at this seed";
    }
    if (!err.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: call seed %d threads %d: %s\n", i,
                   threads, err.c_str());
    }
    return secs;
  }

  /// Mean of one outcome field over call seeds [0, n).
  template <class F>
  double mean_outcome(int n, F field) const {
    std::vector<double> v;
    for (int i = 0; i < n && to_size(i) < outcomes.size(); ++i) {
      if (outcomes[to_size(i)].valid) v.push_back(field(outcomes[to_size(i)]));
    }
    return mean(v);
  }
};

// ---- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void emit(const char* workload, bool correct, std::int64_t attempted,
          std::int64_t failed, const std::vector<Metric>& ms) {
  std::fprintf(stderr, "\n%s: %lld calls, %lld failed\n", workload,
               static_cast<long long>(attempted),
               static_cast<long long>(failed));
  for (const Metric& m : ms) {
    std::fprintf(stderr, "  %-26s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- Runs ------------------------------------------------------------------

/// A run keeps starting calls while the next one is expected to end less
/// than half a call past the deadline.
bool time_left(Clock::time_point begin, double seconds, double last_step_s) {
  return seconds_since(begin) + 0.5 * last_step_s < seconds;
}

int run_untraced(const WorkloadSpec& w, std::uint64_t seed, double seconds) {
  ScaledTimer timer;
  Setup setup(w);
  // Set-up is timed in slices spread over the whole run, one at the start
  // and one after every call pair, so that it samples the host as the
  // calls do; setup_s is the median over the slices.
  std::vector<double> setups;
  std::vector<double> t1s;
  std::vector<double> t4s;
  std::vector<double> raw_t1s;
  std::vector<double> raw_t4s;
  auto setup_slice = [&](int min_reps, double min_seconds) {
    setups.push_back(
        timer.time(1, [&] { return setup.slice(min_reps, min_seconds); })
            .scaled_s);
  };
  setup_slice(5, 0.1);
  Caller c{w, setup.inst(), seed};
  const Clock::time_point begin = Clock::now();
  double step_s = 0.0;
  for (int i = 0; i < kQualitySeeds || time_left(begin, seconds, step_s); ++i) {
    const Clock::time_point t0 = Clock::now();
    const bool t4_first = i % 2 == 1;
    for (int k = 0; k < 2; ++k) {
      const int threads = (k == 0) != t4_first ? 1 : 4;
      const ScaledTimer::Time t =
          timer.time(threads, [&] { return c.call(i, threads); });
      (threads == 1 ? t1s : t4s).push_back(t.scaled_s);
      (threads == 1 ? raw_t1s : raw_t4s).push_back(t.raw_s);
    }
    step_s = seconds_since(t0);
    setup_slice(1, kSetupSliceSeconds);
  }

  const std::int64_t failed = c.failed + (setup.deterministic() ? 0 : 1);
  if (!setup.deterministic()) {
    std::fprintf(stderr, "perfbench: set-up is not deterministic\n");
  }
  std::fprintf(stderr,
               "samples: %zu at t=1, %zu at t=4; unscaled medians %.4f s at "
               "t=1, %.4f s at t=4; median host slowdown %.4f\n",
               t1s.size(), t4s.size(), median(raw_t1s), median(raw_t4s),
               timer.median_slowdown());
  emit(w.name, failed == 0, c.attempted, failed,
       {{"setup_s", median(setups), "s"},
        {"wall_t1_s", median(t1s), "s"},
        {"wall_t4_s", median(t4s), "s"},
        {"cut", c.mean_outcome(kQualitySeeds, [](const Outcome& o) { return o.cut; }),
         "weight"},
        {"max_imbalance",
         c.mean_outcome(kQualitySeeds,
                        [](const Outcome& o) { return o.max_imbalance; }),
         "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

template <class F>
double trace_mean(const std::vector<Trace>& ts, F field) {
  double s = 0.0;
  for (const Trace& t : ts) s += static_cast<double>(field(t));
  return ts.empty() ? 0.0 : s / static_cast<double>(ts.size());
}

int run_traced(const WorkloadSpec& w, std::uint64_t seed, double seconds,
               const char* spans_path) {
  Setup setup(w);
  setup.slice(1, 0.0);
  Caller c{w, setup.inst(), seed};
  // MC-RB recursion runs layers in concurrent tasks at 4 threads; only the
  // serial-layer drivers are replayed there.
  const bool replay_t4 = w.kind != Kind::kRB;
  std::vector<Trace> t1_traces;
  std::vector<Trace> t4_traces;
  std::vector<double> untraced_t1;
  std::int64_t replays = 0;
  std::int64_t mismatched = 0;

  auto replay = [&](int i, int threads) {
    const Options o = call_options(w, seed, i, threads);
    ++replays;
    perfbench::Replay r;
    try {
      r = w.kind == Kind::kRefine
              ? perfbench::replay_refine(setup.inst().g, setup.inst().start, o)
              : perfbench::replay_partition(setup.inst().g, o);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: replay threw: %s\n", e.what());
      ++mismatched;
      return r.trace;
    }
    if (c.ref_seed != i || c.ref_part != r.part) {
      std::fprintf(stderr,
                   "perfbench: replay at seed %d threads %d differs from "
                   "the untraced call\n",
                   i, threads);
      ++mismatched;
    }
    return r.trace;
  };

  const Clock::time_point begin = Clock::now();
  double step_s = 0.0;
  for (int i = 0; i < kTraceSeeds || time_left(begin, seconds, step_s); ++i) {
    const Clock::time_point t0 = Clock::now();
    untraced_t1.push_back(c.call(i, 1));
    t1_traces.push_back(replay(i, 1));
    if (replay_t4) {
      c.call(i, 4);
      t4_traces.push_back(replay(i, 4));
    }
    step_s = seconds_since(t0);
  }

  if (spans_path != nullptr) {
    std::ofstream(spans_path) << perfbench::spans_json(t1_traces.front(), w.name);
  }
  const double infeasible = c.mean_outcome(
      kTraceSeeds, [](const Outcome& o) { return o.feasible ? 0.0 : 1.0; });
  const double migrated =
      c.mean_outcome(kTraceSeeds, [](const Outcome& o) { return o.migrated; });

  // Work counts are means over the first kTraceSeeds replays, so they are
  // exact for a workload seed. Times are means over every replay, so that
  // the layer self times and unattributed_s add up to replay.wall_s.
  const std::vector<Trace> first(t1_traces.begin(),
                                 t1_traces.begin() + kTraceSeeds);
  auto count = [&](auto field) { return trace_mean(first, field); };
  auto calls = [&](Layer l) {
    return count([l](const Trace& t) { return t.calls[static_cast<std::size_t>(l)]; });
  };
  auto self = [](const std::vector<Trace>& ts, Layer l) {
    return trace_mean(ts, [l](const Trace& t) { return t.self_s(l); });
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  const double wall = trace_mean(t1_traces, [](const Trace& t) { return t.wall_s; });
  const double reb_calls = calls(Layer::kRebalance);
  const double kway_passes = count([](const Trace& t) { return t.kway_passes; });
  const double kway_moves = count([](const Trace& t) { return t.kway_moves; });
  const double levels = count([](const Trace& t) { return t.coarsen_levels; });
  std::vector<Metric> ms = {
      {"coarsen.self_s", self(t1_traces, Layer::kCoarsen), "s"},
      {"coarsen.self_t4_s", self(t4_traces, Layer::kCoarsen), "s"},
      {"coarsen.calls", calls(Layer::kCoarsen), "count"},
      {"coarsen.levels", levels, "count"},
      {"coarsen.edges", count([](const Trace& t) { return t.coarsen_edges; }), "count"},
      {"coarsen.reduction",
       ratio(count([](const Trace& t) { return t.coarsen_ratio_sum; }), levels),
       "ratio"},
      {"initpart.self_s", self(t1_traces, Layer::kInitpart), "s"},
      {"initpart.self_t4_s", self(t4_traces, Layer::kInitpart), "s"},
      {"initpart.calls", calls(Layer::kInitpart), "count"},
      {"initpart.coarsest_nvtxs",
       ratio(count([](const Trace& t) { return t.init_coarsest_nvtxs; }),
             calls(Layer::kInitpart)),
       "count"},
      {"balance2way.self_s", self(t1_traces, Layer::kBalance2way), "s"},
      {"refine2way.self_s", self(t1_traces, Layer::kRefine2way), "s"},
      {"refine2way.calls", calls(Layer::kRefine2way), "count"},
      {"refine2way.passes", count([](const Trace& t) { return t.fm_passes; }), "count"},
      {"refine2way.moves", count([](const Trace& t) { return t.fm_moves; }), "count"},
      {"project.self_s", self(t1_traces, Layer::kProject), "s"},
      {"rb_split.self_s", self(t1_traces, Layer::kRbSplit), "s"},
      {"kway_refine.self_s", self(t1_traces, Layer::kKwayRefine), "s"},
      {"kway_refine.self_t4_s", self(t4_traces, Layer::kKwayRefine), "s"},
      {"kway_refine.l0_s",
       trace_mean(t1_traces,
                  [](const Trace& t) {
                    return t.self_s_at_level0(Layer::kKwayRefine);
                  }),
       "s"},
      {"kway_refine.calls", calls(Layer::kKwayRefine), "count"},
      {"kway_refine.passes", kway_passes, "count"},
      {"kway_refine.moves", kway_moves, "count"},
      {"kway_refine.moves_per_pass", ratio(kway_moves, kway_passes), "count"},
      {"rebalance.self_s", self(t1_traces, Layer::kRebalance), "s"},
      {"rebalance.calls", reb_calls, "count"},
      {"rebalance.episodes", count([](const Trace& t) { return t.reb_episodes; }), "count"},
      {"rebalance.vcycles", count([](const Trace& t) { return t.reb_vcycles; }), "count"},
      {"rebalance.moves", count([](const Trace& t) { return t.reb_moves; }), "count"},
      {"rebalance.swaps", count([](const Trace& t) { return t.reb_swaps; }), "count"},
      {"rebalance.feasible_frac",
       ratio(count([](const Trace& t) { return t.reb_feasible; }), reb_calls),
       "ratio"},
      {"replay.wall_s", wall, "s"},
      {"replay.wall_t4_s",
       trace_mean(t4_traces, [](const Trace& t) { return t.wall_s; }), "s"},
      {"unattributed_s",
       trace_mean(t1_traces, [](const Trace& t) { return t.unattributed_s(); }),
       "s"},
  };
  const bool match = mismatched == 0;
  if (!match) {
    // A replay that is not the real program has no layer numbers to give.
    std::fprintf(stderr, "perfbench: layer numbers withheld\n");
    for (Metric& m : ms) m.value = 0.0;
  }
  ms.push_back({"replay_match", match ? 1.0 : 0.0, "bool"});
  ms.push_back({"trace_overhead", ratio(wall, median(untraced_t1)), "ratio"});
  ms.push_back({"infeasible_frac", infeasible, "ratio"});
  ms.push_back({"migrated_frac", migrated, "ratio"});

  const std::int64_t failed =
      c.failed + mismatched + (setup.deterministic() ? 0 : 1);
  emit(w.name, failed == 0, c.attempted + replays, failed, ms);
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\nworkloads:",
               msg);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = nullptr;
  const char* seed_arg = nullptr;
  const char* seconds_arg = nullptr;
  const char* trace_arg = "0";
  const char* spans_path = nullptr;
  for (int a = 1; a < argc; ++a) {
    if (a + 1 >= argc) usage("every option takes a value");
    const char* v = argv[a + 1];
    if (std::strcmp(argv[a], "--workload") == 0) workload = v;
    else if (std::strcmp(argv[a], "--seed") == 0) seed_arg = v;
    else if (std::strcmp(argv[a], "--seconds") == 0) seconds_arg = v;
    else if (std::strcmp(argv[a], "--trace") == 0) trace_arg = v;
    else if (std::strcmp(argv[a], "--spans") == 0) spans_path = v;
    else usage("unknown option");
    ++a;
  }
  if (workload == nullptr || seed_arg == nullptr || seconds_arg == nullptr) {
    usage("--workload, --seed and --seconds are required");
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (std::strcmp(w.name, workload) == 0) spec = &w;
  }
  if (spec == nullptr) usage("unknown workload");
  const std::uint64_t seed = std::strtoull(seed_arg, nullptr, 10);
  const double seconds = std::strtod(seconds_arg, nullptr);
  if (!(seconds > 0)) usage("--seconds must be positive");
  const bool trace = std::strcmp(trace_arg, "1") == 0;
  if (!trace && std::strcmp(trace_arg, "0") != 0) usage("--trace is 0 or 1");

  try {
    return trace ? run_traced(*spec, seed, seconds, spans_path)
                 : run_untraced(*spec, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
