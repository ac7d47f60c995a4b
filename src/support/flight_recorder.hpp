// Flight recorder: a bounded, thread-safe ring of per-level pipeline
// samples.
//
// The trace layer (support/trace.hpp) answers "where did the time go";
// the flight recorder answers "how did the solution evolve": one compact
// sample per coarsening level, per uncoarsening level, and per refinement
// pass, carrying the graph size, the current cut, the per-constraint load
// imbalances, and the process memory high-water mark at that moment. The
// ring is bounded (oldest samples are overwritten), so a recorder can stay
// attached to an arbitrarily long run — including a differential-fuzz
// campaign — at fixed memory cost, and when an AuditFailure aborts the
// run the most recent window of samples is exactly the postmortem a
// debugger wants (see dump_on_failure()).
//
// Like Options::trace, a null Options::flight costs one pointer test per
// instrumentation point. The recorder only observes: attaching it never
// changes partitions, which stay bit-identical across thread counts.
// Samples from concurrent tasks interleave in arrival order under one
// mutex (recording is per-level, not per-move, so the lock is cold).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/thread_annotations.hpp"
#include "support/types.hpp"

namespace mcgp {

class JsonWriter;

/// One telemetry sample. Producers fill the pipeline fields; record()
/// stamps seq / ts_ns / rss_bytes.
struct FlightSample {
  /// Which instrumentation point produced the sample.
  enum class Stage : std::uint8_t {
    kCoarsenLevel = 0,  ///< one contraction (coarse graph just built)
    kUncoarsen2Way,     ///< one RB uncoarsening level after 2-way refine
    kUncoarsenKWay,     ///< one k-way uncoarsening level after refine
    kFmPass,            ///< one 2-way FM pass
    kKWayPass,          ///< one k-way greedy/pq sweep
    kRebalance,         ///< one rebalance_partition escalation
    kFinal,             ///< end-of-run summary sample
  };

  Stage stage = Stage::kFinal;
  int level = -1;  ///< hierarchy level (0 = finest); -1 when n/a
  int pass = -1;   ///< refinement pass index; -1 when n/a
  int ncon = 0;    ///< entries of imbalance[] that are meaningful
  idx_t nvtxs = 0;
  idx_t nedges = 0;
  std::int64_t moves = 0;  ///< committed moves (refinement stages)
  sum_t cut = -1;          ///< current cut; -1 = not computed here
  sum_t gain = 0;          ///< cut improvement of the pass
  /// Level stages: worst per-constraint load imbalance. Pass stages: the
  /// refiner's balance scalar (FM potential / k-way max overload).
  real_t worst_imbalance = 0.0;
  real_t imbalance[kMaxNcon] = {};  ///< per-constraint load imbalance
  /// Balance-contract verdict at this point: 1 = every constraint of
  /// every part within ubvec, 0 = residual overload, -1 = not evaluated
  /// at this stage.
  int feasible = -1;

  // Stamped by FlightRecorder::record():
  std::uint64_t seq = 0;        ///< global arrival index (0-based)
  std::int64_t ts_ns = 0;       ///< nanoseconds since recorder creation
  std::int64_t rss_bytes = -1;  ///< last sampled RSS; -1 = unknown
};

/// Stable name of a sample stage (JSON exports and tests).
const char* flight_stage_name(FlightSample::Stage s);

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Append a sample, overwriting the oldest once the ring is full.
  /// Thread-safe; the optional on_sample callback runs under the lock.
  void record(FlightSample s);

  /// Read the process RSS counters now and fold them into the memory
  /// high-water marks; subsequently recorded samples carry the refreshed
  /// value. Called by the pipeline at level granularity (one small
  /// /proc read per level, never per move).
  void sample_memory();

  /// Fold a workspace footprint observation into the workspace high-water
  /// marks (bytes of scratch capacity, number of pooled workspaces).
  void note_workspace(std::int64_t bytes, std::int64_t count);

  /// The retained window, oldest first. Call after parallel work joined
  /// for a stable view (safe, but a moving target, while recording).
  std::vector<FlightSample> snapshot() const;

  std::size_t capacity() const { return capacity_; }
  /// Samples ever recorded / overwritten-and-lost to the bound.
  std::uint64_t total_recorded() const;
  std::uint64_t dropped() const;

  std::int64_t peak_rss_bytes() const {
    return peak_rss_.load(std::memory_order_relaxed);
  }
  std::int64_t workspace_bytes() const {
    return ws_bytes_.load(std::memory_order_relaxed);
  }
  std::int64_t workspace_count() const {
    return ws_count_.load(std::memory_order_relaxed);
  }

  /// Live-progress hook: invoked for every record() with the stamped
  /// sample, under the recorder lock (keep it cheap; do not re-enter the
  /// recorder). Set before the run starts; null disables.
  void set_on_sample(std::function<void(const FlightSample&)> cb);

  /// Where dump_on_failure() writes its postmortem JSON. Relative paths
  /// (the default is one) are resolved against the MCGP_POSTMORTEM_DIR
  /// environment variable at dump time when it is set and non-empty,
  /// falling back to the working directory; absolute paths are used
  /// as-is.
  void set_dump_path(std::string path);
  const std::string& dump_path() const { return dump_path_; }
  /// dump_path() after MCGP_POSTMORTEM_DIR resolution — the file
  /// dump_on_failure() would write right now.
  std::string resolved_dump_path() const;

  /// Serialize the retained window plus memory high-water marks as one
  /// JSON object: {"schema_version", "capacity", "total_recorded",
  /// "dropped", "memory": {...}, "samples": [...]}.
  void write_json(std::ostream& out) const;

  /// Same object written as a value of an enclosing document (the run
  /// report's "timeline" section, the postmortem's "flight" section).
  void write_json_value(JsonWriter& w) const;

  /// Write the postmortem artifact for an aborted run: the write_json()
  /// document plus the failure message, to dump_path(). Returns false if
  /// the file cannot be written (the caller is already unwinding an
  /// exception — this must not throw).
  bool dump_on_failure(const std::string& what) const noexcept;

  /// Drop all samples and counters (capacity and dump path kept). Only
  /// valid while no other thread is recording.
  void clear();

 private:
  /// Atomic running-maximum (relaxed; the exact publication order of two
  /// racing maxima is irrelevant — the final value is the true max).
  static void fold_max(std::atomic<std::int64_t>& slot, std::int64_t value);

  const std::size_t capacity_;
  /// monotonic_now_ns() at construction; sample ts_ns are offsets from it.
  std::int64_t origin_ns_;
  std::string dump_path_ = "mcgp_flight_postmortem.json";

  std::atomic<std::int64_t> last_rss_{-1};
  std::atomic<std::int64_t> peak_rss_{-1};
  std::atomic<std::int64_t> ws_bytes_{-1};
  std::atomic<std::int64_t> ws_count_{-1};

  mutable Mutex mu_;
  std::vector<FlightSample> ring_ MCGP_GUARDED_BY(mu_);
  std::uint64_t next_seq_ MCGP_GUARDED_BY(mu_) = 0;
  std::function<void(const FlightSample&)> on_sample_ MCGP_GUARDED_BY(mu_);
};

}  // namespace mcgp
