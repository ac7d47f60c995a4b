// Process-lifetime metrics registry with OpenMetrics exposition and a
// stall-detecting heartbeat.
//
// Every other observer (trace, flight recorder, profiler, run ledger) is
// scoped to one partition() call and read after the fact. The metrics
// registry is the opposite: one process-lifetime object that aggregates
// across many partition() calls — the ops surface a long-running
// `mcpartd` service scrapes live. It holds three metric kinds under
// labeled families:
//
//  * counters   — monotone event counts (runs, audit checks, rebalance
//                 escalations), saturating at the sum_t rails instead of
//                 throwing (telemetry must never abort the observed run);
//  * gauges     — last-observed values (cut, per-constraint imbalance,
//                 peak RSS, workspace footprint, runs in flight);
//  * histograms — log2-bucketed int64 distributions (latency in ns,
//                 cycles); p50/p90/p99 are derivable from the buckets.
//
// Like Options::trace/flight/profile, a null Options::metrics costs one
// pointer test per instrumentation point, and attaching a registry never
// changes partitions (bit-identical across thread counts, test-enforced).
//
// snapshot() copies the whole state under one lock, so a scraper sees a
// consistent view mid-run; exposition (OpenMetrics text or JSON) then
// serializes the snapshot without holding the lock. MetricsFlusher adds
// the service heartbeat: a background thread that periodically writes
// snapshots to a file and raises the `mcgp_stalled` gauge (plus an
// optional postmortem dump via MCGP_POSTMORTEM_DIR) when runs are in
// flight but the pipeline has made no progress for longer than the
// configured timeout. Progress is stamped from the flight-recorder hook
// (FlightRecorder::set_metrics), so any recorded sample counts as life.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/thread_annotations.hpp"
#include "support/types.hpp"

namespace mcgp {

class JsonWriter;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Stable kind name ("counter"/"gauge"/"histogram") for exposition.
const char* metric_kind_name(MetricKind k);

/// Histograms bucket by log2: bucket b < kHistBuckets-1 counts values
/// v <= 2^b (bucket 0 also absorbs zero and negatives, which the
/// pipeline never produces but a caller bug might); the last bucket is
/// +Inf. 64 buckets cover the whole int64 range, so nanosecond
/// latencies from sub-microsecond to centuries land somewhere exact.
inline constexpr int kHistBuckets = 64;

/// Bucket index for an observed value (see kHistBuckets).
int hist_bucket_index(std::int64_t v);

/// Inclusive upper bound (`le`) of bucket b: 2^b for b < kHistBuckets-1;
/// the +Inf bucket returns the int64 maximum as a sentinel.
std::int64_t hist_bucket_le(int b);

/// One log2-bucketed distribution. `buckets` are per-bucket counts (not
/// cumulative); count/sum saturate at the sum_t rails with `saturated`
/// recording that the rail was hit.
struct HistogramData {
  std::array<std::uint64_t, kHistBuckets> buckets{};
  sum_t count = 0;
  sum_t sum = 0;
  bool saturated = false;

  void observe(std::int64_t v);

  /// Quantile estimate from the buckets: the `le` upper bound of the
  /// first bucket whose cumulative count reaches q*count (conservative —
  /// never underestimates). Returns 0 for an empty histogram; the +Inf
  /// bucket reports the largest finite bound.
  double quantile(double q) const;
};

/// One labeled series inside a family. Only the field matching the
/// family's kind is meaningful.
struct MetricPoint {
  sum_t counter = 0;
  bool saturated = false;
  double gauge = 0.0;
  HistogramData hist;
};

/// A named metric family: one kind, one label-key list, many series
/// keyed by their label values (ordered map — exposition is
/// deterministic).
struct MetricFamily {
  std::string name;
  std::string help;
  std::string unit;  ///< OpenMetrics unit; empty = none
  MetricKind kind = MetricKind::kCounter;
  std::vector<std::string> label_keys;
  std::map<std::vector<std::string>, MetricPoint> series;

  const MetricPoint* find(const std::vector<std::string>& labels) const;
};

/// A consistent copy of the registry at one instant, plus the heartbeat
/// scalars. Safe to serialize, diff, and ship across threads.
struct MetricsSnapshot {
  int schema_version = 0;
  std::int64_t taken_ns = 0;  ///< monotonic_now_ns() at capture
  std::uint64_t progress_seq = 0;
  std::int64_t last_progress_ns = 0;  ///< monotonic clock; 0 = never
  int runs_inflight = 0;
  bool stalled = false;
  std::vector<MetricFamily> families;

  const MetricFamily* find(std::string_view name) const;

  /// This snapshot minus `earlier`: counters and histogram buckets
  /// subtract (clamped at zero for series the earlier snapshot lacks);
  /// gauges keep their current value. The delta of two snapshots from
  /// one registry is exactly what happened in between — the scrape-
  /// interval view a rate() query wants.
  MetricsSnapshot delta_since(const MetricsSnapshot& earlier) const;
};

/// OpenMetrics text exposition (the Prometheus scrape format):
/// `# TYPE`/`# HELP`/`# UNIT` metadata per family, `_total`-suffixed
/// counter samples, cumulative `_bucket{le=...}` histogram samples with
/// a closing `+Inf` bucket equal to `_count`, and the `# EOF` terminator.
/// `tools/mcgp_metrics/metrics.py lint` checks these properties.
void write_metrics_openmetrics(std::ostream& out, const MetricsSnapshot& snap);

/// Schema-versioned JSON document of the snapshot (complete: includes
/// per-bucket histogram counts and saturation flags, which the text
/// format cannot carry).
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snap);

/// Same JSON object written as a value of an enclosing document.
void write_metrics_json_value(JsonWriter& w, const MetricsSnapshot& snap);

class MetricsRegistry {
 public:
  /// The constructor pre-declares the pipeline's standard families (see
  /// metrics.cpp) so exposition carries curated help text and the
  /// zero-valued service gauges are scrapable before the first run.
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register a family up front. Idempotent: re-declaring an existing
  /// name is a no-op (first declaration wins), so library defaults and
  /// caller declarations cannot fight.
  void declare(std::string name, MetricKind kind,
               std::vector<std::string> label_keys, std::string help,
               std::string unit = "");

  /// Add to a counter series (creating family/series on first use).
  /// Negative deltas are dropped and reported via mcgp_metrics_errors —
  /// counters are monotone by contract.
  void counter_add(std::string_view name, std::vector<std::string> labels,
                   sum_t delta = 1);

  /// Set a gauge series to `value`.
  void gauge_set(std::string_view name, std::vector<std::string> labels,
                 double value);

  /// Record one observation into a histogram series.
  void observe(std::string_view name, std::vector<std::string> labels,
               std::int64_t value);

  /// Heartbeat: bump the progress sequence, stamp the progress time, and
  /// count the event under mcgp_pipeline_events{stage}. Invoked from the
  /// flight-recorder record() hook, so every pipeline sample is a
  /// liveness proof.
  void note_progress(std::string_view stage);

  /// Bracket one partition() call: maintains runs_inflight (atomic and
  /// the mcgp_runs_inflight gauge) and stamps progress so a stall right
  /// after entry is measured from run start.
  void run_begin();
  void run_end();

  /// Heartbeat scalars for the flusher (lock-free reads).
  std::uint64_t progress_seq() const {
    return progress_seq_.load(std::memory_order_relaxed);
  }
  std::int64_t last_progress_ns() const {
    return last_progress_ns_.load(std::memory_order_relaxed);
  }
  int runs_inflight() const {
    return runs_inflight_.load(std::memory_order_relaxed);
  }
  bool stalled() const { return stalled_.load(std::memory_order_relaxed); }

  /// Stall verdict, set by the flusher; mirrored as the mcgp_stalled
  /// gauge so scrapes see it.
  void set_stalled(bool stalled);

  /// Consistent copy of everything (one lock hold, no serialization).
  MetricsSnapshot snapshot() const;

  /// snapshot() + write_metrics_openmetrics / write_metrics_json.
  void write_openmetrics(std::ostream& out) const;
  void write_json(std::ostream& out) const;

 private:
  /// Locate (or auto-create) the series for a mutation. Returns null —
  /// after bumping mcgp_metrics_errors{reason} — when the call disagrees
  /// with the family's declared kind or label arity: instrumentation
  /// bugs surface as a scrapable counter, never as an exception into
  /// the observed run.
  MetricPoint* point(std::string_view name, MetricKind kind,
                     std::vector<std::string>&& labels)
      MCGP_REQUIRES(mu_);

  MetricFamily& family_at(std::string_view name, MetricKind kind,
                          std::size_t arity) MCGP_REQUIRES(mu_);

  std::atomic<std::uint64_t> progress_seq_{0};
  std::atomic<std::int64_t> last_progress_ns_{0};
  std::atomic<int> runs_inflight_{0};
  std::atomic<bool> stalled_{false};

  mutable Mutex mu_;
  std::vector<MetricFamily> families_ MCGP_GUARDED_BY(mu_);
  /// Family name -> position in families_ (exposition keeps declaration
  /// order; the map is lookup-only, never iterated).
  std::unordered_map<std::string, std::size_t> index_ MCGP_GUARDED_BY(mu_);
};

/// Background flusher + stall detector for a long-lived registry.
///
/// A dedicated thread wakes every tick to (a) rewrite `out_path` with a
/// fresh snapshot every `interval_s` seconds (atomically: tmp + rename;
/// `.json` suffix selects the JSON document, anything else OpenMetrics
/// text), and (b) compare now against the registry's last progress
/// stamp: runs in flight with no progress for `stall_timeout_s` seconds
/// latches the stall — mcgp_stalled gauge up, one postmortem JSON dump
/// to `postmortem_path` (resolved through MCGP_POSTMORTEM_DIR like the
/// flight recorder's) — and progress resuming clears it. stop() (also
/// run by the destructor) joins the thread and writes one final
/// snapshot, so `--metrics-out` without `--metrics-interval` still gets
/// its end-of-process file.
class MetricsFlusher {
 public:
  struct Config {
    std::string out_path;           ///< empty: no periodic file
    double interval_s = 10.0;       ///< <=0: rewrite on every tick
    double stall_timeout_s = 30.0;  ///< <=0: stall detection off
    std::string postmortem_path = "mcgp_metrics_postmortem.json";
  };

  MetricsFlusher(MetricsRegistry& registry, Config cfg);
  ~MetricsFlusher();

  MetricsFlusher(const MetricsFlusher&) = delete;
  MetricsFlusher& operator=(const MetricsFlusher&) = delete;

  /// Join the thread and write the final snapshot. Idempotent.
  void stop();

  /// Run one detector+flush tick synchronously (deterministic tests).
  void poll_now();

  bool stalled() const;
  std::uint64_t flushes() const {
    return flushes_.load(std::memory_order_relaxed);
  }
  std::uint64_t stall_events() const {
    return stall_events_.load(std::memory_order_relaxed);
  }

 private:
  void thread_main();
  void tick(std::int64_t now_ns) MCGP_REQUIRES(mu_);
  bool write_out_file() MCGP_REQUIRES(mu_);

  MetricsRegistry& reg_;
  const Config cfg_;

  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> stall_events_{0};

  mutable Mutex mu_;
  CondVar cv_;
  bool stop_requested_ MCGP_GUARDED_BY(mu_) = false;
  bool stopped_ MCGP_GUARDED_BY(mu_) = false;
  bool stall_latched_ MCGP_GUARDED_BY(mu_) = false;
  std::int64_t last_flush_ns_ MCGP_GUARDED_BY(mu_) = 0;

  std::thread thread_;
};

}  // namespace mcgp
