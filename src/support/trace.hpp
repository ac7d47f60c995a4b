// Structured trace instrumentation for the multilevel pipeline.
//
// A TraceRecorder captures timestamped hierarchical span events
// (run -> RB bisection -> coarsen level -> FM pass) with typed numeric
// payloads, plus a CounterRegistry of named counters/histograms. The
// pipeline is instrumented through `Options::trace`: a null pointer
// disables everything and costs one pointer test per instrumentation
// point — no allocation, no clock read, no branch into library code.
//
// Concurrency: the recorder keeps one event log and one counter registry
// PER THREAD. The thread that constructed the recorder writes to its log
// lock-free (the common single-threaded path is unchanged); any other
// thread registers a log of its own on first use and then also appends
// lock-free. Spans therefore nest correctly within each thread no matter
// how the task pool schedules work, and the exporters emit each thread's
// log under its own `tid`, so Chrome traces stay well-formed under
// concurrency. Counters are merged across threads with merged_counters().
//
// Exporter: write_chrome_trace() — chrome://tracing / Perfetto "trace
// event" JSON (B/E pairs, microsecond timestamps, args on the end event).
//
// Span names and arg keys must be string literals (or otherwise outlive
// the recorder); events store the pointers, never copies. A recorder
// accumulates across runs — call clear() between runs for per-run
// artifacts (only while no other thread is tracing).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/counters.hpp"
#include "support/thread_annotations.hpp"
#include "support/timer.hpp"

namespace mcgp {

/// One typed key/value payload entry attached to an event.
struct TraceArg {
  constexpr TraceArg() = default;
  constexpr TraceArg(const char* k, std::int64_t v)
      : key(k), is_float(false), i(v) {}
  constexpr TraceArg(const char* k, std::int32_t v)
      : TraceArg(k, static_cast<std::int64_t>(v)) {}
  constexpr TraceArg(const char* k, std::uint64_t v)
      : TraceArg(k, static_cast<std::int64_t>(v)) {}
  constexpr TraceArg(const char* k, double v)
      : key(k), is_float(true), f(v) {}

  const char* key = "";
  bool is_float = false;
  std::int64_t i = 0;
  double f = 0.0;
};

struct TraceEvent {
  enum class Type : std::uint8_t { kBegin, kEnd, kInstant };

  Type type = Type::kInstant;
  int depth = 0;          ///< nesting depth at emission (begin: of the span)
  const char* name = "";  ///< span/event name (static lifetime)
  std::int64_t ts_ns = 0; ///< nanoseconds since recorder construction
  std::vector<TraceArg> args;
};

class TraceRecorder {
 public:
  TraceRecorder()
      : origin_ns_(monotonic_now_ns()), home_id_(std::this_thread::get_id()) {}

  /// Open a span on the calling thread's log. Every begin() must be
  /// matched by one end() on the same thread.
  void begin(const char* name);
  /// Close the calling thread's innermost span, attaching `args` to the
  /// end event.
  void end(std::initializer_list<TraceArg> args = {});
  void end(const TraceArg* args, int nargs);
  /// Zero-duration event at the calling thread's current depth.
  void instant(const char* name, std::initializer_list<TraceArg> args = {});

  /// Add `delta` to the named counter on the calling thread's registry.
  void count(std::string_view name, std::int64_t delta = 1);
  /// Histogram by name on the calling thread's registry. The reference
  /// stays valid for the thread's lifetime within the run; callers may
  /// cache it across a serial stretch of work.
  Histogram& hist(std::string_view name);

  /// Depth / events / counters of the HOME thread (the thread that
  /// constructed the recorder) — the full view of any single-threaded run.
  int depth() const { return home_.depth; }
  const std::vector<TraceEvent>& events() const { return home_.events; }
  CounterRegistry& counters() { return home_.counters; }
  const CounterRegistry& counters() const { return home_.counters; }

  /// Counters of all thread logs folded together. Call after parallel
  /// work has been joined.
  CounterRegistry merged_counters() const;

  /// Number of per-thread logs (1 = only the home thread ever traced).
  std::size_t num_thread_logs() const;

  /// Drop all events and counters on every thread log; the time origin is
  /// kept. Only valid while no other thread is tracing.
  void clear();

  void write_chrome_trace(std::ostream& out) const;

  /// File-path convenience; returns false if the file cannot be opened.
  bool save_chrome_trace(const std::string& path) const;

 private:
  struct ThreadLog {
    std::vector<TraceEvent> events;
    int depth = 0;
    CounterRegistry counters;
  };

  std::int64_t now_ns() const { return monotonic_now_ns() - origin_ns_; }

  /// The calling thread's log: the home log lock-free, or an auxiliary
  /// log registered under the mutex on first use.
  ThreadLog& local_log();

  void append_begin(ThreadLog& log, const char* name);
  void append_end(ThreadLog& log, const TraceArg* args, int nargs);

  std::int64_t origin_ns_;  ///< monotonic_now_ns() at construction
  std::thread::id home_id_;
  ThreadLog home_;

  /// Guards registration and enumeration of auxiliary logs. The logs'
  /// *contents* are not guarded: each ThreadLog is written only by its
  /// owning thread and read only after parallel work has been joined.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> aux_ MCGP_GUARDED_BY(mu_);
  std::unordered_map<std::thread::id, ThreadLog*> aux_index_
      MCGP_GUARDED_BY(mu_);
};

/// RAII span that is a no-op (and allocation-free) on a null recorder.
/// Payload values observed mid-span are attached with arg() and emitted on
/// the span's end event. Must begin and end on the same thread.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* tr, const char* name) : tr_(tr) {
    if (tr_ != nullptr) tr_->begin(name);
  }
  ~TraceSpan() { finish(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a payload entry to the end event (capped at kMaxArgs).
  void arg(TraceArg a) {
    if (tr_ != nullptr && nargs_ < kMaxArgs) args_[nargs_++] = a;
  }

  /// True when tracing is live — guard for payload computations that are
  /// not worth doing on an untraced run.
  bool enabled() const { return tr_ != nullptr; }

  /// End the span now (idempotent; the destructor becomes a no-op).
  void finish() {
    if (tr_ == nullptr) return;
    tr_->end(args_, nargs_);
    tr_ = nullptr;
  }

 private:
  static constexpr int kMaxArgs = 12;

  TraceRecorder* tr_;
  TraceArg args_[kMaxArgs];
  int nargs_ = 0;
};

}  // namespace mcgp
