// The one observation point of a pipeline boundary (DESIGN.md §7): a
// layer records each boundary's facts once on a Seam, which writes them
// to the sinks its SeamSpec asks for and the RunContext attaches — the
// trace span's end event (record fields under the flight sample's JSON
// names, in the order set, then site args), one flight sample, and the
// profiler's (phase, level) bucket with work = (nedges, nvtxs).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string_view>
#include <vector>

#include "core/run_context.hpp"
#include "graph/csr_graph.hpp"
#include "support/flight_recorder.hpp"
#include "support/profiler.hpp"
#include "support/trace.hpp"

namespace mcgp {

/// Which sinks a Seam feeds, built by chaining; every part is optional:
/// SeamSpec().span("fm.pass").stage(Seam::Stage::kFmPass).
struct SeamSpec {
  const char* trace_span = nullptr;     ///< static lifetime
  const char* profile_phase = nullptr;  ///< static lifetime
  int hierarchy_level = -1;  ///< of the record and the profiler bucket
  std::optional<FlightSample::Stage> flight_stage;

  SeamSpec& span(const char* name) { trace_span = name; return *this; }
  SeamSpec& phase(const char* name) { profile_phase = name; return *this; }
  SeamSpec& level(int l) { hierarchy_level = l; return *this; }
  SeamSpec& stage(FlightSample::Stage s) { flight_stage = s; return *this; }
};

class Seam {
 public:
  using Stage = FlightSample::Stage;

  /// A seam on `g`, the graph the boundary works on (the record's size).
  Seam(const RunContext& run, const SeamSpec& spec, const Graph& g);
  /// close(), but a seam an exception unwinds through writes no sample.
  ~Seam();

  Seam(const Seam&) = delete;
  Seam& operator=(const Seam&) = delete;

  // The record. Cheap to set; set costly fields in close(fill).
  Seam& pass(int p) { rec_.pass = p; return note({"pass", p}); }
  Seam& cut(sum_t c) { rec_.cut = c; return note({"cut", c}); }
  Seam& moves(std::int64_t m) { rec_.moves = m; return note({"moves", m}); }
  Seam& gain(sum_t g) { rec_.gain = g; return note({"gain", g}); }
  Seam& worst_imbalance(real_t w);
  /// Per-constraint imbalance; also sets the worst entry.
  Seam& imbalance(const std::vector<real_t>& lb);
  Seam& feasible(bool ok);

  /// The trace span is live: site args and trace-only payloads are read.
  bool traced() const { return span_.enabled(); }
  /// Site-specific args of the span's end event.
  void args(std::initializer_list<TraceArg> extra) {
    for (const TraceArg& a : extra) span_.arg(a);
  }
  /// The calling thread's trace counter, instant and histogram, written
  /// at once (so safe from the boundary's chunk tasks).
  void count(std::string_view name, std::int64_t delta = 1) const {
    if (trace_ != nullptr) trace_->count(name, delta);
  }
  void instant(const char* name, std::initializer_list<TraceArg> args) const {
    if (trace_ != nullptr) trace_->instant(name, args);
  }
  Histogram* hist(std::string_view name) const {
    return trace_ != nullptr ? &trace_->hist(name) : nullptr;
  }

  /// Write the record to every attached sink. Idempotent.
  void close();
  /// Stop the profiler clock, run `fill` (which sets the costly fields)
  /// only when the span or the flight sample will read it, then close.
  template <class Fill>
  void close(Fill&& fill) {
    stop_clock();
    if (traced() || sample_due_) fill();
    close();
  }

 private:
  Seam& note(TraceArg a) { span_.arg(a); return *this; }
  void stop_clock() {
    prof_.work(rec_.nedges, rec_.nvtxs);
    prof_.finish();
  }

  TraceRecorder* trace_;
  FlightRecorder* flight_;  ///< null once closed
  WorkspacePool* wspool_;
  bool sample_due_ = false;
  int uncaught_ = 0;  ///< std::uncaught_exceptions() at construction
  ProfScope prof_;
  TraceSpan span_;
  FlightSample rec_;  ///< the record, in the flight sample's own fields
};

}  // namespace mcgp
