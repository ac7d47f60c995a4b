// mcgp-lint fixture: observer-seam.
//
// A pipeline boundary in src/core/ records its facts once, on a Seam
// (core/seam.hpp), which writes them to the trace, the flight recorder
// and the profiler. Naming a trace or flight sink directly writes the
// same facts a second time, past the seam.
#include "core/seam.hpp"

namespace mcgp {

void bad_span(const RunContext& run) {
  TraceSpan span(run.trace, "fm.pass");  // LINT-EXPECT: observer-seam
}

void bad_counters(const RunContext& run) {
  trace_count(run.trace, "fm.passes");            // LINT-EXPECT: observer-seam
  trace_instant(run.trace, "initpart.trial", {});  // LINT-EXPECT: observer-seam
}

void bad_sample(const RunContext& run, const Graph& g) {
  FlightSample fs;  // LINT-EXPECT: observer-seam
  fs.nvtxs = g.nvtxs;
  run.flight->record(fs);
  record_level_sample(*run.flight, Seam::Stage::kFinal, -1, g, 0, {});  // LINT-EXPECT: observer-seam
}

// --- Negative cases: none of these may be flagged. ---

// The seam is the sanctioned way; its record and args reach every sink.
void ok_seam(const RunContext& run, const Graph& g, sum_t cut) {
  Seam seam(run, SeamSpec().span("fm.pass").stage(Seam::Stage::kFmPass), g);
  seam.cut(cut);
  seam.count("fm.passes");
}

// Names inside comments and strings are not code: a TraceSpan, a
// FlightSample and trace_count() may be discussed freely.
const char* ok_string() { return "TraceSpan FlightSample trace_count"; }

}  // namespace mcgp
