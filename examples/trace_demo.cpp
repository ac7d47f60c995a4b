// Observability demo: partition a 3-constraint mesh with tracing enabled
// and write every machine-readable artifact the instrumentation layer
// offers:
//
//   trace_demo [out_prefix]     (default prefix: "trace_demo")
//
//   <prefix>.trace.json    open in chrome://tracing or https://ui.perfetto.dev
//   <prefix>.report.json   JSON PartitionReport (per-part stats) with a
//                          "timeline" section of flight-recorder samples
//                          and the run's per-(phase, level) "profile"
//   <prefix>.counters.json pipeline counters + gain histogram
#include <cstdio>
#include <fstream>
#include <string>

#include "core/partitioner.hpp"
#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/part_report.hpp"
#include "support/flight_recorder.hpp"
#include "support/trace.hpp"

int main(int argc, char** argv) {
  using namespace mcgp;
  const std::string prefix = argc > 1 ? argv[1] : "trace_demo";

  Graph g = grid2d(120, 120);
  apply_type_s_weights(g, /*m=*/3, /*nregions=*/16, 0, 19, 42);

  TraceRecorder recorder;
  FlightRecorder flight;
  Options opts;
  opts.nparts = 16;
  opts.trace = &recorder;
  opts.flight = &flight;
  const PartitionResult r = partition(g, opts);

  std::printf("partitioned %d vertices into %d parts: cut=%lld "
              "max-imbalance=%.4f (%.3fs)\n",
              g.nvtxs, opts.nparts, static_cast<long long>(r.cut),
              r.max_imbalance, r.seconds);

  std::printf("\npipeline counters:\n");
  for (const auto& [name, value] : r.counters.counters()) {
    std::printf("  %-24s %lld\n", name.c_str(),
                static_cast<long long>(value));
  }
  if (const Histogram* h = r.counters.find_hist("gain.histogram")) {
    std::printf("  gain.histogram          n=%llu mean=%.2f min=%lld "
                "max=%lld\n",
                static_cast<unsigned long long>(h->count()), h->mean(),
                static_cast<long long>(h->min()),
                static_cast<long long>(h->max()));
  }

  int spans = 0;
  for (const TraceEvent& ev : recorder.events()) {
    if (ev.type == TraceEvent::Type::kBegin) ++spans;
  }
  std::printf("\nrecorded %zu events (%d spans)\n", recorder.events().size(),
              spans);
  std::printf("flight recorder: %llu samples, peak rss %.1f MB\n",
              static_cast<unsigned long long>(flight.total_recorded()),
              static_cast<double>(flight.peak_rss_bytes()) / (1024.0 * 1024.0));

  bool ok = recorder.save_chrome_trace(prefix + ".trace.json");
  std::ofstream report(prefix + ".report.json");
  if (report) {
    PartitionReport rep = analyze_partition(g, r.part, opts.nparts);
    rep.feasible = r.feasible ? 1 : 0;
    rep.ubvec_used = r.ubvec_used;
    write_report_json(report, rep, &flight, &r.profile);
  }
  ok = static_cast<bool>(report) && ok;
  std::ofstream counters(prefix + ".counters.json");
  if (counters) r.counters.write_json(counters);
  ok = static_cast<bool>(counters) && ok;
  if (!ok) {
    std::fprintf(stderr, "error: could not write artifacts with prefix '%s'\n",
                 prefix.c_str());
    return 1;
  }

  std::printf("wrote %s.trace.json (open in chrome://tracing), "
              "%s.report.json, %s.counters.json\n",
              prefix.c_str(), prefix.c_str(), prefix.c_str());
  return 0;
}
