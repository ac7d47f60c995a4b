// mcpart — command-line multi-constraint graph partitioner.
//
// Reads a METIS-format .graph file (optionally with ncon vertex weights
// and edge weights), partitions it, writes <graph>.part.<k>, and reports
// quality metrics. A drop-in, minimal analogue of the pmetis/kmetis
// command-line tools for multi-constraint inputs.
//
// Usage:
//   mcpart <graph-file> <nparts> [options]
// Options:
//   --alg=rb|kway        algorithm (default kway)
//   --ub=<f>             balance tolerance for all constraints (default
//                        1.05, clamped up to the instance's provable
//                        minimum; an explicit infeasible value is an error)
//   --seed=<n>           random seed (default 1)
//   --threads=<n>        worker threads (default 1; same result any value)
//   --match=rm|hem|hembal  matching scheme (default hembal)
//   --out=<path>         partition output path (default <graph>.part.<k>)
//   --no-write           skip writing the partition file
//   --mesh               input is a METIS .mesh file; partition its dual
//   --ncommon=<n>        dual-graph adjacency threshold (default 2)
//   --report             print the full per-part report
//   --audit=<level>      runtime invariant auditing: off|boundaries|paranoid
//   --refine=<partfile>  refine an existing partition instead of partitioning
//   --progress           live per-level progress lines on stderr
//   --ledger=<path>      append one JSONL run record to <path>
//   --profile            per-phase wall and thread CPU time
//   --report-json=<path> write the machine-readable run report to <path>
//
// Numeric values must be one whole number (k, --seed, --threads,
// --ncommon) or one finite decimal (--ub); anything else exits with
// status 2 and a message naming the argument.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "core/audit.hpp"
#include "core/partitioner.hpp"
#include "graph/graph_io.hpp"
#include "graph/metrics.hpp"
#include "graph/part_report.hpp"
#include "mesh/mesh.hpp"
#include "support/flight_recorder.hpp"
#include "support/profiler.hpp"
#include "support/run_ledger.hpp"

namespace {

/// --progress sink: one line per hierarchy-level sample (refinement-pass
/// samples are recorded but not printed — per-level keeps the output to a
/// few dozen lines). Runs under the recorder lock, so stays cheap.
void print_progress(const mcgp::FlightSample& s) {
  using Stage = mcgp::FlightSample::Stage;
  if (s.stage == Stage::kFmPass || s.stage == Stage::kKWayPass) return;
  std::fprintf(stderr, "[%7.3fs] %-14s", static_cast<double>(s.ts_ns) * 1e-9,
               mcgp::flight_stage_name(s.stage));
  if (s.level >= 0) std::fprintf(stderr, " level=%-3d", s.level);
  std::fprintf(stderr, " nvtxs=%-9lld nedges=%-9lld",
               static_cast<long long>(s.nvtxs),
               static_cast<long long>(s.nedges));
  if (s.cut >= 0) std::fprintf(stderr, " cut=%-8lld",
                               static_cast<long long>(s.cut));
  if (s.ncon > 0) std::fprintf(stderr, " lb=%.3f", s.worst_imbalance);
  if (s.rss_bytes >= 0) {
    std::fprintf(stderr, " rss=%.1fMB",
                 static_cast<double>(s.rss_bytes) / (1024.0 * 1024.0));
  }
  std::fprintf(stderr, "\n");
}

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <graph-file> <nparts> [options]\n"
      << "  --alg=rb|kway       algorithm (default kway)\n"
      << "  --ub=<f>            balance tolerance (default 1.05, clamped\n"
      << "                      to the instance's provable minimum)\n"
      << "  --seed=<n>          random seed (default 1)\n"
      << "  --threads=<n>       worker threads (default 1; the partition\n"
      << "                      is identical for every thread count)\n"
      << "  --match=rm|hem|hembal  matching scheme (default hembal)\n"
      << "  --out=<path>        output path (default <graph>.part.<k>)\n"
      << "  --no-write          skip writing the partition file\n"
      << "  --mesh              input is a METIS .mesh file (partition dual)\n"
      << "  --ncommon=<n>       dual adjacency threshold (default 2)\n"
      << "  --report            print the full per-part report\n"
      << "  --audit=<level>     invariant auditing: off|boundaries|paranoid\n"
      << "                      (default off; MCGP_AUDIT env overrides)\n"
      << "  --refine=<partfile> refine an existing partition in place\n"
      << "                      instead of partitioning from scratch\n"
      << "  --progress          live per-level progress lines on stderr\n"
      << "  --ledger=<path>     append one JSONL run record to <path>\n"
      << "  --profile           per-phase wall and thread CPU time\n"
      << "                      (see README Profiling)\n"
      << "  --report-json=<path> write the machine-readable run report\n"
      << "                      (with timeline/profile sections when\n"
      << "                      attached) to <path>\n";
}

/// Parse `value`, the text of argument `name`, as one T over its whole
/// length with std::from_chars; a floating-point value must also be
/// finite. Prints a message naming the argument and returns false when
/// the text is not such a number or is below `lo`.
template <class T>
bool parse_number(const char* name, std::string_view value, T lo, T& out) {
  T v{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  bool ok = !value.empty() && ec == std::errc() && ptr == end && v >= lo;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) {
    std::cerr << "error: " << name << " expects a number >= " << lo
              << ", got \"" << value << "\"\n";
    return false;
  }
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcgp;
  if (argc < 3) {
    usage(argv[0]);
    return 2;
  }
  const std::string graph_path = argv[1];
  idx_t nparts = 0;
  if (!parse_number<idx_t>("nparts", argv[2], 1, nparts)) return 2;

  Options opts;
  opts.nparts = nparts;
  double ub = 0.0;  // 0 = not given: leave ubvec empty so infeasibly
                    // tight defaults clamp to the provable bound
  std::string out_path;
  bool write_out = true;
  bool is_mesh = false;
  bool report = false;
  idx_t ncommon = 2;
  std::string refine_path;
  bool progress = false;
  std::string ledger_path;
  bool profile = false;
  std::string report_json_path;

  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    const std::string_view arg = a;
    if (a == "--alg=rb") {
      opts.algorithm = Algorithm::kRecursiveBisection;
    } else if (a == "--alg=kway") {
      opts.algorithm = Algorithm::kKWay;
    } else if (a.rfind("--ub=", 0) == 0) {
      if (!parse_number("--ub", arg.substr(5), 1.0, ub)) return 2;
    } else if (a.rfind("--seed=", 0) == 0) {
      if (!parse_number<std::uint64_t>("--seed", arg.substr(7), 0,
                                       opts.seed)) {
        return 2;
      }
    } else if (a.rfind("--threads=", 0) == 0) {
      if (!parse_number("--threads", arg.substr(10), 1, opts.num_threads)) {
        return 2;
      }
    } else if (a == "--match=rm") {
      opts.matching = MatchScheme::kRandom;
    } else if (a == "--match=hem") {
      opts.matching = MatchScheme::kHeavyEdge;
    } else if (a == "--match=hembal") {
      opts.matching = MatchScheme::kHeavyEdgeBalanced;
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else if (a == "--no-write") {
      write_out = false;
    } else if (a == "--mesh") {
      is_mesh = true;
    } else if (a.rfind("--ncommon=", 0) == 0) {
      if (!parse_number<idx_t>("--ncommon", arg.substr(10), 1, ncommon)) {
        return 2;
      }
    } else if (a == "--report") {
      report = true;
    } else if (a.rfind("--audit=", 0) == 0) {
      if (!parse_audit_level(a.substr(8), opts.audit_level)) {
        std::cerr << "error: --audit expects off|boundaries|paranoid, got \""
                  << a.substr(8) << "\"\n";
        return 2;
      }
    } else if (a.rfind("--refine=", 0) == 0) {
      refine_path = a.substr(9);
      if (refine_path.empty()) {
        std::cerr << "error: --refine needs a partition file path\n";
        return 2;
      }
    } else if (a == "--progress") {
      progress = true;
    } else if (a.rfind("--ledger=", 0) == 0) {
      ledger_path = a.substr(9);
      if (ledger_path.empty()) {
        std::cerr << "error: --ledger needs a file path\n";
        return 2;
      }
    } else if (a == "--profile") {
      profile = true;
    } else if (a.rfind("--report-json=", 0) == 0) {
      report_json_path = a.substr(14);
      if (report_json_path.empty()) {
        std::cerr << "error: --report-json needs a file path\n";
        return 2;
      }
    } else {
      std::cerr << "unknown option: " << a << "\n";
      usage(argv[0]);
      return 2;
    }
  }

  try {
    Graph g;
    if (is_mesh) {
      const Mesh mesh = read_metis_mesh_file(graph_path);
      g = mesh_to_dual(mesh, ncommon);
      std::cout << "mesh:    " << graph_path << " (" << mesh.nelems
                << " elements, " << mesh.nnodes << " nodes) -> dual graph\n";
    } else {
      g = read_metis_graph_file(graph_path);
    }
    if (ub > 0.0) opts.ubvec.assign(to_size(g.ncon), ub);

    std::cout << "graph:   " << graph_path << " (" << g.nvtxs << " vertices, "
              << g.nedges() << " edges, " << g.ncon << " constraint"
              << (g.ncon > 1 ? "s" : "") << ")\n";

    // The recorder is attached whenever progress or a ledger wants it; it
    // observes only, so the partition is unchanged either way.
    FlightRecorder flight;
    if (progress || !ledger_path.empty()) opts.flight = &flight;
    if (progress) flight.set_on_sample(&print_progress);

    // The profiler likewise only observes; partitions are bit-identical
    // with or without it.
    std::optional<Profiler> prof;
    if (profile) {
      prof.emplace();
      opts.profile = &*prof;
    }

    PartitionResult r;
    if (!refine_path.empty()) {
      // Validated load: exactly one entry per vertex, every id in range —
      // a bad file fails here with a precise message instead of crashing
      // (or silently mis-refining) deep inside the refiner.
      std::vector<idx_t> part =
          read_partition_file(refine_path, g.nvtxs, nparts);
      r = refine_partition(g, std::move(part), opts);
    } else {
      r = partition(g, opts);
    }

    std::cout << "nparts:  " << nparts << "  ("
              << (!refine_path.empty()
                      ? "refine existing"
                      : opts.algorithm == Algorithm::kKWay
                            ? "multilevel k-way"
                            : "recursive bisection")
              << ")\n";
    std::cout << "edgecut: " << r.cut << "\n";
    std::cout << "commvol: " << communication_volume(g, r.part, nparts) << "\n";
    std::cout << "balance:";
    for (const real_t lb : r.imbalance) std::cout << ' ' << lb;
    std::cout << "\n";
    std::cout << "feasible: " << (r.feasible ? "yes" : "NO")
              << "  (held to";
    for (const real_t u : r.ubvec_used) std::cout << ' ' << u;
    std::cout << ")\n";
    // Phase wall times are on the calling thread, so they and the
    // unattributed rest add up to the run's time; cpu sums every thread.
    std::cout << "time:    " << r.seconds << "s  (unattributed "
              << r.unattributed_s << "s)\n";
    for (const PhaseTime& p : r.phases) {
      std::cout << "  " << p.phase << ": wall=" << p.wall_s
                << "s cpu=" << p.cpu_s << "s\n";
    }

    if (prof.has_value()) {
      const ProfBucket run = prof->phase_total("run");
      std::cout << "profile: task_clock="
                << static_cast<double>(run.task_clock_ns) * 1e-9 << "s";
      if (run.wall_ns > 0) {
        std::cout << " parallelism="
                  << static_cast<double>(run.task_clock_ns) /
                         static_cast<double>(run.wall_ns);
      }
      std::cout << "\n";
    }

    if (report) {
      std::cout << "\n";
      PartitionReport rep = analyze_partition(g, r.part, nparts);
      rep.feasible = r.feasible ? 1 : 0;
      rep.ubvec_used = r.ubvec_used;
      print_report(std::cout, rep);
      std::cout << "\n";
    }

    if (!report_json_path.empty()) {
      std::ofstream rj(report_json_path);
      if (!rj) {
        std::cerr << "error: cannot write report to " << report_json_path
                  << "\n";
        return 1;
      }
      PartitionReport rep = analyze_partition(g, r.part, nparts);
      rep.feasible = r.feasible ? 1 : 0;
      rep.ubvec_used = r.ubvec_used;
      write_report_json(rj, rep, opts.flight, opts.profile);
      std::cout << "report:  wrote " << report_json_path << "\n";
    }

    if (write_out) {
      if (out_path.empty()) {
        out_path = graph_path + ".part." + std::to_string(nparts);
      }
      write_partition_file(out_path, r.part);
      std::cout << "wrote:   " << out_path << "\n";
    }

    if (!ledger_path.empty()) {
      const RunRecord rec =
          make_run_record("mcpart", graph_path, g, opts, r, opts.profile);
      if (append_run_record(ledger_path, rec)) {
        std::cout << "ledger:  appended to " << ledger_path << "\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
