#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "gen/mesh_gen.hpp"
#include "graph/part_report.hpp"
#include "support/flight_recorder.hpp"
#include "support/profiler.hpp"
#include "support/run_ledger.hpp"
#include "support/trace.hpp"

namespace mcgp::bench {

namespace {
bool g_profile_requested = false;
}  // namespace

bool profile_requested() { return g_profile_requested; }

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--scale=", 0) == 0) {
      args.scale = std::atof(a.c_str() + 8);
      if (args.scale <= 0) args.scale = 1.0;
    } else if (a.rfind("--reps=", 0) == 0) {
      args.reps = std::max(1, std::atoi(a.c_str() + 7));
    } else if (a == "--quick") {
      args.quick = true;
    } else if (a.rfind("--threads=", 0) == 0) {
      args.threads.clear();
      std::string list = a.substr(10);
      for (std::size_t start = 0; start <= list.size();) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        const int n = std::atoi(list.substr(start, comma - start).c_str());
        if (n >= 1) args.threads.push_back(n);
        start = comma + 1;
      }
      if (args.threads.empty()) args.threads.push_back(1);
    } else if (a.rfind("--trace-dir=", 0) == 0) {
      args.trace_dir = a.substr(12);
    } else if (a.rfind("--ledger=", 0) == 0) {
      args.ledger_path = a.substr(9);
      if (args.ledger_path.empty()) args.ledger_path = "none";
    } else if (a == "--profile") {
      args.profile = true;
      g_profile_requested = true;
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--scale=<f>] [--reps=<n>] [--quick]"
                << " [--threads=<a,b,...>]"
                << " [--trace-dir=<dir>] [--ledger=<path|none>]"
                << " [--profile]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      std::exit(2);
    }
  }
  return args;
}

std::vector<SuiteGraph> make_suite(double scale) {
  const double s2 = std::sqrt(scale);
  const double s3 = std::cbrt(scale);
  std::vector<SuiteGraph> suite;
  suite.push_back({"mgen1-grid2d",
                   grid2d(static_cast<idx_t>(175 * s2),
                          static_cast<idx_t>(175 * s2))});
  suite.push_back({"mgen2-tri2d",
                   tri_grid2d(static_cast<idx_t>(200 * s2),
                              static_cast<idx_t>(200 * s2))});
  suite.push_back({"mgen3-grid3d",
                   grid3d(static_cast<idx_t>(35 * s3), static_cast<idx_t>(35 * s3),
                          static_cast<idx_t>(35 * s3))});
  suite.push_back({"mgen4-geom",
                   random_geometric(static_cast<idx_t>(50000 * scale), 0, 91)});
  return suite;
}

std::vector<SuiteGraph> make_ladder(double scale) {
  std::vector<SuiteGraph> ladder;
  const idx_t sides[] = {60, 120, 240, 480};
  for (const idx_t side : sides) {
    const idx_t n = static_cast<idx_t>(side * std::sqrt(scale));
    ladder.push_back({"grid-" + std::to_string(n) + "x" + std::to_string(n),
                      grid2d(n, n)});
  }
  return ladder;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s", static_cast<int>(width[c] + 2), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = 0;
  for (const std::size_t w : width) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string Table::fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string Table::fmt(sum_t v) { return std::to_string(v); }

std::string ledger_file(const Args& args, const std::string& bench_default) {
  if (args.ledger_path == "none") return {};
  return args.ledger_path.empty() ? bench_default : args.ledger_path;
}

RunSummary run_average(const Graph& g, Options opts, int reps,
                       const LedgerSink* sink,
                       const std::string& graph_name) {
  RunSummary s;
  for (int r = 0; r < reps; ++r) {
    opts.seed = static_cast<std::uint64_t>(r + 1);
    // One profiler per rep so each ledger record carries that rep's own
    // profile rather than a running sum across seeds.
    std::optional<Profiler> prof;
    if (profile_requested()) {
      prof.emplace();
      opts.profile = &*prof;
    }
    const PartitionResult res = partition(g, opts);
    s.cut += static_cast<double>(res.cut);
    s.max_imbalance += res.max_imbalance;
    s.feasible_rate += res.feasible ? 1.0 : 0.0;
    s.seconds += res.seconds;
    if (sink != nullptr && !sink->path.empty()) {
      append_run_record(sink->path,
                        make_run_record(sink->experiment, graph_name, g, opts,
                                        res, opts.profile));
    }
    opts.profile = nullptr;
  }
  s.cut /= reps;
  s.max_imbalance /= reps;
  s.feasible_rate /= reps;
  s.seconds /= reps;
  return s;
}

bool emit_trace_artifacts(const Args& args, const std::string& name,
                          const Graph& g, Options opts) {
  if (args.trace_dir.empty()) return false;
  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);

  TraceRecorder recorder;
  FlightRecorder flight;
  opts.trace = &recorder;
  opts.flight = &flight;
  std::optional<Profiler> prof;
  if (args.profile || profile_requested()) {
    prof.emplace();
    opts.profile = &*prof;
  }
  const PartitionResult res = partition(g, opts);

  const std::string base = args.trace_dir + "/" + name;
  bool ok = recorder.save_chrome_trace(base + ".trace.json");
  ok = recorder.save_jsonl(base + ".events.jsonl") && ok;

  std::ofstream report(base + ".report.json");
  if (report) {
    PartitionReport rep = analyze_partition(g, res.part, opts.nparts);
    rep.feasible = res.feasible ? 1 : 0;
    rep.ubvec_used = res.ubvec_used;
    write_report_json(report, rep, &flight, opts.profile);
  }
  ok = static_cast<bool>(report) && ok;

  std::ofstream counters(base + ".counters.json");
  if (counters) res.counters.write_json(counters);
  ok = static_cast<bool>(counters) && ok;

  if (!ok) {
    std::cerr << "warning: failed writing trace artifacts under "
              << args.trace_dir << "\n";
  }
  return ok;
}

}  // namespace mcgp::bench
