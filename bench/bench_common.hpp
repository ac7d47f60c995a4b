// Shared infrastructure for the reproduction benches: the synthetic graph
// suite (stand-ins for the paper's FE meshes), simple argument parsing,
// and fixed-width table printing.
#pragma once

#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "graph/csr_graph.hpp"

namespace mcgp::bench {

struct Args {
  double scale = 1.0;   ///< multiplies the vertex counts of the suite
  int reps = 3;         ///< seeds averaged per configuration (paper: 3)
  bool quick = false;   ///< trim the parameter grid (CI-friendly)
  /// Thread counts swept by benches that honor --threads (exp_runtime,
  /// exp_quality_rb, exp_quality_kway).
  std::vector<int> threads = {1};
  /// When non-empty, benches additionally run one traced partition per
  /// configuration and write machine-readable artifacts into this
  /// directory (see emit_trace_artifacts).
  std::string trace_dir;
  /// Run-ledger path override (--ledger=<path>). Empty = each bench's
  /// default ledger file (e.g. BENCH_runtime.json). "none" disables.
  std::string ledger_path;
};

/// Parse --scale=<f>, --reps=<n>, --quick, --threads=<a,b,...>,
/// --trace-dir=<dir>, --ledger=<path|none>.
/// Unknown arguments abort with a usage message.
Args parse_args(int argc, char** argv);

/// Where a bench appends its per-run ledger records: --ledger wins, then
/// the bench's default file; --ledger=none (empty result) disables.
std::string ledger_file(const Args& args, const std::string& bench_default);

struct SuiteGraph {
  std::string name;
  Graph graph;
};

/// The graph suite (analogue of the paper's Table 1 meshes, scaled for a
/// single-core laptop run):
///   mgen1  2D grid            (~31k vertices at scale 1)
///   mgen2  2D triangular grid (~40k)
///   mgen3  3D grid            (~43k)
///   mgen4  random geometric   (~50k)
std::vector<SuiteGraph> make_suite(double scale);

/// Larger ladder used by the runtime-scaling experiment.
std::vector<SuiteGraph> make_ladder(double scale);

/// Fixed-width plain-text table (matches the paper's tabular reporting).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print() const;

  static std::string fmt(double v, int prec = 3);
  static std::string fmt(sum_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

struct RunSummary {
  double cut = 0;            ///< mean cut over reps
  double max_imbalance = 0;  ///< mean of per-run worst imbalance
  double feasible_rate = 0;  ///< fraction of reps satisfying every ubvec
  double seconds = 0;        ///< mean wall time
};

/// Destination for per-run ledger records (support/run_ledger.hpp): one
/// JSONL line is appended to `path` for every individual partition call.
/// An empty path disables the ledger.
struct LedgerSink {
  std::string path;
  std::string experiment;  ///< e.g. "runtime", "quality_rb"
};

/// Partition `reps` times with seeds 1..reps and average. When `sink` is
/// given and enabled, each rep appends one run record labelled with
/// `graph_name`.
RunSummary run_average(const Graph& g, Options opts, int reps,
                       const LedgerSink* sink = nullptr,
                       const std::string& graph_name = {});

/// When args.trace_dir is set, run one traced partition of `g` and write
///   <trace_dir>/<name>.trace.json    (chrome://tracing / Perfetto)
///   <trace_dir>/<name>.report.json   (PartitionReport with the run's
///                                     timeline and profile)
///   <trace_dir>/<name>.counters.json (pipeline counters)
/// No-op when trace_dir is empty. Returns true iff artifacts were written.
bool emit_trace_artifacts(const Args& args, const std::string& name,
                          const Graph& g, Options opts);

}  // namespace mcgp::bench
