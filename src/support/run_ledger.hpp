// Run ledger: append-only JSONL records of partitioning runs.
//
// Every bench executable and the mcpart CLI can append one line per
// partition() call to a ledger file (BENCH_runtime.json,
// BENCH_quality.json, or a user-chosen path). Each line is a
// self-contained JSON object — schema-versioned, stamped with the build's
// `git describe` — so the files accumulate a longitudinal performance /
// quality trajectory across commits that tools/mcgp_bench_diff/diff.py
// can gate on. Appending (never truncating) is the point: a ledger is a
// log, and two runs of the same binary extend the same history.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "support/types.hpp"

namespace mcgp {

struct Graph;

/// One ledger line. The (experiment, algorithm, graph, nparts, ncon,
/// threads, seed) tuple is the identity diff.py joins baseline and
/// current records on; everything else is a measured metric.
struct RunRecord {
  std::string experiment;  ///< e.g. "runtime", "quality_rb", "mcpart"
  std::string algorithm;   ///< "MC-RB" or "MC-KW"
  std::string graph;       ///< graph name / input path
  idx_t nparts = 0;
  int ncon = 0;
  int threads = 1;
  std::uint64_t seed = 0;

  sum_t cut = 0;
  std::vector<real_t> imbalance;  ///< per constraint
  real_t max_imbalance = 0.0;
  /// Whether the run satisfied every constraint's tolerance (the balance
  /// contract, see PartitionResult::feasible). diff.py's --feasibility
  /// gate fails any record that regresses from feasible to infeasible.
  bool feasible = false;
  double seconds = 0.0;
  std::vector<PhaseTime> phases;     ///< PartitionResult::phases
  double unattributed_s = 0.0;       ///< PartitionResult::unattributed_s
  std::int64_t peak_rss_bytes = -1;  ///< process high-water; -1 = unknown

  // Machine identity, so longitudinal ledgers spanning hosts stay
  // interpretable. diff.py ignores keys it does not know, so records
  // carrying these remain comparable against pre-existing baselines.
  std::string host;       ///< hostname; empty = unknown
  std::string cpu;        ///< CPU model string; empty = unknown
  int cores = 0;          ///< logical cores; 0 = unknown

  // Headline of the whole run (the "run" bucket of PartitionResult::profile).
  std::int64_t profile_wall_ns = 0;
  std::int64_t profile_task_clock_ns = 0;  ///< on-CPU time of all threads
};

/// The `git describe --always --dirty` of the build (baked in at
/// configure time), or "unknown" for builds outside a git checkout.
const char* build_git_describe();

/// Stable name of an Options::algorithm value ("MC-RB" / "MC-KW").
const char* algorithm_ledger_name(const Options& opts);

/// Assemble a record from a finished run: identity fields from
/// (experiment, graph_name, g, opts), metrics (cut, imbalances, wall and
/// phase times, the profile headline) from `r`, peak RSS read from the
/// kernel now, host identity from support/sysinfo.
RunRecord make_run_record(std::string experiment, std::string graph_name,
                          const Graph& g, const Options& opts,
                          const PartitionResult& r);

/// Serialize one record as a single JSON line (newline-terminated).
void write_run_record(std::ostream& out, const RunRecord& rec);

/// Append one record to the ledger at `path`. Returns false (after a
/// warning on stderr) when the file cannot be opened — telemetry must
/// never fail the run it observes.
bool append_run_record(const std::string& path, const RunRecord& rec);

}  // namespace mcgp
