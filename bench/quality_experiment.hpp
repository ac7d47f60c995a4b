// Shared body of the E1/E2 quality experiments: for every suite graph,
// partition with m = 1..5 Type-S constraints and report the edge-cut
// normalized by the single-constraint (m = 1) cut of the same graph/k —
// the paper's headline quality metric — together with the worst
// per-constraint imbalance.
#pragma once

#include "bench_common.hpp"

namespace mcgp::bench {

/// Run the quality grid for one algorithm at each of args.threads and
/// print the table. Every individual run appends a ledger record
/// (experiment "quality_rb" or "quality_kway", with its thread count) to
/// ledger_file(args, "BENCH_quality.json").
void run_quality_experiment(Algorithm alg, const char* title, const Args& args);

}  // namespace mcgp::bench
