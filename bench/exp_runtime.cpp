// E3: runtime of the multi-constraint partitioner vs the single-constraint
// baseline, scaling with graph size, and thread-count scaling of the
// task-parallel drivers.
//
// Paper-shape expectations: runtime grows roughly linearly with m (the
// analysis bounds it at O(nm)); a three-constraint partitioning costs a
// small multiple (~2x in the paper) of a single-constraint one; runtime is
// linear in |V|+|E| across the size ladder. With --threads=1,2,4,8 each
// configuration is re-run per thread count (identical partitions by
// construction; only the wall time changes).
//
// Every individual partition call appends one run-ledger record (JSONL,
// support/run_ledger.hpp) to the ledger file, so tools/mcgp_bench_diff can
// gate regressions against a committed baseline.
#include <cstdio>

#include "bench_common.hpp"
#include "gen/weight_gen.hpp"

int main(int argc, char** argv) {
  using namespace mcgp;
  using namespace mcgp::bench;
  const Args args = parse_args(argc, argv);
  const std::string ledger_path = ledger_file(args, "BENCH_runtime.json");

  std::printf("E3: runtime vs constraints, graph size, and threads\n");
  std::printf("(scale=%.2f, reps=%d, k=64, Type-S weights, MC-KW and MC-RB,"
              " threads={",
              args.scale, args.reps);
  for (std::size_t i = 0; i < args.threads.size(); ++i) {
    std::printf("%s%d", i > 0 ? "," : "", args.threads[i]);
  }
  std::printf("})\n\n");

  const std::vector<int> ms = args.quick ? std::vector<int>{1, 3}
                                         : std::vector<int>{1, 3, 5};
  const idx_t k = 64;

  const LedgerSink sink{ledger_path, "runtime"};
  const LedgerSink* sinkp = ledger_path.empty() ? nullptr : &sink;

  for (const auto alg : {Algorithm::kKWay, Algorithm::kRecursiveBisection}) {
    const char* alg_name = alg == Algorithm::kKWay ? "MC-KW" : "MC-RB";
    std::printf("%s:\n", alg_name);
    Table t([&] {
      std::vector<std::string> headers = {"graph", "n", "m"};
      headers.push_back(args.threads.size() == 1
                            ? "time(s)"
                            : "t=" + std::to_string(args.threads[0]) + " (s)");
      for (std::size_t i = 1; i < args.threads.size(); ++i) {
        headers.push_back("t=" + std::to_string(args.threads[i]) + " (s)");
        headers.push_back("speedup");
      }
      return headers;
    }());

    for (auto& [name, base] : make_ladder(args.scale)) {
      for (const int m : ms) {
        Graph g = base;
        if (m > 1) apply_type_s_weights(g, m, 16, 0, 19, static_cast<std::uint64_t>(2000 + m));
        Options o;
        o.nparts = k;
        o.algorithm = alg;

        std::vector<std::string> row = {name, std::to_string(base.nvtxs),
                                        std::to_string(m)};
        double t1 = 0;
        for (std::size_t ti = 0; ti < args.threads.size(); ++ti) {
          o.num_threads = args.threads[ti];
          const RunSummary s = run_average(g, o, args.reps, sinkp, name);
          if (ti == 0) {
            t1 = s.seconds;
            row.push_back(Table::fmt(s.seconds, 3));
          } else {
            row.push_back(Table::fmt(s.seconds, 3));
            row.push_back(Table::fmt(t1 > 0 ? t1 / s.seconds : 0.0, 2));
          }
        }
        t.add_row(std::move(row));

        // With --trace-dir, also dump per-level trace artifacts of one
        // serial run.
        Options trace_opts = o;
        trace_opts.num_threads = 1;
        emit_trace_artifacts(
            args,
            name + (alg == Algorithm::kKWay ? "-kway" : "-rb") + "-m" +
                std::to_string(m),
            g, trace_opts);
      }
    }
    t.print();
    std::printf("\n");
  }

  if (!ledger_path.empty()) {
    std::printf("appended run records to %s\n", ledger_path.c_str());
    std::printf("\n");
  }

  std::printf(
      "Shape check: time should grow ~linearly down each column (graph\n"
      "size quadruples per row) and the m=3/m=1 multiple should be a small\n"
      "constant (paper: ~2x on the Cray T3E implementation). Thread counts\n"
      "beyond the physical cores cannot speed the run up; partitions are\n"
      "identical for every thread count at a fixed seed.\n");
  return 0;
}
