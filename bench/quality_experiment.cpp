#include "quality_experiment.hpp"

#include <cstdio>

#include "gen/weight_gen.hpp"

namespace mcgp::bench {

void run_quality_experiment(Algorithm alg, const char* title,
                            const Args& args) {
  const std::string ledger_path = ledger_file(args, "BENCH_quality.json");
  const LedgerSink sink{ledger_path,
                        alg == Algorithm::kKWay ? "quality_kway"
                                                : "quality_rb"};
  const LedgerSink* sinkp = ledger_path.empty() ? nullptr : &sink;

  std::printf("%s (scale=%.2f, reps=%d, ub=1.05, Type-S weights)\n", title,
              args.scale, args.reps);
  std::printf(
      "cut ratio = multi-constraint cut / single-constraint cut of the\n"
      "same graph and k; lb = worst per-constraint imbalance; feas =\n"
      "fraction of seeds where every constraint met its tolerance.\n\n");

  const std::vector<idx_t> ks =
      args.quick ? std::vector<idx_t>{32} : std::vector<idx_t>{8, 32, 128};
  const std::vector<int> ms =
      args.quick ? std::vector<int>{1, 3} : std::vector<int>{1, 2, 3, 4, 5};

  auto suite = make_suite(args.scale);

  Table t([&] {
    std::vector<std::string> headers = {"graph", "k"};
    for (const int m : ms) {
      if (m == 1) {
        headers.push_back("cut(m=1)");
        headers.push_back("lb(m=1)");
        headers.push_back("feas(m=1)");
      } else {
        headers.push_back("ratio(m=" + std::to_string(m) + ")");
        headers.push_back("lb(m=" + std::to_string(m) + ")");
        headers.push_back("feas(m=" + std::to_string(m) + ")");
      }
    }
    return headers;
  }());

  for (auto& [name, base] : suite) {
    for (const idx_t k : ks) {
      std::vector<std::string> row = {name, std::to_string(k)};
      double base_cut = 0;
      for (const int m : ms) {
        Graph g = base;  // copy: each m gets fresh weights
        if (m > 1) apply_type_s_weights(g, m, 16, 0, 19, static_cast<std::uint64_t>(1000 + m));
        Options o;
        o.nparts = k;
        o.algorithm = alg;
        // Each thread count appends its own ledger records; partitions are
        // identical at every count, so the table shows the first one's.
        RunSummary s;
        for (std::size_t ti = 0; ti < args.threads.size(); ++ti) {
          o.num_threads = args.threads[ti];
          const RunSummary r = run_average(g, o, args.reps, sinkp, name);
          if (ti == 0) s = r;
        }
        if (m == 1) {
          base_cut = s.cut;
          row.push_back(Table::fmt(s.cut, 0));
        } else {
          row.push_back(Table::fmt(base_cut > 0 ? s.cut / base_cut : 0.0, 2));
        }
        row.push_back(Table::fmt(s.max_imbalance, 3));
        row.push_back(Table::fmt(s.feasible_rate, 2));
      }
      t.add_row(std::move(row));
    }
  }
  t.print();
  if (!ledger_path.empty()) {
    std::printf("\nappended run records to %s\n", ledger_path.c_str());
  }
}

}  // namespace mcgp::bench
