#include "support/run_ledger.hpp"

#include <fstream>
#include <iostream>
#include <ostream>

#include "core/config.hpp"
#include "graph/csr_graph.hpp"
#include "support/json_writer.hpp"
#include "support/memory.hpp"
#include "support/profiler.hpp"
#include "support/schema.hpp"
#include "support/sysinfo.hpp"

namespace mcgp {

const char* build_git_describe() {
#ifdef MCGP_GIT_DESCRIBE
  return MCGP_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

const char* algorithm_ledger_name(const Options& opts) {
  return opts.algorithm == Algorithm::kKWay ? "MC-KW" : "MC-RB";
}

RunRecord make_run_record(std::string experiment, std::string graph_name,
                          const Graph& g, const Options& opts,
                          const PartitionResult& r, const Profiler* prof) {
  RunRecord rec;
  rec.experiment = std::move(experiment);
  rec.algorithm = algorithm_ledger_name(opts);
  rec.graph = std::move(graph_name);
  rec.nparts = opts.nparts;
  rec.ncon = g.ncon;
  rec.threads = opts.num_threads;
  rec.seed = opts.seed;
  rec.cut = r.cut;
  rec.imbalance = r.imbalance;
  rec.max_imbalance = r.max_imbalance;
  rec.feasible = r.feasible;
  rec.seconds = r.seconds;
  rec.phases = r.phases;
  rec.unattributed_s = r.unattributed_s;
  rec.peak_rss_bytes = peak_rss_bytes();
  const HostInfo& hi = host_info();
  rec.host = hi.hostname;
  rec.cpu = hi.cpu_model;
  rec.cores = hi.cores;
  if (prof != nullptr) {
    const ProfBucket run = prof->phase_total("run");
    rec.profile_attached = true;
    rec.profile_wall_ns = run.wall_ns;
    rec.profile_task_clock_ns = run.task_clock_ns;
  }
  return rec;
}

void write_run_record(std::ostream& out, const RunRecord& rec) {
  JsonWriter w(out);
  w.begin_object();
  w.member("schema_version", kMcgpSchemaVersion);
  w.member("git", build_git_describe());
  w.member("experiment", rec.experiment);
  w.member("algorithm", rec.algorithm);
  w.member("graph", rec.graph);
  w.member("nparts", rec.nparts);
  w.member("ncon", static_cast<std::int64_t>(rec.ncon));
  w.member("threads", static_cast<std::int64_t>(rec.threads));
  w.member("seed", rec.seed);
  w.member("cut", rec.cut);
  w.key("imbalance");
  w.begin_array();
  for (const real_t lb : rec.imbalance) w.value(lb);
  w.end_array();
  w.member("max_imbalance", rec.max_imbalance);
  w.member("feasible", rec.feasible);
  w.member("seconds", rec.seconds);
  w.key("phases");
  w.begin_object();
  for (const PhaseTime& p : rec.phases) {
    w.key(p.phase);
    w.begin_object();
    w.member("wall_s", p.wall_s);
    w.member("cpu_s", p.cpu_s);
    w.end_object();
  }
  w.end_object();
  w.member("unattributed_s", rec.unattributed_s);
  if (rec.peak_rss_bytes >= 0) {
    w.member("peak_rss_bytes", rec.peak_rss_bytes);
  }
  if (!rec.host.empty()) w.member("host", rec.host);
  if (!rec.cpu.empty()) w.member("cpu", rec.cpu);
  if (rec.cores > 0) w.member("cores", static_cast<std::int64_t>(rec.cores));
  if (rec.profile_attached) {
    w.key("profile");
    w.begin_object();
    w.member("wall_ns", rec.profile_wall_ns);
    w.member("task_clock_ns", rec.profile_task_clock_ns);
    w.end_object();
  }
  w.end_object();
  out << '\n';
}

bool append_run_record(const std::string& path, const RunRecord& rec) {
  std::ofstream out(path, std::ios::app);
  if (out) write_run_record(out, rec);
  if (!out) {
    std::cerr << "warning: could not append run record to " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace mcgp
