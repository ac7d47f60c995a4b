#include "core/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/audit.hpp"
#include "core/kway_driver.hpp"
#include "core/kway_refine.hpp"
#include "core/project.hpp"
#include "core/rb_driver.hpp"
#include "core/rebalance.hpp"
#include "graph/metrics.hpp"
#include "support/flight_recorder.hpp"
#include "support/profiler.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace mcgp {

namespace {

/// Reject an enum value outside [0, last]: a value cast from an unchecked
/// integer would otherwise fall through to whichever branch handles
/// "anything else".
template <class E>
void check_enum(const char* field, E value, E last) {
  const int v = static_cast<int>(value);
  if (v < 0 || v > static_cast<int>(last)) {
    throw std::invalid_argument(
        std::string("partition: ") + field + " " + std::to_string(v) +
        " out of range [0, " + std::to_string(static_cast<int>(last)) + "]");
  }
}

void check_at_least(const char* field, int value, int lo) {
  if (value < lo) {
    throw std::invalid_argument(std::string("partition: ") + field + " = " +
                                std::to_string(value) + " must be >= " +
                                std::to_string(lo));
  }
}

void validate_options(const Graph& g, const Options& opts) {
  if (opts.nparts < 1) throw std::invalid_argument("partition: nparts < 1");
  if (opts.num_threads < 1) {
    throw std::invalid_argument("partition: num_threads < 1");
  }
  if (!opts.ubvec.empty() &&
      opts.ubvec.size() != to_size(g.ncon) &&
      opts.ubvec.size() != 1) {
    throw std::invalid_argument("partition: ubvec arity mismatch");
  }
  for (std::size_t i = 0; i < opts.ubvec.size(); ++i) {
    const real_t ub = opts.ubvec[i];
    if (!std::isfinite(ub) || ub < 1.0) {
      throw std::invalid_argument(
          "partition: ubvec[" + std::to_string(i) + "] = " +
          std::to_string(ub) + " — every tolerance must be finite and >= 1.0");
    }
  }
  check_enum("audit_level", opts.audit_level, AuditLevel::kParanoid);
  check_enum("algorithm", opts.algorithm, Algorithm::kKWay);
  check_enum("matching", opts.matching, MatchScheme::kHeavyEdgeBalanced);
  check_enum("queue_policy", opts.queue_policy, QueuePolicy::kSingleQueue);
  check_enum("init_scheme", opts.init_scheme, InitScheme::kBinPack);
  check_enum("kway_scheme", opts.kway_scheme, KWayRefineScheme::kPriorityQueue);
  check_at_least("init_trials", opts.init_trials, 1);
  check_at_least("refine_passes", opts.refine_passes, 0);
  check_at_least("kway_passes", opts.kway_passes, 0);
  // 0 means automatic for both.
  check_at_least("coarsen_to", opts.coarsen_to, 0);
  check_at_least("fm_move_limit", opts.fm_move_limit, 0);
  // Written so that NaN fails too.
  if (!(opts.min_coarsen_reduction > 0 && opts.min_coarsen_reduction <= 1)) {
    throw std::invalid_argument(
        "partition: min_coarsen_reduction = " +
        std::to_string(opts.min_coarsen_reduction) + " must lie in (0, 1]");
  }
  if (!opts.tpwgts.empty()) {
    if (opts.tpwgts.size() != to_size(opts.nparts)) {
      throw std::invalid_argument(
          "partition: tpwgts must hold one target fraction per part (got " +
          std::to_string(opts.tpwgts.size()) + " entries for nparts = " +
          std::to_string(opts.nparts) + ")");
    }
    real_t total = 0;
    for (std::size_t p = 0; p < opts.tpwgts.size(); ++p) {
      const real_t f = opts.tpwgts[p];
      if (!std::isfinite(f) || f <= 0) {
        throw std::invalid_argument(
            "partition: tpwgts[" + std::to_string(p) + "] = " +
            std::to_string(f) +
            " — every target fraction must be finite and > 0");
      }
      total += f;
    }
    if (!(total >= 0.999 && total <= 1.001)) {
      throw std::invalid_argument(
          "partition: tpwgts must sum to 1 (got " + std::to_string(total) +
          ")");
    }
  }
  // An explicitly supplied ubvec must be achievable: a tolerance below the
  // instance's provable lower bound (heaviest vertex / pigeonhole, see
  // min_feasible_ubvec) cannot be met by ANY partition, so accepting it
  // silently returns an "imbalanced" result no algorithm could avoid.
  // The empty default is instead clamped up by effective_ubvec.
  if (!opts.ubvec.empty()) {
    const std::vector<real_t> bounds =
        min_feasible_ubvec(g, opts.nparts, opts.targets());
    for (int i = 0; i < g.ncon; ++i) {
      const real_t ub = opts.ub_for(i);
      if (ub < bounds[to_size(i)] - 1e-9) {
        throw std::invalid_argument(
            "partition: ubvec[" + std::to_string(i) + "] = " +
            std::to_string(ub) +
            " is infeasible by construction: no " +
            std::to_string(opts.nparts) +
            "-way partition of this graph can achieve better than " +
            std::to_string(bounds[to_size(i)]) + " in constraint " +
            std::to_string(i) +
            " (heaviest-vertex / pigeonhole bound). Request at least that, "
            "or leave ubvec empty to have the tolerance clamped "
            "automatically.");
      }
    }
  }
}

/// Guarantee non-empty parts whenever the graph has enough vertices:
/// weight-degenerate instances (e.g. one vertex holding half the total
/// weight) can leave recursive bisection with empty subdomains. Repair by
/// donating the lightest vertices of the most populous parts.
void ensure_nonempty_parts(const Graph& g, idx_t nparts,
                           std::vector<idx_t>& part) {
  if (g.nvtxs < nparts) return;
  std::vector<idx_t> count(to_size(nparts), 0);
  for (const idx_t p : part) ++count[to_size(p)];
  for (idx_t empty = 0; empty < nparts; ++empty) {
    if (count[to_size(empty)] > 0) continue;
    // Donor: the part with the most vertices.
    idx_t donor = 0;
    for (idx_t p = 1; p < nparts; ++p) {
      if (count[to_size(p)] > count[to_size(donor)]) {
        donor = p;
      }
    }
    // Donate the donor's vertex with the smallest weighted degree (least
    // cut damage) — ties broken by the smallest max normalized weight.
    idx_t best = -1;
    sum_t best_deg = 0;
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      if (part[to_size(v)] != donor) continue;
      const sum_t deg = g.weighted_degree(v);
      if (best < 0 || deg < best_deg) {
        best = v;
        best_deg = deg;
      }
    }
    if (best < 0) break;  // donor vanished (cannot happen with counts > 1)
    part[to_size(best)] = empty;
    --count[to_size(donor)];
    ++count[to_size(empty)];
  }
}

void fill_quality(const Graph& g, const Options& opts, PartitionResult& r) {
  r.cut = edge_cut(g, r.part);
  r.imbalance = opts.tpwgts.empty()
                    ? imbalance(g, r.part, opts.nparts)
                    : target_imbalance(g, r.part, opts.nparts, opts.tpwgts);
  r.max_imbalance =
      r.imbalance.empty()
          ? 1.0
          : *std::max_element(r.imbalance.begin(), r.imbalance.end());
  // The feasibility verdict is judged against the effective tolerances the
  // run refined toward (callers set opts.ubvec = effective_ubvec first).
  r.ubvec_used = opts.tolerances(g.ncon);
  r.feasible = kway_feasible(g, part_weights(g, r.part, opts.nparts),
                             opts.nparts, r.ubvec_used, opts.targets());
}

/// `r.seconds`, `r.phases` and `r.unattributed_s` of a run whose "run"
/// scope took `run_ns`: the top-level phase totals it added to its
/// profiler between the snapshots `before` and `after`.
void fill_phases(const std::map<std::string, PhaseClock>& before,
                 const std::map<std::string, PhaseClock>& after,
                 std::int64_t run_ns, PartitionResult& r) {
  std::int64_t attributed_ns = 0;
  for (const auto& [phase, clock] : after) {
    PhaseClock d = clock;
    if (const auto it = before.find(phase); it != before.end()) {
      d.wall_ns -= it->second.wall_ns;
      d.cpu_ns -= it->second.cpu_ns;
    }
    if (d.wall_ns == 0 && d.cpu_ns == 0) continue;  // not run this time
    r.phases.push_back({phase, static_cast<double>(d.wall_ns) * 1e-9,
                        static_cast<double>(d.cpu_ns) * 1e-9});
    attributed_ns += d.wall_ns;
  }
  r.seconds = static_cast<double>(run_ns) * 1e-9;
  r.unattributed_s = static_cast<double>(run_ns - attributed_ns) * 1e-9;
}

/// Effective audit level: the MCGP_AUDIT environment variable (parsed once
/// per process) overrides the per-run option, so an existing application or
/// test suite can be re-run fully audited without code changes.
AuditLevel effective_audit_level(AuditLevel opt_level) {
  static const int env_level = [] {
    const char* s = std::getenv("MCGP_AUDIT");
    AuditLevel lvl = AuditLevel::kOff;
    if (s != nullptr && parse_audit_level(s, lvl)) {
      return static_cast<int>(lvl);
    }
    return -1;  // unset or unrecognized: no override
  }();
  return env_level >= 0 ? static_cast<AuditLevel>(env_level) : opt_level;
}

/// The setup and teardown partition() and refine_partition() share around
/// their algorithm body: validation (of `start` too, when given), the
/// auditor, the effective tolerances, RNG, the profiler and its "run"
/// scope, trace span `name` and pool; then the final quality, the
/// `<name>.final` audits (an AuditFailure dumps the flight window), the
/// final sample, counters, seconds and phases. `body(opts, rng, pool,
/// result)` fills result.part from the prepared options.
template <class Body>
PartitionResult run_entry(const Graph& g, const Options& run_opts,
                          const char* name, const std::vector<idx_t>* start,
                          Body&& body) {
  validate_options(g, run_opts);
  if (start != nullptr) {
    const std::string problem = validate_partition(g, *start, run_opts.nparts);
    if (!problem.empty()) {
      throw std::invalid_argument(std::string(name) + ": " + problem);
    }
  }

  // An externally supplied auditor is used as-is (its own level governs);
  // otherwise one is created here when the effective level asks for audits.
  Options opts = run_opts;
  std::optional<InvariantAuditor> local_audit;
  if (opts.audit == nullptr) {
    const AuditLevel lvl = effective_audit_level(opts.audit_level);
    if (lvl != AuditLevel::kOff) {
      local_audit.emplace(lvl);
      opts.audit = &*local_audit;
    }
  }

  // From here the whole run refines toward the effective tolerances: the
  // request clamped up to the instance's provable lower bound, so a
  // coarse-granularity graph pursues the best achievable balance instead
  // of an impossible one. validate_options already rejected explicit
  // requests below the bound; this clamp only adjusts the empty default.
  opts.ubvec = effective_ubvec(g, opts);

  PartitionResult result;
  Rng rng(opts.seed);

  // Every run is profiled, since its phase times are the profiler's
  // top-level scopes: without a caller's profiler, an internal one.
  std::optional<Profiler> local_prof;
  if (opts.profile == nullptr) opts.profile = &local_prof.emplace();
  opts.profile->set_threads(opts.num_threads);
  const std::map<std::string, PhaseClock> phases_before =
      opts.profile->top_level();
  // Whole-run measurement interval: every nested scope is inside it, so
  // the "run" bucket counts each cycle exactly once — the denominator for
  // per-phase shares and the run-ledger headline.
  ProfScope run_prof(opts.profile, "run", /*level=*/-1, ProfScope::kRun);
  run_prof.work(g.nedges(), g.nvtxs);

  TraceSpan run_span(opts.trace, name);
  if (run_span.enabled()) {
    run_span.arg({"nvtxs", g.nvtxs});
    run_span.arg({"nedges", g.nedges()});
    run_span.arg({"ncon", g.ncon});
    run_span.arg({"nparts", opts.nparts});
    run_span.arg({"seed", static_cast<std::int64_t>(opts.seed)});
    if (start == nullptr) {  // refinement has no algorithm choice
      run_span.arg({"algorithm",
                    static_cast<std::int64_t>(
                        opts.algorithm == Algorithm::kKWay ? 1 : 0)});
    }
  }

  std::optional<ThreadPool> pool;
  if (opts.num_threads > 1) pool.emplace(opts.num_threads);

  const std::string final_label = std::string(name) + ".final";
  try {
    body(opts, rng, pool.has_value() ? &*pool : nullptr, result);
    fill_quality(g, opts, result);
    if (opts.audit != nullptr && opts.audit->boundaries()) {
      opts.audit->check_final_partition(g, result.part, opts.nparts,
                                        result.cut, final_label.c_str());
      opts.audit->check_feasibility(
          g, result.part, opts.nparts, result.ubvec_used, opts.targets(),
          result.feasible, final_label.c_str());
    }
  } catch (const AuditFailure& e) {
    // The run is aborting; persist the retained sample window so the
    // failing level / pass can be reconstructed postmortem.
    if (opts.flight != nullptr) {
      opts.flight->sample_memory();
      opts.flight->dump_on_failure(e.what());
    }
    throw;
  }
  if (opts.flight != nullptr) {  // the end-of-run summary sample
    record_level_sample(*opts.flight, FlightSample::Stage::kFinal, -1, g,
                        result.cut, result.imbalance, result.feasible ? 1 : 0);
  }
  if (run_span.enabled()) {
    run_span.arg({"cut", result.cut});
    run_span.arg({"max_imbalance", result.max_imbalance});
    run_span.finish();
    result.counters = opts.trace->merged_counters();
  }
  const std::int64_t run_ns = run_prof.finish();
  fill_phases(phases_before, opts.profile->top_level(), run_ns, result);
  return result;
}

}  // namespace

PartitionResult partition(const Graph& g, const Options& run_opts) {
  return run_entry(
      g, run_opts, "partition", nullptr,
      [&](const Options& opts, Rng& rng, ThreadPool* pool,
          PartitionResult& result) {
        MlBisectStats stats;
        result.part =
            opts.algorithm == Algorithm::kKWay
                ? partition_kway(g, opts, rng, &stats, pool)
                : partition_recursive_bisection(g, opts, rng, &stats, pool);
        result.coarsen_levels = stats.levels;
        result.coarsest_nvtxs = stats.coarsest_nvtxs;
        ensure_nonempty_parts(g, opts.nparts, result.part);
      });
}

PartitionResult refine_partition(const Graph& g, std::vector<idx_t> part,
                                 const Options& run_opts) {
  return run_entry(
      g, run_opts, "refine_partition", &part,
      [&](const Options& opts, Rng& rng, ThreadPool* pool,
          PartitionResult& result) {
        const std::vector<real_t> ub = opts.tolerances(g.ncon);
        // Standalone refinement drives the same refiner as the full
        // pipeline's finest level, with its own workspace pool.
        WorkspacePool wspool;
        const RunContext run = run_context(opts, pool, &wspool);
        kway_refine_level(g, part, ub, opts.kway_passes, rng, opts, run);
        // The refiner's own balancer can exit with residual overload on
        // tight instances; escalate before declaring the result.
        rebalance_if_infeasible(g, part, ub, rng, opts, run);
        result.part = std::move(part);
      });
}

}  // namespace mcgp
