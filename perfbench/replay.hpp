// Out-of-program replay of the partitioner's drivers, timed layer by layer.
//
// replay_partition() and replay_refine() call the library's public layer
// functions (coarsen_graph, partition_recursive_bisection / init_bisection,
// balance_2way, refine_2way, project_partition, induced_subgraph,
// kway_balance, kway_refine, rebalance_partition) in the order that
// core/kway_driver.cpp, core/rb_driver.cpp and refine_partition() call
// them, with the same RNG streams, and time every call from outside the
// library. Nothing inside the library is instrumented.
//
// A replay is only worth publishing while it is the same program as the
// real entry point: the caller compares its part vector with the one
// partition() / refine_partition() returns at the same seed. The drivers'
// private steps (empty-side and empty-part repair) are not replayed; on
// inputs where they would fire, that comparison fails.
//
// Every span is a leaf, so a layer's self time is the sum of its spans'
// durations; the replay's wall time minus those sums is driver overhead
// (gates, buffer moves, quality recomputation), reported as unattributed.
//
// MC-RB is always replayed serially, which is the real schedule only at
// num_threads = 1: at higher thread counts its recursion runs layers in
// concurrent tasks, and timing those from outside would double-count. MC-KW
// and refine replays follow num_threads; their layers run one after
// another. Options the replays do not follow (per-part target weights in
// MC-RB, the priority-queue k-way refiner) show up as a part-vector
// mismatch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "graph/csr_graph.hpp"

namespace perfbench {

enum class Layer {
  kCoarsen,      ///< coarsen_graph
  kInitpart,     ///< init_bisection (MC-RB) / coarsest-graph RB (MC-KW)
  kBalance2way,  ///< balance_2way
  kRefine2way,   ///< refine_2way
  kProject,      ///< project_partition
  kRbSplit,      ///< induced_subgraph of both bisection sides
  kKwayRefine,   ///< kway_refine, plus kway_balance in the MC-RB fix-up
  kRebalance,    ///< rebalance_partition
  kCount
};
constexpr int kLayers = static_cast<int>(Layer::kCount);

const char* layer_name(Layer l);

struct Span {
  Layer layer;
  int level;  ///< hierarchy level of the graph the call worked on
  double t0;  ///< seconds since the replay started
  double t1;
};

/// Spans and work counts of one replay.
struct Trace {
  std::vector<Span> spans;
  double wall_s = 0.0;

  std::array<std::int64_t, kLayers> calls{};
  std::int64_t coarsen_levels = 0;
  std::int64_t coarsen_edges = 0;  ///< edges of every graph that was contracted
  double coarsen_ratio_sum = 0.0;  ///< sum over levels of n_{l+1} / n_l
  std::int64_t init_coarsest_nvtxs = 0;  ///< summed over initpart calls
  std::int64_t fm_passes = 0;
  std::int64_t fm_moves = 0;
  std::int64_t kway_passes = 0;
  std::int64_t kway_moves = 0;
  std::int64_t reb_episodes = 0;
  std::int64_t reb_vcycles = 0;
  std::int64_t reb_moves = 0;
  std::int64_t reb_swaps = 0;
  std::int64_t reb_feasible = 0;  ///< rebalance calls that ended feasible

  double self_s(Layer l) const;
  /// Self time of one layer's spans at hierarchy level 0 only.
  double self_s_at_level0(Layer l) const;
  double unattributed_s() const;
};

struct Replay {
  std::vector<mcgp::idx_t> part;
  Trace trace;
};

/// Layer-by-layer equivalent of mcgp::partition(g, opts).
Replay replay_partition(const mcgp::Graph& g, const mcgp::Options& opts);

/// Layer-by-layer equivalent of mcgp::refine_partition(g, part, opts).
Replay replay_refine(const mcgp::Graph& g, std::vector<mcgp::idx_t> part,
                     const mcgp::Options& opts);

/// Chrome trace-event JSON of one replay (one "X" event per span, children
/// of a root "replay" event).
std::string spans_json(const Trace& t, const std::string& label);

}  // namespace perfbench
