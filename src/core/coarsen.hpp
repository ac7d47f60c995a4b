// Coarsening phase, step 2: graph contraction and the multilevel hierarchy.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/matching.hpp"
#include "graph/csr_graph.hpp"

namespace mcgp {

/// Contract a graph according to a fine-to-coarse vertex map.
/// Coarse vertex weights are the (vector) sums of their constituents;
/// parallel coarse edges are merged by summing weights; edges internal to
/// a coarse vertex vanish. A non-null `ws` supplies the constituent-list,
/// dense position and row scratch so repeated contractions allocate
/// nothing beyond the coarse graph itself.
///
/// One row builder serves every thread count. Without a pool, or with at
/// most one chunk of coarse vertices, it writes all rows as one block
/// straight into the output. With `run.pool`, each chunk of coarse
/// vertices writes its rows one after another from its first row's
/// bound, the prefix sum of deg(first) + deg(second) over the coarse
/// vertices before it, leasing its dense position map from `run.wspool`;
/// a prefix sum of the chunks' lengths then moves whole blocks into the
/// output. Rows and their order are the same either way, so the output
/// is bit-identical at every thread count.
Graph contract_graph(const Graph& g, const std::vector<idx_t>& cmap,
                     idx_t ncoarse, Workspace* ws = nullptr,
                     const RunContext& run = {});

/// One level of the hierarchy below the finest graph.
struct CoarseLevel {
  Graph graph;              ///< the coarse graph
  std::vector<idx_t> cmap;  ///< maps the NEXT FINER level's vertices here
};

/// Multilevel hierarchy rooted at a (non-owned) finest graph.
struct Hierarchy {
  const Graph* finest = nullptr;
  std::vector<CoarseLevel> levels;  ///< levels[0] is one step coarser

  int num_levels() const { return static_cast<int>(levels.size()); }

  /// Graph at level l, where level 0 is the finest input graph.
  const Graph& graph_at(int l) const {
    return l == 0 ? *finest : levels[to_size(l) - 1].graph;
  }

  const Graph& coarsest() const {
    return levels.empty() ? *finest : levels.back().graph;
  }
};

/// The run context coarsening runs in plus its own knobs. Per level the
/// trace gets a span, the auditor checks the contraction's conservation,
/// the flight recorder gets one sample, the profiler measures matching and
/// contraction, and the pool runs their chunk tasks on `wspool` scratch.
/// `level` is ignored: each level sets its own.
struct CoarsenParams : RunContext {
  idx_t coarsen_to = 100;
  MatchScheme scheme = MatchScheme::kHeavyEdgeBalanced;
  real_t min_reduction = 0.95;  ///< stop if ncoarse > min_reduction * n
  int max_levels = 60;
};

/// The CoarsenParams a driver runs with: `run` plus opts' matching scheme
/// and stall threshold and the given target size.
CoarsenParams coarsen_params(const Options& opts, idx_t coarsen_to,
                             const RunContext& run);

/// Repeatedly match-and-contract until the graph is small enough or
/// coarsening stalls. `g` must outlive the returned hierarchy. A non-null
/// `ws` supplies reusable scratch (match/perm/contract buffers); only the
/// per-level cmap vectors, which the hierarchy keeps, are still allocated.
/// The contraction's row buffer is sized by the first chunked level and
/// released before returning, so it never outlives the coarsening.
Hierarchy coarsen_graph(const Graph& g, const CoarsenParams& params, Rng& rng,
                        Workspace* ws = nullptr);

}  // namespace mcgp
