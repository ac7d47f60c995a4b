// Coarsening phase, step 1: vertex matchings.
//
// A matching pairs adjacent vertices; each pair collapses into one coarse
// vertex. Heavy-edge matching (HEM) greedily absorbs the heaviest incident
// edge so the coarse graph exposes as little edge weight as possible. The
// SC'98 multi-constraint refinement needs coarse vertices whose weight
// vectors are as uniform as possible across constraints, so HEM is extended
// with the balanced-edge tie-break: among (near-)heaviest candidate edges,
// prefer the partner whose combined weight vector is flattest.
#pragma once

#include <algorithm>
#include <vector>

#include "core/config.hpp"
#include "core/run_context.hpp"
#include "graph/csr_graph.hpp"
#include "support/random.hpp"
#include "support/workspace.hpp"

namespace mcgp {

/// Compute a matching. match[v] == partner of v, or v itself if unmatched.
/// The relation is symmetric (match[match[v]] == v) and only adjacent
/// vertices are matched. A non-null `run.trace` accumulates the
/// `match.pairs` / `match.failed` / `match.proposals` counters (failed =
/// vertices left unmatched although they had neighbors; proposals =
/// handshake proposals evaluated, summed over the rounds).
///
/// Small graphs use a serial greedy visitor in random order; graphs of at
/// least kHandshakeMinVtxs vertices use deterministic handshake rounds
/// (parallel propose from a frozen state over the vertices still
/// unmatched that found an unmatched neighbor last round, mutual
/// proposals accepted — conflicts resolved by hashed per-round keys, a
/// fixed total order, never arrival order) followed by a serial greedy
/// cleanup that restores maximality.
std::vector<idx_t> compute_matching(const Graph& g, MatchScheme scheme,
                                    Rng& rng, const RunContext& run = {});

/// Vertex count at or above which compute_matching switches from the
/// serial greedy visitor to handshake rounds (whose propose phases can
/// run on a pool). Size-based only: the same graph takes the same path at
/// every thread count.
inline constexpr idx_t kHandshakeMinVtxs = 8192;

/// Range grain of the handshake rounds' parallel propose and accept
/// phases over the active list. The boundaries depend only on the list's
/// length, so every result is independent of the pool's thread count.
inline constexpr idx_t kMatchChunk = 8192;

/// As compute_matching, but fills a caller-owned `match` vector and, when
/// `ws` is non-null, reuses ws->perm / ws->proposal so repeated coarsening
/// levels allocate nothing. A non-null `run.pool` runs the handshake
/// propose and accept phases as chunk tasks.
void compute_matching_into(const Graph& g, MatchScheme scheme, Rng& rng,
                           std::vector<idx_t>& match, Workspace* ws = nullptr,
                           const RunContext& run = {});

/// Derive the fine-to-coarse vertex map from a matching. Coarse ids are
/// assigned in order of the smaller endpoint. Returns the number of coarse
/// vertices and fills cmap (size g.nvtxs).
idx_t build_coarse_map(const Graph& g, const std::vector<idx_t>& match,
                       std::vector<idx_t>& cmap);

/// Flatness score of a combined weight vector used by the balanced-edge
/// tie-break: max_i ĉ_i - min_i ĉ_i of the normalized combined vector
/// (0 for ncon == 1). Inline: the matchers call it once per candidate
/// edge. Exposed for testing.
inline real_t balanced_edge_score(const Graph& g, idx_t v, idx_t u) {
  if (g.ncon == 1) return 0.0;
  const wgt_t* wv = g.weights(v);
  const wgt_t* wu = g.weights(u);
  real_t mx = 0.0;
  real_t mn = 1e300;
  for (int i = 0; i < g.ncon; ++i) {
    const real_t c = static_cast<real_t>(wv[i] + wu[i]) *
                     g.invtvwgt[to_size(i)];
    mx = std::max(mx, c);
    mn = std::min(mn, c);
  }
  return mx - mn;
}

}  // namespace mcgp
