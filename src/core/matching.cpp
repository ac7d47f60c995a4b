#include "core/matching.hpp"

#include <algorithm>
#include <cassert>

#include "support/check.hpp"
#include "support/profiler.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace mcgp {

namespace {

/// Handshake rounds before falling back to the serial cleanup. Random
/// graphs converge in a handful of rounds; the cap bounds adversarial
/// cases without affecting determinism (cleanup matches whatever is left).
constexpr int kMaxHandshakeRounds = 48;

/// Serial greedy matching over `order`; skips already-matched vertices,
/// leaves unmatched-but-visited vertices self-matched. This is both the
/// small-graph path (order = random permutation of all vertices) and the
/// handshake cleanup (order = ascending unmatched vertices).
void greedy_pass(const Graph& g, MatchScheme scheme, Rng& rng,
                 std::vector<idx_t>& match, const std::vector<idx_t>& order) {
  for (const idx_t v : order) {
    if (match[to_size(v)] >= 0) continue;

    idx_t best = -1;
    switch (scheme) {
      case MatchScheme::kRandom: {
        // Reservoir-sample one unmatched neighbor.
        idx_t seen = 0;
        for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
          const idx_t u = g.adjncy[to_size(e)];
          if (match[to_size(u)] >= 0) continue;
          ++seen;
          if (rng.next_below(static_cast<std::uint64_t>(seen)) == 0) best = u;
        }
        break;
      }
      case MatchScheme::kHeavyEdge: {
        wgt_t best_w = -1;
        for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
          const idx_t u = g.adjncy[to_size(e)];
          if (match[to_size(u)] >= 0) continue;
          if (g.adjwgt[to_size(e)] > best_w) {
            best_w = g.adjwgt[to_size(e)];
            best = u;
          }
        }
        break;
      }
      case MatchScheme::kHeavyEdgeBalanced: {
        // Primary key: edge weight (max). Secondary: flattest combined
        // weight vector among candidates tied on the primary key.
        wgt_t best_w = -1;
        real_t best_score = 1e300;
        for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
          const idx_t u = g.adjncy[to_size(e)];
          if (match[to_size(u)] >= 0) continue;
          const wgt_t w = g.adjwgt[to_size(e)];
          if (w < best_w) continue;
          const real_t score = balanced_edge_score(g, v, u);
          if (w > best_w || score < best_score) {
            best_w = w;
            best_score = score;
            best = u;
          }
        }
        break;
      }
    }

    if (best >= 0) {
      match[to_size(v)] = best;
      match[to_size(best)] = v;
    } else {
      match[to_size(v)] = v;
    }
  }
}

/// Pick v's handshake proposal from the frozen match state. Pure function
/// of (g, match, v, round_seed): no shared mutable state, so chunks can
/// evaluate it concurrently and the result is chunking-independent. Ties
/// are broken by the hashed key mix_seed(mix_seed(round_seed, v), u) — a
/// fixed total order per round, never arrival order — which doubles as
/// the "random" choice for MatchScheme::kRandom.
idx_t handshake_propose(const Graph& g, MatchScheme scheme,
                        const std::vector<idx_t>& match, idx_t v,
                        std::uint64_t round_seed) {
  const std::uint64_t vseed =
      mix_seed(round_seed, static_cast<std::uint64_t>(v));
  idx_t best = -1;
  wgt_t best_w = -1;
  real_t best_score = 1e300;
  std::uint64_t best_key = ~0ULL;
  for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
    const idx_t u = g.adjncy[to_size(e)];
    if (match[to_size(u)] >= 0) continue;
    const std::uint64_t key = mix_seed(vseed, static_cast<std::uint64_t>(u));
    switch (scheme) {
      case MatchScheme::kRandom:
        if (key < best_key) {
          best_key = key;
          best = u;
        }
        break;
      case MatchScheme::kHeavyEdge: {
        const wgt_t w = g.adjwgt[to_size(e)];
        if (w > best_w || (w == best_w && key < best_key)) {
          best_w = w;
          best_key = key;
          best = u;
        }
        break;
      }
      case MatchScheme::kHeavyEdgeBalanced: {
        const wgt_t w = g.adjwgt[to_size(e)];
        if (w < best_w) break;
        const real_t score = balanced_edge_score(g, v, u);
        if (w > best_w || score < best_score ||
            (score == best_score && key < best_key)) {
          best_w = w;
          best_score = score;
          best_key = key;
          best = u;
        }
        break;
      }
    }
  }
  return best;
}

/// Deterministic handshake matching: rounds of (parallel propose from the
/// frozen state, accept mutual proposals), then a serial greedy cleanup in
/// ascending vertex order for maximality. Every phase's output depends
/// only on the graph, the scheme, and the seed — never on thread count or
/// scheduling — so partitions are bit-identical across `num_threads`.
///
/// A round visits only the active list: the vertices still unmatched that
/// have not yet proposed -1. Matching is monotone, so a vertex that found
/// no unmatched neighbor never finds one again and drops out for good, as
/// does a vertex once matched. A mutual proposal pairs two active
/// vertices, so every proposal the accept step reads is this round's.
/// Returns the number of proposals evaluated, summed over the rounds.
sum_t handshake_match(const Graph& g, MatchScheme scheme, Rng& rng,
                      std::vector<idx_t>& match, Workspace* ws,
                      const RunContext& run) {
  const idx_t n = g.nvtxs;

  std::vector<idx_t> local_proposal;
  std::vector<idx_t>& proposal = ws != nullptr ? ws->proposal : local_proposal;
  proposal.assign(to_size(n), -1);
  // The active list, ascending; the cleanup below reuses it for its visit
  // order once the rounds are done.
  std::vector<idx_t> local_active;
  std::vector<idx_t>& active = ws != nullptr ? ws->perm : local_active;
  active.resize(to_size(n));
  for (idx_t v = 0; v < n; ++v) active[to_size(v)] = v;

  // One draw per call: the per-round seeds derive from it by position, so
  // the stream is identical no matter how the rounds' chunks execute.
  const std::uint64_t mseed = rng.next_u64();

  std::vector<idx_t> chunk_new;
  sum_t proposals = 0;

  idx_t unmatched = n;
  for (int round = 0; round < kMaxHandshakeRounds; ++round) {
    // Few enough stragglers that rounds stop paying for their sweeps; the
    // serial cleanup finishes them at small-graph cost.
    if (unmatched < kHandshakeMinVtxs) break;
    const std::uint64_t round_seed =
        mix_seed(mseed, static_cast<std::uint64_t>(round));
    const idx_t nactive = static_cast<idx_t>(active.size());
    proposals = checked_add(proposals, static_cast<sum_t>(nactive));

    // Propose: reads only the frozen `match`, writes only proposal[v].
    parallel_chunks(run.pool, nactive, kMatchChunk, [&](idx_t b, idx_t e) {
      ProfScope aux(run.profile, "coarsen.matching", run.level,
                    ProfScope::kAux);
      for (idx_t i = b; i < e; ++i) {
        const idx_t v = active[to_size(i)];
        proposal[to_size(v)] =
            handshake_propose(g, scheme, match, v, round_seed);
      }
    });

    // Accept: v and u marry iff they proposed to each other. Each vertex
    // writes only match[v] (its partner writes match[u]), so the writes
    // are disjoint and the outcome is chunking-independent.
    chunk_new.assign(to_size((nactive + kMatchChunk - 1) / kMatchChunk), 0);
    parallel_chunks(run.pool, nactive, kMatchChunk, [&](idx_t b, idx_t e) {
      ProfScope aux(run.profile, "coarsen.matching", run.level,
                    ProfScope::kAux);
      idx_t matched = 0;
      for (idx_t i = b; i < e; ++i) {
        const idx_t v = active[to_size(i)];
        const idx_t u = proposal[to_size(v)];
        if (u >= 0 && proposal[to_size(u)] == v) {
          match[to_size(v)] = u;
          ++matched;
        }
      }
      chunk_new[to_size(b / kMatchChunk)] = matched;
    });

    idx_t newly = 0;
    for (const idx_t c : chunk_new) newly += c;
    unmatched -= newly;
    // No mutual proposal anywhere: further rounds are identical no-ops
    // (same frozen state, new seeds only reshuffle rejected proposals for
    // isolated-in-the-unmatched-subgraph vertices). Hand off to cleanup.
    if (newly == 0) break;

    std::erase_if(active, [&](idx_t v) {
      return match[to_size(v)] >= 0 || proposal[to_size(v)] < 0;
    });
  }

  // Maximality cleanup: greedy over the leftovers in ascending id order.
  // Serial and state-dependent, but the state it sees is already
  // thread-count-independent.
  active.clear();
  for (idx_t v = 0; v < n; ++v) {
    if (match[to_size(v)] < 0) active.push_back(v);
  }
  greedy_pass(g, scheme, rng, match, active);
  return proposals;
}

}  // namespace

std::vector<idx_t> compute_matching(const Graph& g, MatchScheme scheme,
                                    Rng& rng, const RunContext& run) {
  std::vector<idx_t> match;
  compute_matching_into(g, scheme, rng, match, nullptr, run);
  return match;
}

void compute_matching_into(const Graph& g, MatchScheme scheme, Rng& rng,
                           std::vector<idx_t>& match, Workspace* ws,
                           const RunContext& run) {
  match.assign(to_size(g.nvtxs), -1);

  sum_t proposals = 0;
  if (g.nvtxs >= kHandshakeMinVtxs) {
    proposals = handshake_match(g, scheme, rng, match, ws, run);
  } else {
    std::vector<idx_t> local_perm;
    std::vector<idx_t>& perm = ws != nullptr ? ws->perm : local_perm;
    random_permutation(g.nvtxs, perm, rng);
    greedy_pass(g, scheme, rng, match, perm);
  }

  if (run.trace != nullptr) {
    idx_t pairs = 0, failed = 0;
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      if (match[to_size(v)] != v) {
        ++pairs;  // counts both endpoints; halved below
      } else if (g.degree(v) > 0) {
        ++failed;  // had neighbors but every one was already taken
      }
    }
    trace_count(run.trace, "match.pairs", pairs / 2);
    trace_count(run.trace, "match.failed", failed);
    trace_count(run.trace, "match.proposals", proposals);
  }
}

idx_t build_coarse_map(const Graph& g, const std::vector<idx_t>& match,
                       std::vector<idx_t>& cmap) {
  cmap.assign(to_size(g.nvtxs), -1);
  idx_t ncoarse = 0;
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t u = match[to_size(v)];
    assert(u >= 0 && u < g.nvtxs);
    if (v <= u) {
      cmap[to_size(v)] = ncoarse;
      cmap[to_size(u)] = ncoarse;
      ++ncoarse;
    }
  }
  return ncoarse;
}

}  // namespace mcgp
