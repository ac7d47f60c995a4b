#include "core/balance2way.hpp"

#include <algorithm>

#include "core/audit.hpp"
#include "support/bucket_queue.hpp"
#include "support/check.hpp"

namespace mcgp {

bool balance_2way(const Graph& g, std::vector<idx_t>& where,
                  const BisectionTargets& targets, Rng& rng,
                  const RunContext& run) {
  BisectionBalance balance;
  balance.init(g, where, targets);
  if (balance.feasible()) return true;

  // Weighted degrees for gain computation (recomputed incrementally would
  // complicate the loop; the pass is O(rounds * E) which is fine for a
  // repair path that runs rarely).
  const auto n = to_size(g.nvtxs);
  std::vector<sum_t> id(n, 0), ed(n, 0);
  auto recompute_degrees = [&]() {
    for (idx_t v = 0; v < g.nvtxs; ++v) {
      sum_t idw = 0, edw = 0;
      const idx_t pv = where[to_size(v)];
      for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
        if (where[to_size(g.adjncy[to_size(e)])] == pv) {
          idw = checked_add(idw, g.adjwgt[to_size(e)]);
        } else {
          edw = checked_add(edw, g.adjwgt[to_size(e)]);
        }
      }
      id[to_size(v)] = idw;
      ed[to_size(v)] = edw;
    }
  };

  BucketQueue queue;
  std::vector<idx_t> perm;

  // Each round targets the currently worst constraint; bounded rounds keep
  // the pass from ping-ponging between constraints forever.
  const int max_rounds = 8 * g.ncon + 8;
  for (int round = 0; round < max_rounds && !balance.feasible(); ++round) {
    const int c = balance.worst_constraint();
    const int from = balance.heavy_side(c);

    recompute_degrees();
    queue.reset(g.nvtxs);
    random_permutation(g.nvtxs, perm, rng);
    for (const idx_t v : perm) {
      if (where[to_size(v)] != from) continue;
      if (g.weight(v, c) <= 0) continue;  // cannot relieve constraint c
      queue.insert(v, checked_narrow<wgt_t>(
                      checked_sub(ed[to_size(v)], id[to_size(v)])));
    }

    bool progressed = false;
    real_t pot = balance.potential();
    while (!queue.empty() && !balance.feasible()) {
      const idx_t v = queue.pop_max();
      const real_t new_pot = balance.potential_after(v, from);
      if (new_pot >= pot - 1e-12) continue;  // move does not help overall
      // Commit: update where/balance; degrees of neighbors drift but the
      // queue's gain ordering stays a good heuristic within the round.
      where[to_size(v)] = 1 - from;
      balance.apply_move(v, from);
      pot = new_pot;
      progressed = true;
      // Once constraint c's heavy side flips, this round's queue no longer
      // targets the bottleneck; start a fresh round.
      if (balance.heavy_side(c) != from ||
          balance.worst_constraint() != c) {
        break;
      }
    }
    if (!progressed) break;
  }
  if (run.audit != nullptr && run.audit->boundaries()) {
    run.audit->check_bisection_weights(g, where, balance, "balance2way");
  }
  return balance.feasible();
}

}  // namespace mcgp
