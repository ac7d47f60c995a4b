// Shared k-way refinement context: incrementally maintained part weights,
// vertex counts, per-part/per-constraint tolerance limits, a per-part
// member index, and sparse connectivity scratch.
//
// Extracted from the k-way refiner so every pass that mutates a k-way
// assignment — the colored sweep, the PQ pass, the balancer, and the
// greedy multi-constraint rebalancer (core/rebalance.hpp) — shares one
// bookkeeping implementation and therefore one definition of feasibility.
// The peak drain both balancers run, drain_peaks(), is declared here too.
#pragma once

#include <algorithm>
#include <vector>

#include "core/kway_refine.hpp"
#include "graph/csr_graph.hpp"
#include "graph/metrics.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace mcgp {

/// Sweep context over a mutable k-way assignment: part weights, vertex
/// counts, scratch connectivity. All mutation goes through move(), which
/// keeps the incremental state exact (audited via check_kway_state).
class KWayContext {
 public:
  KWayContext(const Graph& g, idx_t nparts, std::vector<idx_t>& where,
              const std::vector<real_t>& ub,
              const std::vector<real_t>* tpwgts)
      : g_(g), nparts_(nparts), where_(where), ub_(ub), tpwgts_(tpwgts) {
    conn_.assign(to_size(nparts), 0);
    touched_.reserve(64);
    limit_.resize(to_size(nparts) * to_size(g.ncon));
    floor_.resize(limit_.size());
    for (idx_t p = 0; p < nparts; ++p) {
      const real_t frac = tpwgts != nullptr
                              ? (*tpwgts)[to_size(p)]
                              : 1.0 / static_cast<real_t>(nparts);
      for (int i = 0; i < g.ncon; ++i) {
        limit_[to_size(p) * to_size(g.ncon) + to_size(i)] =
            g.tvwgt[to_size(i)] > 0
                ? ub[to_size(i)] * frac *
                      static_cast<real_t>(g.tvwgt[to_size(i)])
                : 1e300;
        floor_[to_size(p) * to_size(g.ncon) + to_size(i)] =
            limit_[to_size(p) * to_size(g.ncon) + to_size(i)] /
            (ub[to_size(i)] * ub[to_size(i)]);
      }
    }
    reload();
  }

  /// Recompute part weights and counts from the current assignment
  /// (after an external pass, e.g. kway_balance, mutated `where`). The
  /// member index is dropped and rebuilt on its next use.
  void reload() {
    pwgts_ = part_weights(g_, where_, nparts_);
    vcount_.assign(to_size(nparts_), 0);
    for (idx_t v = 0; v < g_.nvtxs; ++v) {
      ++vcount_[to_size(where_[to_size(v)])];
    }
    drop_members();
  }

  /// Free the member index; members() rebuilds it on its next use.
  void drop_members() {
    members_built_ = false;
    std::vector<std::vector<idx_t>>().swap(members_);
  }

  /// The vertices of part p, in ascending id order: exactly what a scan
  /// of all n vertices filtered by part would visit, at the cost of p's
  /// list. The index is built on first use (a counting sort by part, so
  /// each list starts ascending) and move() appends every arrival, so a
  /// list may hold vertices that have since left and duplicates of ones
  /// that came back; this call drops both and re-sorts p's list only.
  const std::vector<idx_t>& members(idx_t p) {
    if (!members_built_) build_members();
    compact_members(p);
    return members_[to_size(p)];
  }

  const Graph& graph() const { return g_; }
  idx_t nparts() const { return nparts_; }
  const std::vector<idx_t>& where() const { return where_; }
  const std::vector<sum_t>& pwgts() const { return pwgts_; }
  const std::vector<idx_t>& vcounts() const { return vcount_; }

  bool feasible() const {
    return kway_feasible(g_, pwgts_, nparts_, ub_, tpwgts_);
  }

  /// Tolerance limit of part p in constraint i (ub * frac * tvwgt).
  real_t limit(idx_t p, int i) const {
    return limit_[to_size(p) * to_size(g_.ncon) + to_size(i)];
  }

  /// Tolerance-relative load of part p: max_i pwgt/limit.
  real_t part_load(idx_t p) const {
    real_t l = 0.0;
    for (int i = 0; i < g_.ncon; ++i) {
      l = std::max(l, static_cast<real_t>(
                          pwgts_[to_size(p) * to_size(g_.ncon) + to_size(i)]) /
                          limit_[to_size(p) * to_size(g_.ncon) + to_size(i)]);
    }
    return l;
  }

  /// Overload of part p in constraint i (ratio above limit; <=1 is fine).
  real_t overload(idx_t p, int i) const {
    return static_cast<real_t>(pwgts_[to_size(p) * to_size(g_.ncon) + to_size(i)]) /
           limit_[to_size(p) * to_size(g_.ncon) + to_size(i)];
  }

  /// Global maximum tolerance-relative load (feasible iff <= 1).
  real_t max_overload() const {
    real_t mx = 0.0;
    for (idx_t p = 0; p < nparts_; ++p) {
      for (int i = 0; i < g_.ncon; ++i) mx = std::max(mx, overload(p, i));
    }
    return mx;
  }

  /// The first (part, constraint), parts outer, whose overload is the
  /// largest above 1 + 1e-12: the load a draining episode relieves.
  /// Returns false when no load exceeds that.
  bool overload_peak(idx_t& q, int& c) const {
    q = -1;
    c = 0;
    real_t peak = 1.0 + 1e-12;
    for (idx_t p = 0; p < nparts_; ++p) {
      for (int i = 0; i < g_.ncon; ++i) {
        const real_t l = overload(p, i);
        if (l > peak) {
          peak = l;
          q = p;
          c = i;
        }
      }
    }
    return q >= 0;
  }

  /// The progress measure of the draining episode loop: the peak
  /// overload and how many (part, constraint) loads lie within 1e-9 of
  /// it. Several loads can tie at the peak, so the peak alone is not the
  /// right measure.
  struct PeakState {
    real_t peak = 0.0;
    idx_t at_peak = 0;
    /// Lexicographic progress: a peak lower by more than 1e-12, or fewer
    /// loads at it.
    bool improves_on(const PeakState& prev) const {
      return peak < prev.peak - 1e-12 || at_peak < prev.at_peak;
    }
  };

  PeakState peak_state() const {
    const real_t peak = max_overload();
    idx_t at_peak = 0;
    for (idx_t p = 0; p < nparts_; ++p) {
      for (int i = 0; i < g_.ncon; ++i) {
        if (overload(p, i) > peak - 1e-9) ++at_peak;
      }
    }
    return {peak, at_peak};
  }

  /// Load of part p in constraint i after hypothetically adding `extra`.
  real_t load_with(idx_t p, int i, wgt_t extra) const {
    return static_cast<real_t>(checked_add(
               pwgts_[to_size(p) * to_size(g_.ncon) + to_size(i)], extra)) /
           limit_[to_size(p) * to_size(g_.ncon) + to_size(i)];
  }

  /// Post-move tolerance-relative load of part p if it received vertex v.
  real_t load_after(idx_t v, idx_t p) const {
    real_t l = 0.0;
    const wgt_t* w = g_.weights(v);
    for (int i = 0; i < g_.ncon; ++i) {
      l = std::max(l, load_with(p, i, w[i]));
    }
    return l;
  }

  bool fits(idx_t v, idx_t p) const {
    const wgt_t* w = g_.weights(v);
    for (int i = 0; i < g_.ncon; ++i) {
      if (static_cast<real_t>(checked_add(
              pwgts_[to_size(p) * to_size(g_.ncon) + to_size(i)], w[i])) >
          limit_[to_size(p) * to_size(g_.ncon) + to_size(i)] + 1e-9) {
        return false;
      }
    }
    return true;
  }

  /// Whether v's part keeps its floor once v leaves it: some constraint
  /// stays at or above the part's target weight divided by the tolerance
  /// (limit / ub^2, the lower limit METIS's k-way refinement keeps). So a
  /// search free to take losing moves cannot shrink a part below its
  /// target in every constraint to shorten its boundary, while a part
  /// full in one constraint and light in another can still give.
  bool keeps_floor(idx_t v) const {
    const std::size_t base = to_size(where_[to_size(v)]) * to_size(g_.ncon);
    const wgt_t* w = g_.weights(v);
    bool any = false;
    for (int i = 0; i < g_.ncon; ++i) {
      if (g_.tvwgt[to_size(i)] <= 0) continue;
      any = true;
      if (static_cast<real_t>(checked_sub(pwgts_[base + to_size(i)], w[i])) >=
          floor_[base + to_size(i)] - 1e-9) {
        return true;
      }
    }
    return !any;
  }

  /// Gather the edge weight from v to each touched part. Returns the
  /// weight to v's own part; touched() lists the OTHER parts seen.
  sum_t gather_connectivity(idx_t v) {
    return gather_connectivity_into(v, conn_, touched_);
  }

  /// As gather_connectivity, but into caller-owned scratch (size >= nparts,
  /// zero except the parts listed in `touched` — the same sparse-reset
  /// discipline as the member buffers). Const: concurrent propose tasks
  /// read the frozen context while each gathers into its own buffers.
  sum_t gather_connectivity_into(idx_t v, std::vector<sum_t>& conn,
                                 std::vector<idx_t>& touched) const {
    for (const idx_t p : touched) conn[to_size(p)] = 0;
    touched.clear();
    const idx_t own = where_[to_size(v)];
    sum_t idw = 0;
    for (idx_t e = g_.xadj[to_size(v)]; e < g_.xadj[to_size(v + 1)]; ++e) {
      const idx_t p = where_[to_size(g_.adjncy[to_size(e)])];
      if (p == own) {
        idw = checked_add(idw, g_.adjwgt[to_size(e)]);
      } else {
        if (conn[to_size(p)] == 0) touched.push_back(p);
        conn[to_size(p)] = checked_add(conn[to_size(p)], g_.adjwgt[to_size(e)]);
      }
    }
    return idw;
  }

  const std::vector<idx_t>& touched() const { return touched_; }
  sum_t conn(idx_t p) const { return conn_[to_size(p)]; }

  /// Never empty a part (keeps every subdomain populated).
  bool can_leave(idx_t p) const { return vcount_[to_size(p)] > 1; }

  void move(idx_t v, idx_t to) {
    const idx_t from = where_[to_size(v)];
    where_[to_size(v)] = to;
    --vcount_[to_size(from)];
    ++vcount_[to_size(to)];
    if (members_built_) {
      // Compacting a list once it holds twice its part's vertices keeps
      // the index O(n) however many moves the context sees.
      std::vector<idx_t>& list = members_[to_size(to)];
      list.push_back(v);
      if (list.size() > 2 * to_size(vcount_[to_size(to)]) + 64) {
        compact_members(to);
      }
    }
    const wgt_t* w = g_.weights(v);
    for (int i = 0; i < g_.ncon; ++i) {
      sum_t& fs = pwgts_[to_size(from) * to_size(g_.ncon) + to_size(i)];
      sum_t& ts = pwgts_[to_size(to) * to_size(g_.ncon) + to_size(i)];
      fs = checked_sub(fs, w[i]);
      ts = checked_add(ts, w[i]);
    }
  }

  std::vector<idx_t> boundary(Rng& rng) const {
    std::vector<idx_t> b;
    for (idx_t v = 0; v < g_.nvtxs; ++v) {
      const idx_t pv = where_[to_size(v)];
      for (idx_t e = g_.xadj[to_size(v)]; e < g_.xadj[to_size(v + 1)]; ++e) {
        if (where_[to_size(g_.adjncy[to_size(e)])] != pv) {
          b.push_back(v);
          break;
        }
      }
    }
    shuffle(b, rng);
    return b;
  }

 private:
  /// Drop the entries of part p's list that left it and the duplicates.
  void compact_members(idx_t p) {
    std::vector<idx_t>& list = members_[to_size(p)];
    std::erase_if(list, [&](idx_t v) { return where_[to_size(v)] != p; });
    // The list is ascending up to the first arrival since the last
    // compaction: sort only the arrivals and merge them in.
    const auto tail = std::is_sorted_until(list.begin(), list.end());
    std::sort(tail, list.end());
    std::inplace_merge(list.begin(), tail, list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  void build_members() {
    members_.resize(to_size(nparts_));
    for (idx_t p = 0; p < nparts_; ++p) {
      members_[to_size(p)].clear();
      members_[to_size(p)].reserve(to_size(vcount_[to_size(p)]));
    }
    for (idx_t v = 0; v < g_.nvtxs; ++v) {
      members_[to_size(where_[to_size(v)])].push_back(v);
    }
    members_built_ = true;
  }

  const Graph& g_;
  idx_t nparts_;
  std::vector<idx_t>& where_;
  const std::vector<real_t>& ub_;
  const std::vector<real_t>* tpwgts_;
  std::vector<sum_t> pwgts_;
  std::vector<idx_t> vcount_;
  std::vector<sum_t> conn_;
  std::vector<idx_t> touched_;
  std::vector<real_t> limit_;
  std::vector<real_t> floor_;  ///< limit_ / ub^2, the keeps_floor bound
  /// members_[p]: every vertex of part p, plus stale entries (see
  /// members()). Valid only while members_built_; move() is its only
  /// writer besides the rebuild and compaction.
  std::vector<std::vector<idx_t>> members_;
  bool members_built_ = false;
};

/// What one drain_peaks() call did.
struct DrainStats {
  sum_t moves = 0;
  int episodes = 0;  ///< episodes that committed a move
  /// Live members of the drained parts examined (Σ|drained part|).
  sum_t scanned = 0;
  /// Why the episode loop ended: "feasible" (no load above 1 + 1e-12),
  /// "move_cap", "no_moves", "no_progress" or "episode_cap".
  const char* stop = "episode_cap";
};

/// The one peak-draining balancer, shared by kway_balance and the rebalancer's
/// descent and kicks: greedy gain-to-relief episodes (Maas et al.). Each
/// episode takes the overload_peak() (part q, constraint c), fills a max-heap
/// with q's members that weigh in c, keyed by cut gain per unit of c removed (a
/// KeyedMaxHeap: IndexedMaxHeap's pop order, ties included, without its
/// position index), and pops them (a key gone stale is requeued once) into the
/// best admissible destination among v's adjacent parts and the globally
/// lightest part: one v fits outright, or else one whose post-move load stays
/// strictly below the global peak; among those, fits > cut gain > lower
/// post-move load > smaller id. An episode ends when c of q is within
/// tolerance, q can spare no vertex, or the heap runs dry. The loop ends when
/// no load is above 1, an episode moves nothing or fails to improve the
/// PeakState, or a cap (16·ncon·nparts episodes, 8n moves) is reached.
/// Candidates come from the member index, so an episode costs what q costs, not
/// n, and their keys from a per-vertex ed - id cache the drain's moves keep
/// exact, so keying a member gathers nothing. Draws no random numbers. Of `run`
/// only the auditor is read: at paranoid it checks that cache against a
/// recompute after every episode. Defined in kway_refine.cpp.
DrainStats drain_peaks(KWayContext& ctx, const RunContext& run = {});

}  // namespace mcgp
