// Maintained k-way boundary: every vertex's internal and external weighted
// degree, and per vertex class the boundary vertices that could move, kept
// exact across moves.
//
// The colored k-way sweep (core/kway_refine.cpp) takes its candidates from
// here instead of rescanning all n vertices every pass. A boundary vertex
// whose external degree is below its internal one is never a candidate: its
// connectivity to any single part is at most its external degree, so every
// move it has loses cut, and the sweep would propose nothing for it anyway.
// The same holds for a listed vertex whose connectivity to every single
// part is below its internal degree; the sweep marks such a vertex dead
// when it finds one, and the mark lasts until v or a neighbor moves.
// Keeping the degrees, lists and marks costs O(deg v) per committed move.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "support/check.hpp"

namespace mcgp {

class ThreadPool;

class KWayBoundary {
 public:
  /// Degrees and candidate lists of the assignment `where`, which moved()
  /// reads again later. `color` puts every vertex in a class numbered from
  /// 0; the sweep passes its vertex coloring. Both vectors must outlive
  /// this object. The degree scan runs in fixed-size chunks on `pool` when
  /// it is non-null; the result does not depend on the pool.
  KWayBoundary(const Graph& g, const std::vector<idx_t>& where,
               const std::vector<idx_t>& color, ThreadPool* pool = nullptr);

  /// Weight of v's edges into its own part.
  sum_t internal_degree(idx_t v) const { return id_[to_size(v)]; }
  /// Weight of v's edges into other parts.
  sum_t external_degree(idx_t v) const { return ed_[to_size(v)]; }
  /// Number of v's edges into other parts. A vertex is on the boundary iff
  /// this is positive; it is counted apart from the weight so that
  /// zero-weight edges still put a vertex on the boundary.
  idx_t external_edges(idx_t v) const { return next_[to_size(v)]; }

  idx_t ncolors() const { return static_cast<idx_t>(movable_.size()); }
  idx_t color(idx_t v) const { return color_[to_size(v)]; }
  /// Boundary vertices of class c whose external degree is at least their
  /// internal degree: every vertex of the class with a move of non-negative
  /// gain, if edge weights are non-negative. The order depends only on the
  /// sequence of moves.
  const std::vector<idx_t>& movable(idx_t c) const {
    return movable_[to_size(c)];
  }
  /// Index of v in movable(color(v)), or -1 when v is not listed.
  idx_t position(idx_t v) const { return pos_[to_size(v)]; }

  /// Starts a pass: was_on_boundary() answers for this moment from now on.
  void begin_pass() { ++pass_; }
  /// Whether v was on the boundary when begin_pass() was last called.
  bool was_on_boundary(idx_t v) const {
    return stamp_[to_size(v)] == pass_ ? start_bnd_[to_size(v)] != 0
                                       : next_[to_size(v)] > 0;
  }

  /// Whether v is marked dead: when its move was last evaluated, no part
  /// had connectivity reaching its internal degree, so it has no move of
  /// non-negative gain whatever the part loads are, and it keeps none
  /// until v or a neighbor moves. moved() clears the mark on both.
  bool dead(idx_t v) const { return dead_[to_size(v)] != 0; }
  /// Mark v dead (see dead()). Writes only v's slot, so concurrent calls
  /// for distinct vertices do not race.
  void mark_dead(idx_t v) { dead_[to_size(v)] = 1; }

  /// Update after v was moved out of part `from` (where[v] already holds
  /// its new part). O(deg v).
  void moved(idx_t v, idx_t from);

 private:
  /// Re-list u after its degrees changed; `was_bnd` is whether it was on
  /// the boundary before the change.
  void refresh(idx_t u, bool was_bnd);

  const Graph& g_;
  const std::vector<idx_t>& where_;
  const std::vector<idx_t>& color_;
  std::vector<sum_t> id_;
  std::vector<sum_t> ed_;
  std::vector<idx_t> next_;
  std::vector<std::vector<idx_t>> movable_;
  std::vector<idx_t> pos_;
  /// Pass of v's first boundary change since begin_pass(), and whether v
  /// was on the boundary before it.
  std::vector<idx_t> stamp_;
  std::vector<char> start_bnd_;
  std::vector<char> dead_;
  idx_t pass_ = 0;
};

}  // namespace mcgp
