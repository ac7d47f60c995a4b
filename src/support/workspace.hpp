// Reusable scratch buffers for the multilevel pipeline.
//
// Every level of coarsening and every recursive-bisection split used to
// allocate its own permutation / dense-map / selection vectors; a
// Workspace owns those buffers once and the pipeline reuses them down the
// hierarchy, turning per-level allocations into amortized O(1) capacity
// reuse. The dense maps (`pos`, `global_to_local`) follow the classic
// sparse-reset discipline: they are all -1 between uses and every user
// restores the entries it touched, so growing them is the only cost ever
// paid.
//
// A Workspace is single-threaded state. Concurrent tasks each acquire
// their own from a WorkspacePool (mutex-guarded free list, grows on
// demand); the pool hands a buffer to one task at a time, so workspace
// contents never cross threads. Workspace reuse is invisible to results —
// buffers carry no information between uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/thread_annotations.hpp"
#include "support/types.hpp"

namespace mcgp {

/// Row storage of contract_graph's chunked row builder: `capacity`
/// entries per array, left uninitialized, so only the pages the chunks
/// write ever become resident.
struct RowBuffer {
  std::unique_ptr<idx_t[]> adj;
  std::unique_ptr<wgt_t[]> wgt;
  std::size_t capacity = 0;

  /// Grow to at least n entries; the contents are not kept.
  void reserve(std::size_t n) {
    if (capacity >= n) return;
    adj.reset();
    wgt.reset();
    adj = std::make_unique_for_overwrite<idx_t[]>(n);
    wgt = std::make_unique_for_overwrite<wgt_t[]>(n);
    capacity = n;
  }
};

struct Workspace {
  std::vector<idx_t> perm;    ///< matching visit order / active list
  std::vector<idx_t> match;   ///< matching scratch of coarsen_graph
  std::vector<idx_t> first;   ///< constituent lists of contract_graph
  std::vector<idx_t> second;
  std::vector<char> select;   ///< side mask of the RB driver
  std::vector<idx_t> proj;    ///< uncoarsening projection ping-pong buffer
  std::vector<idx_t> proposal;  ///< handshake-matching proposal slots
  std::vector<sum_t> kconn;     ///< per-task k-way connectivity scratch
  std::vector<idx_t> ktouched;  ///< parts touched by the kconn gather
  /// Bounded-offset rows of contract_graph. Sized by a hierarchy's first
  /// (largest) chunked level; coarsen_graph releases it once the
  /// hierarchy is built, so it never outlives the coarsening.
  RowBuffer rows;

  /// Dense coarse-neighbor position map (contract_graph). All -1 between
  /// uses; users restore the entries they touch.
  std::vector<idx_t>& pos_map(std::size_t n) {
    if (pos_.size() < n) pos_.resize(n, idx_t{-1});
    return pos_;
  }

  /// Dense global-to-local vertex map (induced_subgraph). Same all--1
  /// discipline as pos_map().
  std::vector<idx_t>& g2l_map(std::size_t n) {
    if (g2l_.size() < n) g2l_.resize(n, idx_t{-1});
    return g2l_;
  }

  /// Bytes of scratch capacity this workspace currently holds (telemetry;
  /// only meaningful while no task is mutating the workspace).
  std::int64_t footprint_bytes() const {
    const std::size_t b = perm.capacity() * sizeof(idx_t) +
                          match.capacity() * sizeof(idx_t) +
                          first.capacity() * sizeof(idx_t) +
                          second.capacity() * sizeof(idx_t) +
                          select.capacity() * sizeof(char) +
                          proj.capacity() * sizeof(idx_t) +
                          proposal.capacity() * sizeof(idx_t) +
                          kconn.capacity() * sizeof(sum_t) +
                          ktouched.capacity() * sizeof(idx_t) +
                          rows.capacity * (sizeof(idx_t) + sizeof(wgt_t)) +
                          pos_.capacity() * sizeof(idx_t) +
                          g2l_.capacity() * sizeof(idx_t);
    return static_cast<std::int64_t>(b);
  }

 private:
  friend class WorkspacePool;

  std::vector<idx_t> pos_;
  std::vector<idx_t> g2l_;
  /// This workspace's footprint as last accounted by its WorkspacePool
  /// (updated on every lease return; pool bookkeeping only).
  std::int64_t pool_noted_bytes_ = 0;
};

/// Thread-safe grow-on-demand pool of Workspaces. Acquire returns an RAII
/// lease that returns the workspace to the free list on destruction.
class WorkspacePool {
 public:
  class Lease {
   public:
    Lease(WorkspacePool* pool, Workspace* ws) : pool_(pool), ws_(ws) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->release(ws_);
    }

    Lease(Lease&& o) noexcept : pool_(o.pool_), ws_(o.ws_) {
      o.pool_ = nullptr;
      o.ws_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    Workspace& operator*() const { return *ws_; }
    Workspace* operator->() const { return ws_; }
    Workspace* get() const { return ws_; }

   private:
    WorkspacePool* pool_;
    Workspace* ws_;
  };

  Lease acquire() {
    MutexLock lk(mu_);
    if (free_.empty()) {
      owned_.push_back(std::make_unique<Workspace>());
      free_.push_back(owned_.back().get());
    }
    Workspace* ws = free_.back();
    free_.pop_back();
    return Lease(this, ws);
  }

  /// Number of workspaces ever created by this pool.
  std::int64_t size() const {
    MutexLock lk(mu_);
    return static_cast<std::int64_t>(owned_.size());
  }

  /// Total scratch capacity across all pooled workspaces (telemetry).
  /// Accounted at lease-return time: every release() folds the returning
  /// workspace's footprint into a running total, so the value is accurate
  /// for every workspace that has ever been returned — including while
  /// OTHER leases (e.g. parallel matching / contraction chunk tasks) are
  /// still out, which are counted at their last-returned size.
  std::int64_t footprint_bytes() const {
    MutexLock lk(mu_);
    return footprint_;
  }

 private:
  friend class Lease;

  void release(Workspace* ws) {
    // Reading the workspace outside the lock is safe: until the lease is
    // handed back below, the releasing thread still owns it exclusively.
    const std::int64_t fp = ws->footprint_bytes();
    MutexLock lk(mu_);
    footprint_ += fp - ws->pool_noted_bytes_;
    ws->pool_noted_bytes_ = fp;
    free_.push_back(ws);
  }

  mutable Mutex mu_;
  std::vector<std::unique_ptr<Workspace>> owned_ MCGP_GUARDED_BY(mu_);
  std::vector<Workspace*> free_ MCGP_GUARDED_BY(mu_);
  std::int64_t footprint_ MCGP_GUARDED_BY(mu_) = 0;
};

}  // namespace mcgp
