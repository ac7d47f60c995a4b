// Gain-bucket priority queues for FM/KL-style refinement.
//
// Classic Fiduccia–Mattheyses data structure: vertices keyed by an integer
// gain, stored in doubly linked lists (one per distinct gain value) over
// preallocated node storage, with a moving "max gain" pointer. All core
// operations are O(1); pop-max is amortized O(1) over a refinement pass.
//
// One object holds `nqueues` independent queues over a single set of
// per-element nodes (next, prev, key and an owner tag naming the queue that
// holds the element). This works for any caller whose elements sit in at
// most one queue at a time, such as the multi-constraint FM with its 2m
// queues: the node storage is O(n) however many queues there are. Each
// queue keeps its own bucket array, so queues never see each other's
// elements and behave exactly as separate single queues would. The
// single-queue interface is the same calls with the queue index left at 0.
//
// The gain range grows on demand (the structure rebuilds a queue's bucket
// array when a key outside its current range is inserted), so callers do
// not need to bound gains a priori even on coarse graphs with large edge
// weights.
#pragma once

#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace mcgp {

class BucketQueue {
 public:
  BucketQueue() = default;

  /// Prepare `nqueues` empty queues for elements with ids in [0, n).
  /// `expected_max_gain` sizes each queue's initial bucket array (it may
  /// grow later).
  void reset(idx_t n, wgt_t expected_max_gain = 64, int nqueues = 1);

  /// Empty every queue, keeping the id range and queue count of the last
  /// reset() and restoring each queue's initial bucket range: afterwards
  /// the object behaves exactly as after that reset(). Costs O(queued +
  /// bucket ranges), not O(n), so a caller running many passes over one id
  /// range resets once.
  void clear();

  /// clear() restricted to queue q; the other queues are untouched.
  void clear(int q);

  int num_queues() const { return static_cast<int>(lists_.size()); }

  /// Number of elements currently in queue q.
  idx_t size(int q = 0) const { return lists_[to_size(q)].count; }
  bool empty(int q = 0) const { return size(q) == 0; }

  /// True if element id is currently in queue q.
  bool contains(idx_t id, int q = 0) const {
    return owner_[to_size(id)] == q;
  }

  /// The queue holding element id, or -1 if it is in none.
  int owner(idx_t id) const { return owner_[to_size(id)]; }

  /// Current key of a queued element. Precondition: owner(id) >= 0.
  wgt_t key(idx_t id) const { return keys_[to_size(id)]; }

  /// Insert element with the given gain into queue q.
  /// Precondition: owner(id) < 0.
  void insert(idx_t id, wgt_t gain, int q = 0);

  /// Remove a queued element from the queue holding it.
  /// Precondition: owner(id) >= 0.
  void remove(idx_t id);

  /// Change the key of a queued element within its queue.
  /// Precondition: owner(id) >= 0.
  void update(idx_t id, wgt_t new_gain);

  /// Maximum key among the elements of queue q. Precondition: !empty(q).
  wgt_t max_key(int q = 0);

  /// Remove and return an element of queue q with maximum key.
  /// Precondition: !empty(q).
  idx_t pop_max(int q = 0);

 private:
  /// One queue's buckets: heads[g + offset] is the list for gain g.
  struct Buckets {
    std::vector<idx_t> heads;
    long long offset = 0;
    long long max_bucket = -1;  // highest non-empty bucket, -1 if none
    idx_t count = 0;

    std::size_t of(wgt_t gain) const {
      return to_size(static_cast<long long>(gain) + offset);
    }
  };

  void grow_range(Buckets& b, wgt_t gain);
  void unlink(idx_t id);
  void link(idx_t id, wgt_t gain);
  void top(Buckets& b);

  static constexpr idx_t kNil = -1;
  static constexpr std::int16_t kNone = -1;

  // Per-element intrusive list nodes, shared by every queue.
  std::vector<idx_t> next_;
  std::vector<idx_t> prev_;
  std::vector<wgt_t> keys_;
  std::vector<std::int16_t> owner_;

  std::vector<Buckets> lists_;
  long long initial_span_ = 0;  // bucket count per queue set by reset()
};

}  // namespace mcgp
