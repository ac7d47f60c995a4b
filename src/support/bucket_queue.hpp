// Gain-bucket priority queue for FM/KL-style refinement.
//
// Classic Fiduccia–Mattheyses data structure: vertices keyed by an integer
// gain, stored in doubly linked lists (one per distinct gain value) over
// preallocated node storage, with a moving "max gain" pointer. All core
// operations are O(1); pop-max is amortized O(1) over a refinement pass.
//
// The gain range grows on demand (the structure rebuilds its bucket array
// when a key outside the current range is inserted), so callers do not need
// to bound gains a priori even on coarse graphs with large edge weights.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace mcgp {

class BucketQueue {
 public:
  BucketQueue() = default;

  /// Prepare for elements with ids in [0, n). Clears contents.
  /// `expected_max_gain` sizes the initial bucket array (it may grow later).
  void reset(idx_t n, wgt_t expected_max_gain = 64);

  /// Empty the queue, keeping the id range of the last reset() and
  /// restoring its initial bucket range: afterwards the queue behaves
  /// exactly as after that reset(). Costs O(queued + bucket range), not
  /// O(n), so a caller running many passes over one id range resets once.
  void clear();

  /// Number of elements currently queued.
  idx_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// True if element id is currently in the queue.
  bool contains(idx_t id) const { return in_queue_[to_size(id)]; }

  /// Current key of a queued element. Precondition: contains(id).
  wgt_t key(idx_t id) const {
    return keys_[to_size(id)];
  }

  /// Insert element with the given gain. Precondition: !contains(id).
  void insert(idx_t id, wgt_t gain);

  /// Remove a queued element. Precondition: contains(id).
  void remove(idx_t id);

  /// Change the key of a queued element. Precondition: contains(id).
  void update(idx_t id, wgt_t new_gain);

  /// Maximum key among queued elements. Precondition: !empty().
  wgt_t max_key();

  /// Remove and return an element with maximum key. Precondition: !empty().
  idx_t pop_max();

 private:
  std::size_t bucket_of(wgt_t gain) const {
    return to_size(static_cast<long long>(gain) + offset_);
  }
  void grow_range(wgt_t gain);
  void unlink(idx_t id);
  void link(idx_t id, wgt_t gain);

  static constexpr idx_t kNil = -1;

  // Per-element intrusive list nodes.
  std::vector<idx_t> next_;
  std::vector<idx_t> prev_;
  std::vector<wgt_t> keys_;
  std::vector<char> in_queue_;

  // buckets_[g + offset_] is the head of the list for gain g.
  std::vector<idx_t> buckets_;
  long long offset_ = 0;
  long long initial_span_ = 0;  // bucket count set by the last reset()
  long long max_bucket_ = -1;  // index of highest non-empty bucket, -1 if none
  idx_t count_ = 0;
};

}  // namespace mcgp
