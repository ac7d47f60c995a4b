// Binary max-heaps with real-valued keys.
//
// Used where gains are fractional (e.g. greedy graph growing scores that mix
// edge-cut gain with balance terms) and a bucket queue does not apply.
// IndexedMaxHeap supports O(log n) insert / remove / update by element id;
// KeyedMaxHeap is its insert-and-pop subset without the position index.
#pragma once

#include <cassert>
#include <vector>

#include "support/types.hpp"

namespace mcgp {

class IndexedMaxHeap {
 public:
  /// Prepare for elements with ids in [0, n). Clears contents.
  void reset(idx_t n) {
    pos_.assign(to_size(n), kNil);
    heap_.clear();
    keys_.resize(to_size(n));
  }

  /// Empty the heap in O(size), keeping the id range of the last reset.
  void clear() {
    for (const idx_t id : heap_) pos_[to_size(id)] = kNil;
    heap_.clear();
  }

  idx_t size() const { return static_cast<idx_t>(heap_.size()); }
  bool empty() const { return heap_.empty(); }
  bool contains(idx_t id) const { return pos_[to_size(id)] != kNil; }

  real_t key(idx_t id) const {
    assert(contains(id));
    return keys_[to_size(id)];
  }

  void insert(idx_t id, real_t key) {
    assert(!contains(id));
    keys_[to_size(id)] = key;
    pos_[to_size(id)] = static_cast<idx_t>(heap_.size());
    heap_.push_back(id);
    sift_up(heap_.size() - 1);
  }

  void update(idx_t id, real_t key) {
    assert(contains(id));
    const real_t old = keys_[to_size(id)];
    keys_[to_size(id)] = key;
    const auto p = to_size(pos_[to_size(id)]);
    if (key > old) {
      sift_up(p);
    } else if (key < old) {
      sift_down(p);
    }
  }

  void remove(idx_t id) {
    assert(contains(id));
    const auto p = to_size(pos_[to_size(id)]);
    swap_nodes(p, heap_.size() - 1);
    heap_.pop_back();
    pos_[to_size(id)] = kNil;
    if (p < heap_.size()) {
      // Re-heapify the element that replaced position p. If sift_up moves
      // it, the element left at p is a former ancestor that already
      // dominates this subtree, so the subsequent sift_down is a no-op.
      sift_up(p);
      sift_down(p);
    }
  }

  idx_t top() const {
    assert(!empty());
    return heap_[0];
  }

  real_t top_key() const {
    assert(!empty());
    return keys_[to_size(heap_[0])];
  }

  idx_t pop_max() {
    const idx_t id = top();
    remove(id);
    return id;
  }

 private:
  static constexpr idx_t kNil = -1;

  void swap_nodes(std::size_t a, std::size_t b) {
    if (a == b) return;
    std::swap(heap_[a], heap_[b]);
    pos_[to_size(heap_[a])] = static_cast<idx_t>(a);
    pos_[to_size(heap_[b])] = static_cast<idx_t>(b);
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (keys_[to_size(heap_[i])] <=
          keys_[to_size(heap_[parent])]) {
        break;
      }
      swap_nodes(i, parent);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && keys_[to_size(heap_[l])] >
                       keys_[to_size(heap_[best])]) {
        best = l;
      }
      if (r < n && keys_[to_size(heap_[r])] >
                       keys_[to_size(heap_[best])]) {
        best = r;
      }
      if (best == i) break;
      swap_nodes(i, best);
      i = best;
    }
  }

  std::vector<idx_t> heap_;  // heap order -> id
  std::vector<idx_t> pos_;   // id -> heap position or kNil
  std::vector<real_t> keys_;
};

/// A binary max-heap of (key, id) entries that only inserts and pops the
/// top, with IndexedMaxHeap's exact sift rules: the same inserts, pops and
/// clears give the same pop order, ties included. It keeps no position
/// index, so ids need no range and may repeat, and the keys sit inline
/// with the ids, so a sift reads one array.
class KeyedMaxHeap {
 public:
  void clear() { heap_.clear(); }
  idx_t size() const { return static_cast<idx_t>(heap_.size()); }
  bool empty() const { return heap_.empty(); }

  void insert(idx_t id, real_t key) {
    heap_.push_back({key, id});
    // IndexedMaxHeap::sift_up: rise while strictly above the parent.
    std::size_t i = heap_.size() - 1;
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (e.key <= heap_[parent].key) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  real_t top_key() const {
    assert(!empty());
    return heap_[0].key;
  }

  idx_t pop_max() {
    assert(!empty());
    const idx_t id = heap_[0].id;
    const Entry e = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return id;
    // IndexedMaxHeap::sift_down of the last entry moved to the root: take
    // the left child if strictly above it, then the right child if strictly
    // above that.
    std::size_t i = 0;
    for (;;) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t best = i;
      real_t best_key = e.key;
      if (l < n && heap_[l].key > best_key) {
        best = l;
        best_key = heap_[l].key;
      }
      if (r < n && heap_[r].key > best_key) best = r;
      if (best == i) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
    return id;
  }

 private:
  struct Entry {
    real_t key;
    idx_t id;
  };
  std::vector<Entry> heap_;
};

}  // namespace mcgp
