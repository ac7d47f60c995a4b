#include "support/indexed_heap.hpp"

#include <gtest/gtest.h>

#include <map>

#include "support/random.hpp"

namespace mcgp {
namespace {

TEST(IndexedMaxHeap, EmptyAfterReset) {
  IndexedMaxHeap h;
  h.reset(5);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0);
  EXPECT_FALSE(h.contains(3));
}

TEST(IndexedMaxHeap, SingleElement) {
  IndexedMaxHeap h;
  h.reset(3);
  h.insert(1, 2.5);
  EXPECT_TRUE(h.contains(1));
  EXPECT_DOUBLE_EQ(h.key(1), 2.5);
  EXPECT_EQ(h.top(), 1);
  EXPECT_DOUBLE_EQ(h.top_key(), 2.5);
  EXPECT_EQ(h.pop_max(), 1);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedMaxHeap, PopsDescending) {
  IndexedMaxHeap h;
  h.reset(6);
  const double keys[] = {0.5, -1.0, 3.0, 2.0, 3.0, 0.0};
  for (idx_t i = 0; i < 6; ++i) h.insert(i, keys[i]);
  double last = 1e300;
  while (!h.empty()) {
    EXPECT_LE(h.top_key(), last);
    last = h.top_key();
    h.pop_max();
  }
}

TEST(IndexedMaxHeap, UpdateUp) {
  IndexedMaxHeap h;
  h.reset(3);
  h.insert(0, 1.0);
  h.insert(1, 2.0);
  h.insert(2, 3.0);
  h.update(0, 10.0);
  EXPECT_EQ(h.pop_max(), 0);
}

TEST(IndexedMaxHeap, UpdateDown) {
  IndexedMaxHeap h;
  h.reset(3);
  h.insert(0, 5.0);
  h.insert(1, 2.0);
  h.insert(2, 3.0);
  h.update(0, -1.0);
  EXPECT_EQ(h.pop_max(), 2);
  EXPECT_EQ(h.pop_max(), 1);
  EXPECT_EQ(h.pop_max(), 0);
}

TEST(IndexedMaxHeap, RemoveArbitrary) {
  IndexedMaxHeap h;
  h.reset(5);
  for (idx_t i = 0; i < 5; ++i) h.insert(i, static_cast<real_t>(i));
  h.remove(2);
  EXPECT_FALSE(h.contains(2));
  EXPECT_EQ(h.pop_max(), 4);
  EXPECT_EQ(h.pop_max(), 3);
  EXPECT_EQ(h.pop_max(), 1);
  EXPECT_EQ(h.pop_max(), 0);
}

TEST(IndexedMaxHeap, ReinsertAfterRemove) {
  IndexedMaxHeap h;
  h.reset(2);
  h.insert(0, 1.0);
  h.remove(0);
  h.insert(0, 2.0);
  EXPECT_DOUBLE_EQ(h.key(0), 2.0);
  EXPECT_EQ(h.pop_max(), 0);
}

TEST(IndexedMaxHeap, StressAgainstReference) {
  constexpr idx_t kN = 150;
  IndexedMaxHeap h;
  h.reset(kN);
  std::map<idx_t, real_t> ref;
  Rng rng(123);

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.next_below(4));
    const idx_t id = static_cast<idx_t>(rng.next_below(kN));
    const real_t key = rng.next_real() * 100 - 50;
    if (op == 0) {
      if (!ref.count(id)) {
        ref[id] = key;
        h.insert(id, key);
      }
    } else if (op == 1) {
      if (ref.count(id)) {
        ref.erase(id);
        h.remove(id);
      }
    } else if (op == 2) {
      if (ref.count(id)) {
        ref[id] = key;
        h.update(id, key);
      }
    } else if (!ref.empty()) {
      real_t expect = -1e300;
      for (const auto& [i, k] : ref) expect = std::max(expect, k);
      ASSERT_DOUBLE_EQ(h.top_key(), expect);
      const idx_t popped = h.pop_max();
      ASSERT_DOUBLE_EQ(ref[popped], expect);
      ref.erase(popped);
    }
    ASSERT_EQ(h.size(), static_cast<idx_t>(ref.size()));
  }
}

TEST(KeyedMaxHeap, PopsInIndexedMaxHeapOrderUnderHeavyTies) {
  // The peak drain's use: fill, pop, requeue a popped id with a new key,
  // clear between episodes. Keys come from five values, so most pops
  // choose among equal keys, and the tie order must match exactly.
  constexpr idx_t kN = 200;
  constexpr real_t kKeys[] = {-1.0, 0.0, 0.5, 0.5 + 1e-13, 2.0};
  IndexedMaxHeap ref;
  ref.reset(kN);
  KeyedMaxHeap heap;
  Rng rng(2024);
  int pops = 0;
  int requeues = 0;
  int clears = 0;
  for (int step = 0; step < 50000; ++step) {
    const auto op = rng.next_below(16);
    const real_t key = kKeys[rng.next_below(5)];
    if (op < 7) {
      const auto id = static_cast<idx_t>(rng.next_below(kN));
      if (ref.contains(id)) continue;
      ref.insert(id, key);
      heap.insert(id, key);
    } else if (op < 15 && !ref.empty()) {
      ASSERT_EQ(heap.top_key(), ref.top_key());
      const idx_t id = ref.pop_max();
      ASSERT_EQ(heap.pop_max(), id) << "step " << step;
      ++pops;
      if (op >= 12) {  // requeue the popped id
        ref.insert(id, key);
        heap.insert(id, key);
        ++requeues;
      }
    } else if (op == 15) {
      ref.clear();
      heap.clear();
      ++clears;
    }
    ASSERT_EQ(heap.size(), ref.size());
  }
  while (!ref.empty()) ASSERT_EQ(heap.pop_max(), ref.pop_max());
  EXPECT_TRUE(heap.empty());
  EXPECT_GT(pops, 10000);
  EXPECT_GT(requeues, 1000);
  EXPECT_GT(clears, 100);
}

}  // namespace
}  // namespace mcgp
