#include "support/bucket_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "support/random.hpp"

namespace mcgp {
namespace {

TEST(BucketQueue, EmptyAfterReset) {
  BucketQueue q;
  q.reset(10);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0);
  EXPECT_FALSE(q.contains(0));
}

TEST(BucketQueue, InsertPopSingle) {
  BucketQueue q;
  q.reset(4);
  q.insert(2, 7);
  EXPECT_TRUE(q.contains(2));
  EXPECT_EQ(q.size(), 1);
  EXPECT_EQ(q.max_key(), 7);
  EXPECT_EQ(q.pop_max(), 2);
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueue, PopsInDescendingKeyOrder) {
  BucketQueue q;
  q.reset(5);
  q.insert(0, -3);
  q.insert(1, 10);
  q.insert(2, 0);
  q.insert(3, 10);
  q.insert(4, 5);
  wgt_t last = 1000;
  while (!q.empty()) {
    const wgt_t k = q.max_key();
    EXPECT_LE(k, last);
    last = k;
    q.pop_max();
  }
}

TEST(BucketQueue, RemoveMiddle) {
  BucketQueue q;
  q.reset(3);
  q.insert(0, 1);
  q.insert(1, 2);
  q.insert(2, 3);
  q.remove(1);
  EXPECT_FALSE(q.contains(1));
  EXPECT_EQ(q.pop_max(), 2);
  EXPECT_EQ(q.pop_max(), 0);
}

TEST(BucketQueue, UpdateChangesOrder) {
  BucketQueue q;
  q.reset(2);
  q.insert(0, 1);
  q.insert(1, 2);
  q.update(0, 5);
  EXPECT_EQ(q.key(0), 5);
  EXPECT_EQ(q.pop_max(), 0);
}

TEST(BucketQueue, UpdateSameKeyIsNoop) {
  BucketQueue q;
  q.reset(2);
  q.insert(0, 3);
  q.update(0, 3);
  EXPECT_EQ(q.key(0), 3);
  EXPECT_EQ(q.pop_max(), 0);
}

TEST(BucketQueue, GrowsRangeOnDemand) {
  BucketQueue q;
  q.reset(4, /*expected_max_gain=*/2);
  q.insert(0, 1000000);
  q.insert(1, -1000000);
  q.insert(2, 0);
  EXPECT_EQ(q.pop_max(), 0);
  EXPECT_EQ(q.pop_max(), 2);
  EXPECT_EQ(q.pop_max(), 1);
}

TEST(BucketQueue, TiesPopLifoWithinBucket) {
  BucketQueue q;
  q.reset(3);
  q.insert(0, 5);
  q.insert(1, 5);
  q.insert(2, 5);
  // Intrusive head insertion: most recently inserted pops first.
  EXPECT_EQ(q.pop_max(), 2);
  EXPECT_EQ(q.pop_max(), 1);
  EXPECT_EQ(q.pop_max(), 0);
}

TEST(BucketQueue, ResetClearsState) {
  BucketQueue q;
  q.reset(3);
  q.insert(0, 1);
  q.reset(3);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.contains(0));
  q.insert(0, 2);
  EXPECT_EQ(q.key(0), 2);
}

/// Randomized stress test against a reference implementation.
TEST(BucketQueue, StressAgainstReference) {
  constexpr idx_t kN = 200;
  BucketQueue q;
  q.reset(kN);
  // Reference: key per id plus an ordered multiset of (key, id).
  std::map<idx_t, wgt_t> ref;
  Rng rng(99);

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.next_below(4));
    const idx_t id = static_cast<idx_t>(rng.next_below(kN));
    const wgt_t key = static_cast<wgt_t>(rng.next_in(-50, 50));
    if (op == 0) {  // insert
      if (ref.find(id) == ref.end()) {
        ref[id] = key;
        q.insert(id, key);
      }
    } else if (op == 1) {  // remove
      if (ref.find(id) != ref.end()) {
        ref.erase(id);
        q.remove(id);
      }
    } else if (op == 2) {  // update
      if (ref.find(id) != ref.end()) {
        ref[id] = key;
        q.update(id, key);
      }
    } else {  // pop max
      if (!ref.empty()) {
        ASSERT_FALSE(q.empty());
        wgt_t expect_max = -1000;
        for (const auto& [i, k] : ref) expect_max = std::max(expect_max, k);
        ASSERT_EQ(q.max_key(), expect_max);
        const idx_t popped = q.pop_max();
        ASSERT_EQ(ref[popped], expect_max);
        ref.erase(popped);
      }
    }
    ASSERT_EQ(q.size(), static_cast<idx_t>(ref.size()));
  }
}

TEST(BucketQueue, ClearThenReuse) {
  // A queue cleared after use, its bucket range grown past the initial
  // one, must behave exactly like a freshly reset queue.
  BucketQueue used;
  used.reset(50);
  for (idx_t v = 0; v < 40; ++v) used.insert(v, static_cast<wgt_t>(v % 7 - 3));
  used.insert(40, 5000);  // grows the range
  used.insert(41, -4000);
  for (int i = 0; i < 10; ++i) used.pop_max();
  used.clear();
  EXPECT_TRUE(used.empty());
  for (idx_t v = 0; v < 50; ++v) EXPECT_FALSE(used.contains(v));

  BucketQueue fresh;
  fresh.reset(50);
  Rng rng(3);
  for (idx_t v = 0; v < 50; ++v) {
    const idx_t id = (v * 17) % 50;
    const wgt_t key = static_cast<wgt_t>(rng.next_below(200)) - 100;
    used.insert(id, key);
    fresh.insert(id, key);
  }
  used.update(3, 90);
  fresh.update(3, 90);
  used.remove(8);
  fresh.remove(8);
  while (!fresh.empty()) {
    ASSERT_FALSE(used.empty());
    EXPECT_EQ(used.max_key(), fresh.max_key());
    EXPECT_EQ(used.pop_max(), fresh.pop_max());
  }
  EXPECT_TRUE(used.empty());

  used.clear();  // clearing an empty queue is a no-op
  used.insert(7, 2);
  EXPECT_EQ(used.pop_max(), 7);
}

/// Randomized stress test of several queues sharing one node array, each
/// checked against its own reference.
TEST(BucketQueue, MultiQueueStressAgainstReference) {
  constexpr idx_t kN = 200;
  constexpr int kQueues = 4;
  BucketQueue q;
  q.reset(kN, 64, kQueues);
  ASSERT_EQ(q.num_queues(), kQueues);
  std::array<std::map<idx_t, wgt_t>, kQueues> ref;
  std::vector<int> home(kN, -1);  // reference owner of each id
  Rng rng(123);

  for (int step = 0; step < 40000; ++step) {
    const int op = static_cast<int>(rng.next_below(4));
    const idx_t id = static_cast<idx_t>(rng.next_below(kN));
    const int qi = static_cast<int>(rng.next_below(kQueues));
    const wgt_t key = static_cast<wgt_t>(rng.next_in(-50, 50));
    int& h = home[to_size(id)];
    if (op == 0) {  // insert into a random queue
      if (h < 0) {
        ref[to_size(qi)][id] = key;
        h = qi;
        q.insert(id, key, qi);
      }
    } else if (op == 1) {  // remove from whichever queue holds it
      if (h >= 0) {
        ref[to_size(h)].erase(id);
        h = -1;
        q.remove(id);
      }
    } else if (op == 2) {  // update within its queue
      if (h >= 0) {
        ref[to_size(h)][id] = key;
        q.update(id, key);
      }
    } else {  // pop max of a random queue
      auto& r = ref[to_size(qi)];
      if (!r.empty()) {
        ASSERT_FALSE(q.empty(qi));
        wgt_t expect_max = -1000;
        for (const auto& [i, k] : r) expect_max = std::max(expect_max, k);
        ASSERT_EQ(q.max_key(qi), expect_max);
        const idx_t popped = q.pop_max(qi);
        ASSERT_EQ(r.count(popped), 1u);
        ASSERT_EQ(r[popped], expect_max);
        r.erase(popped);
        home[to_size(popped)] = -1;
      } else {
        ASSERT_TRUE(q.empty(qi));
      }
    }
    for (int c = 0; c < kQueues; ++c) {
      ASSERT_EQ(q.size(c), static_cast<idx_t>(ref[to_size(c)].size()));
    }
    ASSERT_EQ(q.owner(id), home[to_size(id)]);
  }
}

TEST(BucketQueue, MovedBetweenQueuesKeepsLifoOrder) {
  BucketQueue q;
  q.reset(4, 64, 2);
  q.insert(0, 5, 0);
  q.insert(1, 5, 1);
  q.insert(2, 5, 1);
  // Vertex 0 moves to queue 1, the way FM requeues a vertex that changed
  // sides: it is the most recent insertion into that bucket.
  q.remove(0);
  q.insert(0, 5, 1);
  q.insert(3, 5, 0);
  EXPECT_EQ(q.pop_max(1), 0);
  EXPECT_EQ(q.pop_max(1), 2);
  EXPECT_EQ(q.pop_max(1), 1);
  EXPECT_EQ(q.pop_max(0), 3);
  EXPECT_TRUE(q.empty(0));
  EXPECT_TRUE(q.empty(1));
}

TEST(BucketQueue, ContainsAnswersPerQueue) {
  BucketQueue q;
  q.reset(3, 64, 3);
  q.insert(1, 4, 2);
  EXPECT_TRUE(q.contains(1, 2));
  EXPECT_FALSE(q.contains(1, 0));
  EXPECT_FALSE(q.contains(1, 1));
  EXPECT_FALSE(q.contains(1));  // the single-queue form asks about queue 0
  EXPECT_EQ(q.owner(1), 2);
  EXPECT_EQ(q.owner(0), -1);
  q.update(1, -7);
  EXPECT_TRUE(q.contains(1, 2));
  EXPECT_EQ(q.key(1), -7);
  q.remove(1);
  EXPECT_FALSE(q.contains(1, 2));
  EXPECT_EQ(q.owner(1), -1);
}

TEST(BucketQueue, ClearOneQueueLeavesOthersIntact) {
  BucketQueue q;
  q.reset(10, 4, 3);
  for (idx_t v = 0; v < 9; ++v) {
    const wgt_t key = static_cast<wgt_t>(v % 4) * 1000 - 1500;
    q.insert(v, key, static_cast<int>(v % 3));
  }
  q.clear(1);  // queue 1 had grown its bucket range
  EXPECT_TRUE(q.empty(1));
  for (const idx_t v : {1, 4, 7}) EXPECT_EQ(q.owner(v), -1);
  EXPECT_EQ(q.size(0), 3);
  EXPECT_EQ(q.size(2), 3);
  // Queue 0 holds 0, 3, 6 with keys -1500, 1500, 500.
  EXPECT_EQ(q.pop_max(0), 3);
  EXPECT_EQ(q.pop_max(0), 6);
  EXPECT_EQ(q.pop_max(0), 0);
  // Queue 2 holds 2, 5, 8 with keys 500, -500, -1500.
  EXPECT_EQ(q.pop_max(2), 2);
  EXPECT_EQ(q.pop_max(2), 5);
  EXPECT_EQ(q.pop_max(2), 8);
  // The cleared queue is reusable.
  q.insert(4, 9, 1);
  EXPECT_EQ(q.max_key(1), 9);
  EXPECT_EQ(q.pop_max(1), 4);
}

}  // namespace
}  // namespace mcgp
