#include "support/bucket_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace mcgp {

void BucketQueue::reset(idx_t n, wgt_t expected_max_gain, int nqueues) {
  assert(nqueues >= 1 && nqueues <= std::numeric_limits<std::int16_t>::max());
  const auto un = to_size(n);
  next_.assign(un, kNil);
  prev_.assign(un, kNil);
  keys_.assign(un, 0);
  owner_.assign(un, kNone);
  initial_span_ = 2LL * std::max<wgt_t>(expected_max_gain, 1) + 1;
  lists_.assign(to_size(nqueues), Buckets{});
  for (Buckets& b : lists_) {
    b.heads.assign(to_size(initial_span_), kNil);
    b.offset = initial_span_ / 2;
  }
}

void BucketQueue::clear() {
  for (int q = 0; q < num_queues(); ++q) clear(q);
}

void BucketQueue::clear(int q) {
  Buckets& b = lists_[to_size(q)];
  // Only buckets at or below max_bucket can be non-empty.
  for (long long i = 0; i <= b.max_bucket; ++i) {
    for (idx_t id = b.heads[to_size(i)]; id != kNil; id = next_[to_size(id)]) {
      owner_[to_size(id)] = kNone;
    }
    b.heads[to_size(i)] = kNil;
  }
  if (static_cast<long long>(b.heads.size()) != initial_span_) {
    b.heads.assign(to_size(initial_span_), kNil);
  }
  b.offset = initial_span_ / 2;
  b.max_bucket = -1;
  b.count = 0;
}

void BucketQueue::grow_range(Buckets& b, wgt_t gain) {
  // Double the range until `gain` fits, preserving bucket contents.
  long long lo = -b.offset;
  long long hi = static_cast<long long>(b.heads.size()) - b.offset - 1;
  long long span = static_cast<long long>(b.heads.size());
  while (gain < lo || gain > hi) {
    span *= 2;
    lo = -span / 2;
    hi = span - span / 2 - 1;
  }
  std::vector<idx_t> nb(to_size(span), kNil);
  const long long new_offset = span / 2;
  for (std::size_t i = 0; i < b.heads.size(); ++i) {
    if (b.heads[i] == kNil) continue;
    const long long g = static_cast<long long>(i) - b.offset;
    nb[to_size(g + new_offset)] = b.heads[i];
  }
  b.heads = std::move(nb);
  if (b.max_bucket >= 0) b.max_bucket += new_offset - b.offset;
  b.offset = new_offset;
}

void BucketQueue::link(idx_t id, wgt_t gain) {
  Buckets& b = lists_[to_size(owner_[to_size(id)])];
  const long long lo = -b.offset;
  const long long hi = static_cast<long long>(b.heads.size()) - b.offset - 1;
  if (gain < lo || gain > hi) grow_range(b, gain);
  const std::size_t i = b.of(gain);
  const idx_t head = b.heads[i];
  next_[to_size(id)] = head;
  prev_[to_size(id)] = kNil;
  if (head != kNil) prev_[to_size(head)] = id;
  b.heads[i] = id;
  keys_[to_size(id)] = gain;
  b.max_bucket = std::max(b.max_bucket, static_cast<long long>(i));
}

void BucketQueue::unlink(idx_t id) {
  const std::size_t uid = to_size(id);
  const idx_t nx = next_[uid];
  const idx_t pv = prev_[uid];
  if (pv != kNil) {
    next_[to_size(pv)] = nx;
  } else {
    Buckets& b = lists_[to_size(owner_[uid])];
    b.heads[b.of(keys_[uid])] = nx;
  }
  if (nx != kNil) prev_[to_size(nx)] = pv;
}

void BucketQueue::insert(idx_t id, wgt_t gain, int q) {
  assert(owner(id) == kNone);
  owner_[to_size(id)] = static_cast<std::int16_t>(q);
  link(id, gain);
  ++lists_[to_size(q)].count;
}

void BucketQueue::remove(idx_t id) {
  assert(owner(id) != kNone);
  unlink(id);
  --lists_[to_size(owner_[to_size(id)])].count;
  owner_[to_size(id)] = kNone;
}

void BucketQueue::update(idx_t id, wgt_t new_gain) {
  assert(owner(id) != kNone);
  if (keys_[to_size(id)] == new_gain) return;
  unlink(id);
  link(id, new_gain);
}

void BucketQueue::top(Buckets& b) {
  while (b.heads[to_size(b.max_bucket)] == kNil) --b.max_bucket;
}

wgt_t BucketQueue::max_key(int q) {
  assert(!empty(q));
  Buckets& b = lists_[to_size(q)];
  top(b);
  return static_cast<wgt_t>(b.max_bucket - b.offset);
}

idx_t BucketQueue::pop_max(int q) {
  assert(!empty(q));
  Buckets& b = lists_[to_size(q)];
  top(b);
  const idx_t id = b.heads[to_size(b.max_bucket)];
  remove(id);
  return id;
}

}  // namespace mcgp
