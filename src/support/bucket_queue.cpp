#include "support/bucket_queue.hpp"

#include <algorithm>
#include <cassert>

namespace mcgp {

void BucketQueue::reset(idx_t n, wgt_t expected_max_gain) {
  const auto un = to_size(n);
  next_.assign(un, kNil);
  prev_.assign(un, kNil);
  keys_.assign(un, 0);
  in_queue_.assign(un, 0);
  const long long span = 2LL * std::max<wgt_t>(expected_max_gain, 1) + 1;
  buckets_.assign(to_size(span), kNil);
  initial_span_ = span;
  offset_ = span / 2;
  max_bucket_ = -1;
  count_ = 0;
}

void BucketQueue::clear() {
  // Only buckets at or below max_bucket_ can be non-empty.
  for (long long b = 0; b <= max_bucket_; ++b) {
    for (idx_t id = buckets_[to_size(b)]; id != kNil; id = next_[to_size(id)]) {
      in_queue_[to_size(id)] = 0;
    }
    buckets_[to_size(b)] = kNil;
  }
  if (static_cast<long long>(buckets_.size()) != initial_span_) {
    buckets_.assign(to_size(initial_span_), kNil);
  }
  offset_ = initial_span_ / 2;
  max_bucket_ = -1;
  count_ = 0;
}

void BucketQueue::grow_range(wgt_t gain) {
  // Double the range until `gain` fits, preserving bucket contents.
  long long lo = -offset_;
  long long hi = static_cast<long long>(buckets_.size()) - offset_ - 1;
  long long span = static_cast<long long>(buckets_.size());
  while (gain < lo || gain > hi) {
    span *= 2;
    lo = -span / 2;
    hi = span - span / 2 - 1;
  }
  std::vector<idx_t> nb(to_size(span), kNil);
  const long long new_offset = span / 2;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == kNil) continue;
    const long long g = static_cast<long long>(b) - offset_;
    nb[to_size(g + new_offset)] = buckets_[b];
  }
  buckets_ = std::move(nb);
  if (max_bucket_ >= 0) max_bucket_ += new_offset - offset_;
  offset_ = new_offset;
}

void BucketQueue::link(idx_t id, wgt_t gain) {
  const long long lo = -offset_;
  const long long hi = static_cast<long long>(buckets_.size()) - offset_ - 1;
  if (gain < lo || gain > hi) grow_range(gain);
  const std::size_t b = bucket_of(gain);
  const idx_t head = buckets_[b];
  next_[to_size(id)] = head;
  prev_[to_size(id)] = kNil;
  if (head != kNil) prev_[to_size(head)] = id;
  buckets_[b] = id;
  keys_[to_size(id)] = gain;
  max_bucket_ = std::max(max_bucket_, static_cast<long long>(b));
}

void BucketQueue::unlink(idx_t id) {
  const std::size_t uid = to_size(id);
  const idx_t nx = next_[uid];
  const idx_t pv = prev_[uid];
  if (pv != kNil) {
    next_[to_size(pv)] = nx;
  } else {
    buckets_[bucket_of(keys_[uid])] = nx;
  }
  if (nx != kNil) prev_[to_size(nx)] = pv;
}

void BucketQueue::insert(idx_t id, wgt_t gain) {
  assert(!contains(id));
  link(id, gain);
  in_queue_[to_size(id)] = 1;
  ++count_;
}

void BucketQueue::remove(idx_t id) {
  assert(contains(id));
  unlink(id);
  in_queue_[to_size(id)] = 0;
  --count_;
}

void BucketQueue::update(idx_t id, wgt_t new_gain) {
  assert(contains(id));
  if (keys_[to_size(id)] == new_gain) return;
  unlink(id);
  link(id, new_gain);
}

wgt_t BucketQueue::max_key() {
  assert(!empty());
  while (buckets_[to_size(max_bucket_)] == kNil) --max_bucket_;
  return static_cast<wgt_t>(max_bucket_ - offset_);
}

idx_t BucketQueue::pop_max() {
  assert(!empty());
  while (buckets_[to_size(max_bucket_)] == kNil) --max_bucket_;
  const idx_t id = buckets_[to_size(max_bucket_)];
  remove(id);
  return id;
}

}  // namespace mcgp
