#include "support/random.hpp"

#include <algorithm>
#include <numeric>

namespace mcgp {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = detail::splitmix64(x);
  // Guard against an all-zero state (never happens with splitmix64, but
  // keep the invariant explicit).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Lemire's nearly-divisionless bounded generation with rejection.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

idx_t Rng::next_in(idx_t lo, idx_t hi) {
  return lo + static_cast<idx_t>(
                  next_below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::next_real() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) { return next_real() < p; }

Rng Rng::split() { return Rng(next_u64()); }

void random_permutation(idx_t n, std::vector<idx_t>& perm, Rng& rng) {
  perm.resize(to_size(n));
  std::iota(perm.begin(), perm.end(), idx_t{0});
  shuffle(perm, rng);
}

void shuffle(std::vector<idx_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace mcgp
