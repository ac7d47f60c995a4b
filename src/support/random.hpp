// Deterministic, seedable pseudo-random number generation.
//
// Every randomized component of the partitioner (matching order, initial
// partition seeds, tie-breaking, refinement visit order) draws from an
// explicitly passed Rng so that a whole partitioning run is reproducible
// from a single 64-bit seed.
#pragma once

#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace mcgp {

/// xoshiro256** generator seeded via SplitMix64. Small, fast, and good
/// enough statistically for combinatorial randomization (not for crypto).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed (SplitMix64 expansion).
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform idx_t in [lo, hi] inclusive. Requires lo <= hi.
  idx_t next_in(idx_t lo, idx_t hi);

  /// Uniform real in [0, 1).
  double next_real();

  /// True with probability p (clamped to [0,1]).
  bool next_bool(double p = 0.5);

  /// Derive an independent child generator (for per-component streams).
  Rng split();

 private:
  std::uint64_t s_[4];
};

namespace detail {

/// One SplitMix64 step: advance `x` by the golden-ratio increment and
/// return the finalized value.
inline std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace detail

/// Combine two 64-bit words into a well-mixed derived seed (SplitMix64
/// finalizer over a golden-ratio combination). Used to give every
/// independent subproblem of a run its own deterministic RNG stream:
/// seeding Rng(mix_seed(root, structural_id)) yields identical streams
/// regardless of how many threads execute the subproblems or in which
/// order, because the derivation depends only on the subproblem's
/// position, never on a shared generator's consumption history. Inline:
/// handshake matching hashes every neighbor of every proposal with it.
inline std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  // Golden-ratio combine, then one SplitMix64 finalizer round on each
  // word so low-entropy inputs (small structural ids) diffuse fully.
  std::uint64_t x = b + 0x9e3779b97f4a7c15ULL;
  const std::uint64_t mixed_b = detail::splitmix64(x);
  std::uint64_t y = a ^ mixed_b;
  return detail::splitmix64(y);
}

/// Fill `perm` with the identity permutation of size n and Fisher-Yates
/// shuffle it in place.
void random_permutation(idx_t n, std::vector<idx_t>& perm, Rng& rng);

/// Shuffle an existing vector in place.
void shuffle(std::vector<idx_t>& v, Rng& rng);

}  // namespace mcgp
