// Counter-based deterministic randomness.
//
// Every randomized component in the library (data generators, randomized
// incremental algorithms, random permutations) draws from splitmix64 hashes
// of (seed, index), so results are reproducible at any worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/primitives.h"
#include "parallel/sort.h"

namespace pargeo::par {

/// splitmix64 finalizer: high-quality 64-bit mix.
inline uint64_t hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Stateless RNG stream: value i of stream `seed`.
inline uint64_t rand_at(uint64_t seed, uint64_t i) {
  return hash64(seed * 0x9e3779b97f4a7c15ull + i + 1);
}

/// Uniform double in [0, 1).
inline double rand_double(uint64_t seed, uint64_t i) {
  return static_cast<double>(rand_at(seed, i) >> 11) * 0x1.0p-53;
}

/// Uniform integer in [0, bound).
inline uint64_t rand_range(uint64_t seed, uint64_t i, uint64_t bound) {
  return rand_at(seed, i) % bound;
}

/// Deterministic random permutation of [0, n): the indices in the order of
/// their (hashed key, index) pairs.
inline std::vector<std::size_t> random_permutation(std::size_t n,
                                                   uint64_t seed) {
  return key_order(n, [seed](std::size_t i) { return rand_at(seed, i); });
}

/// Deterministic parallel shuffle of a sequence.
template <class T>
std::vector<T> random_shuffle(const std::vector<T>& v, uint64_t seed) {
  auto perm = random_permutation(v.size(), seed);
  std::vector<T> out(v.size());
  parallel_for(0, v.size(), [&](std::size_t i) { out[i] = v[perm[i]]; });
  return out;
}

}  // namespace pargeo::par
