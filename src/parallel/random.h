// Counter-based deterministic randomness.
//
// Every randomized component in the library (data generators, randomized
// incremental algorithms, random permutations) draws from splitmix64 hashes
// of (seed, index), so results are reproducible at any worker count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "parallel/primitives.h"

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
/// their (hashed key, index) pairs. A stable counting scatter buckets the
/// pairs by their keys' top bits and each bucket is sorted on its own, which
/// orders the pairs as one sort would (the top bits order the keys) for a
/// fraction of its work.
inline std::vector<std::size_t> random_permutation(std::size_t n,
                                                   uint64_t seed) {
  struct key_idx {
    uint64_t key;
    std::size_t idx;
    bool operator<(const key_idx& o) const {
      return key < o.key || (key == o.key && idx < o.idx);
    }
  };
  // 256-511 pairs a bucket, within 2 buckets (so the shift below stays under
  // 64) and 2^11 (so that a block's scatter writes to few enough runs at a
  // time).
  int bits = 1;
  while (bits < 11 && (n >> (bits + 9)) > 0) ++bits;
  std::vector<key_idx> ki(n);
  const std::vector<std::size_t> start = counting_scatter(
      n, std::size_t{1} << bits,
      [seed](std::size_t i) { return key_idx{rand_at(seed, i), i}; },
      [bits](const key_idx& x) { return x.key >> (64 - bits); }, ki.data());
  std::vector<std::size_t> out(n);
  parallel_for(
      0, start.size() - 1,
      [&](std::size_t b) {
        std::sort(ki.begin() + start[b], ki.begin() + start[b + 1]);
        for (std::size_t i = start[b]; i < start[b + 1]; ++i) {
          out[i] = ki[i].idx;
        }
      },
      8);
  return out;
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
