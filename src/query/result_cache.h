// Epoch-keyed result cache for the query service (query subsystem).
//
// Zipf-skewed read traffic (src/query/workload.h models it) re-executes the
// same few query keys over and over; between writes the index contents are
// frozen, so those answers are pure functions of (query shape, contents).
// `result_cache<D>` memoizes them: an LRU map keyed by the exact bit
// pattern of the query — k-NN (point, k), box range (lo, hi), or ball
// range (center, radius) — plus the owning shard's *write epoch*
// (spatial_index::epoch(), bumped by every content-changing write batch).
//
// Keying by epoch is the invalidation scheme: a write bumps the epoch, so
// every earlier entry becomes unreachable and ages out through the LRU —
// no flush, no locking against the write path, and a snapshot read at an
// older epoch still hits the entries computed for that epoch. Because the
// key captures everything the answer depends on, a hit is byte-identical
// to re-running the query (the correctness oracle in
// tests/test_result_cache.cpp enforces this).
//
// The query_service shards the cache alongside the index: one instance per
// index shard (the shard id is part of the logical key by construction),
// each with its own mutex, so shard executors and snapshot readers probing
// different shards never contend. Sharded keying is also what makes
// invalidation *stripe-aware*: a write routed to shard 3 bumps only shard
// 3's epoch, so shard 1's cached range rows stay hot — which is exactly
// what keeps continuous-query re-evaluation (subscription.h) cheap on the
// shards a drain did not touch. Capacity 0 disables an instance entirely
// (probes fall through with no counter traffic).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aabb.h"
#include "core/point.h"
#include "query/telemetry.h"

namespace pargeo::query {

namespace detail {

/// Canonical bit pattern of one point coordinate: -0.0 maps to 0.0 so
/// equal points (point::operator==) always share bits. This is THE
/// definition — shard routing (query_service::hash_point) and cache keys
/// both build on it; a point-canonicalization change must happen here so
/// routing and caching cannot disagree.
inline std::uint64_t canonical_coord_bits(double c) {
  const double coord = c == 0.0 ? 0.0 : c;
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(&bits, &coord, sizeof(bits));
  return bits;
}

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

inline std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

/// FNV-1a over a point's canonical coordinate bits.
template <int D>
std::uint64_t point_fnv1a(const point<D>& p) {
  std::uint64_t h = kFnvOffset;
  for (int d = 0; d < D; ++d) h = fnv1a_mix(h, canonical_coord_bits(p[d]));
  return h;
}

/// Query shape a cache key describes. Values are part of the key's bit
/// pattern, never serialized — renumbering is safe.
enum class result_kind : std::uint8_t { knn, box, ball };

/// Exact memoization key for any read shape: canonical coordinate bits of
/// the query geometry (a = point / center / box-lo, b = box-hi), the
/// shape scalar (k for k-NN, radius bits for balls), and the write epoch.
/// Shared by the per-shard caches and the read path's same-run dedup map.
template <int D>
struct result_key {
  result_kind kind = result_kind::knn;
  std::uint64_t a[D];
  std::uint64_t b[D];
  std::uint64_t scalar = 0;
  std::uint64_t epoch = 0;

  result_key() {
    for (int d = 0; d < D; ++d) a[d] = b[d] = 0;
  }

  static result_key knn(const point<D>& q, std::size_t k, std::uint64_t e) {
    result_key key;
    key.kind = result_kind::knn;
    for (int d = 0; d < D; ++d) key.a[d] = canonical_coord_bits(q[d]);
    key.scalar = k;
    key.epoch = e;
    return key;
  }

  static result_key box(const aabb<D>& qb, std::uint64_t e) {
    result_key key;
    key.kind = result_kind::box;
    for (int d = 0; d < D; ++d) {
      key.a[d] = canonical_coord_bits(qb.lo[d]);
      key.b[d] = canonical_coord_bits(qb.hi[d]);
    }
    key.epoch = e;
    return key;
  }

  static result_key ball(const point<D>& center, double radius,
                         std::uint64_t e) {
    result_key key;
    key.kind = result_kind::ball;
    for (int d = 0; d < D; ++d) key.a[d] = canonical_coord_bits(center[d]);
    key.scalar = canonical_coord_bits(radius);
    key.epoch = e;
    return key;
  }

  bool operator==(const result_key& o) const {
    return kind == o.kind && scalar == o.scalar && epoch == o.epoch &&
           std::memcmp(a, o.a, sizeof(a)) == 0 &&
           std::memcmp(b, o.b, sizeof(b)) == 0;
  }
};

template <int D>
struct result_key_hash {
  std::size_t operator()(const result_key<D>& key) const {
    std::uint64_t h = kFnvOffset;
    h = fnv1a_mix(h, static_cast<std::uint64_t>(key.kind));
    for (int d = 0; d < D; ++d) h = fnv1a_mix(h, key.a[d]);
    for (int d = 0; d < D; ++d) h = fnv1a_mix(h, key.b[d]);
    h = fnv1a_mix(h, key.scalar);
    h = fnv1a_mix(h, key.epoch);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace detail

/// Counters for one cache instance (or, summed, for a sharded set).
struct cache_stats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;  // entries dropped by the LRU capacity bound
  std::size_t entries = 0;    // currently resident
  /// Hit/miss latency split (populated only on `timed` instances — the
  /// service enables timing alongside telemetry): `hit_ns` is wall time
  /// spent serving hits from the map, `miss_ns` the tree-execution time
  /// the misses went on to pay. The gap between avg_hit/avg_miss is the
  /// per-probe win the cache buys.
  std::uint64_t hit_ns = 0;
  std::uint64_t miss_ns = 0;

  double hit_rate() const {
    const std::size_t probes = hits + misses;
    return probes > 0 ? static_cast<double>(hits) / probes : 0.0;
  }
  double avg_hit_ns() const {
    return hits > 0 ? static_cast<double>(hit_ns) / hits : 0.0;
  }
  double avg_miss_ns() const {
    return misses > 0 ? static_cast<double>(miss_ns) / misses : 0.0;
  }
  void accumulate(const cache_stats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    entries += o.entries;
    hit_ns += o.hit_ns;
    miss_ns += o.miss_ns;
  }
};

/// Epoch-invalidated LRU cache of read-result rows (k-NN / box / ball)
/// for one index shard. Thread-safe; every operation is O(1) expected
/// under one internal lock.
template <int D>
class result_cache {
 public:
  using key_t = detail::result_key<D>;

  /// `capacity` bounds resident entries; 0 disables the instance (lookups
  /// miss without counting, stores are dropped). `timed` turns on the
  /// hit/miss latency split (a clock read per probe — the service enables
  /// it together with telemetry).
  explicit result_cache(std::size_t capacity, bool timed = false)
      : capacity_(capacity), timed_(timed) {}

  bool enabled() const { return capacity_ > 0; }
  bool timed() const { return timed_ && enabled(); }
  std::size_t capacity() const { return capacity_; }

  /// On hit, copies the cached row into `out`, refreshes LRU recency, and
  /// returns true. Counts a hit or a miss (disabled instances count
  /// neither).
  bool lookup(const key_t& key, std::vector<point<D>>& out) {
    if (!enabled()) return false;
    const std::uint64_t t0 = timed_ ? monotonic_ns() : 0;
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    out = it->second->row;
    ++hits_;
    if (timed_) hit_ns_ += monotonic_ns() - t0;
    return true;
  }

  /// Inserts `row` for the key, evicting least-recently-used entries past
  /// capacity. Concurrent stores of the same key keep the first copy (the
  /// rows are identical by construction — same key bits, same epoch).
  void store(const key_t& key, const std::vector<point<D>>& row) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(entry{key, row});
    map_.emplace(key, lru_.begin());
    while (map_.size() > capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
      ++evictions_;
    }
  }

  /// Counts `n` extra hits served outside the map — the read path dedups
  /// identical missed keys within one run (the duplicates reuse the first
  /// execution's row without re-probing), which is a cache-layer win that
  /// would otherwise be invisible in the counters. Disabled instances
  /// count nothing (same contract as lookup/store: capacity 0 must never
  /// report cache activity).
  void add_hits(std::size_t n) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lk(mu_);
    hits_ += n;
  }

  /// Attributes `ns` of tree execution to this shard's cache misses —
  /// the read path measures the miss batch it executed after probing and
  /// reports it here, completing the hit/miss latency split. Only timed
  /// instances count (same gating as the lookup-side timing).
  void add_miss_ns(std::uint64_t ns) {
    if (!timed()) return;
    std::lock_guard<std::mutex> lk(mu_);
    miss_ns_ += ns;
  }

  cache_stats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    cache_stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.entries = map_.size();
    s.hit_ns = hit_ns_;
    s.miss_ns = miss_ns_;
    return s;
  }

  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    map_.clear();
    lru_.clear();
  }

 private:
  using key_hash = detail::result_key_hash<D>;

  struct entry {
    key_t key;
    std::vector<point<D>> row;
  };

  const std::size_t capacity_;
  const bool timed_;
  mutable std::mutex mu_;
  std::list<entry> lru_;  // front = most recently used
  std::unordered_map<key_t, typename std::list<entry>::iterator, key_hash>
      map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::uint64_t hit_ns_ = 0;
  std::uint64_t miss_ns_ = 0;
};

}  // namespace pargeo::query
