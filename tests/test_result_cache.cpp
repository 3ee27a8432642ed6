// Hot result cache: LRU/epoch unit tests on result_cache<D> (k-NN, box,
// and ball keys) plus the end-to-end correctness oracle — a zipf stream
// with interleaved writes (and the BDL-tree cascades they trigger)
// answered by a cache-enabled service must be byte-identical to the
// cache-disabled run, while actually hitting the cache.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "query/query_service.h"
#include "query/result_cache.h"
#include "query/workload.h"

using namespace pargeo;
using cache_t = query::result_cache<2>;
using key = cache_t::key_t;

namespace {

point<2> pt(double x, double y) { return point<2>{{x, y}}; }

std::vector<point<2>> row(std::initializer_list<point<2>> pts) {
  return std::vector<point<2>>(pts);
}

}  // namespace

TEST(ResultCache, KnnMissThenStoreThenHit) {
  cache_t cache(8);
  std::vector<point<2>> out;
  EXPECT_FALSE(cache.lookup(key::knn(pt(1, 2), 3, 7), out));
  cache.store(key::knn(pt(1, 2), 3, 7), row({pt(1, 2), pt(1, 3)}));
  ASSERT_TRUE(cache.lookup(key::knn(pt(1, 2), 3, 7), out));
  EXPECT_EQ(out, row({pt(1, 2), pt(1, 3)}));
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(ResultCache, KnnKeyCoversPointKAndEpoch) {
  cache_t cache(16);
  cache.store(key::knn(pt(1, 1), 2, 5), row({pt(1, 1)}));
  std::vector<point<2>> out;
  // Same point+k, later epoch: the write invalidated the entry.
  EXPECT_FALSE(cache.lookup(key::knn(pt(1, 1), 2, 6), out));
  // Same point+epoch, different k.
  EXPECT_FALSE(cache.lookup(key::knn(pt(1, 1), 3, 5), out));
  // Different point.
  EXPECT_FALSE(cache.lookup(key::knn(pt(1, 2), 2, 5), out));
  // The original key still hits (stale epochs age out via LRU, they are
  // not flushed).
  EXPECT_TRUE(cache.lookup(key::knn(pt(1, 1), 2, 5), out));
}

TEST(ResultCache, NegativeZeroKeysLikeZero) {
  cache_t cache(4);
  point<2> neg = pt(0.0, 1.0);
  neg[0] = -0.0;
  cache.store(key::knn(pt(0.0, 1.0), 1, 1), row({pt(0.0, 1.0)}));
  std::vector<point<2>> out;
  // -0.0 == 0.0 as a point
  EXPECT_TRUE(cache.lookup(key::knn(neg, 1, 1), out));
}

TEST(ResultCache, LruEvictsLeastRecentlyUsed) {
  cache_t cache(2);
  cache.store(key::knn(pt(1, 0), 1, 1), row({pt(1, 0)}));
  cache.store(key::knn(pt(2, 0), 1, 1), row({pt(2, 0)}));
  std::vector<point<2>> out;
  ASSERT_TRUE(cache.lookup(key::knn(pt(1, 0), 1, 1), out));  // refresh A
  cache.store(key::knn(pt(3, 0), 1, 1), row({pt(3, 0)}));    // evicts B (LRU)
  EXPECT_FALSE(cache.lookup(key::knn(pt(2, 0), 1, 1), out));
  EXPECT_TRUE(cache.lookup(key::knn(pt(1, 0), 1, 1), out));
  EXPECT_TRUE(cache.lookup(key::knn(pt(3, 0), 1, 1), out));
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(ResultCache, DuplicateStoreKeepsOneEntry) {
  cache_t cache(4);
  cache.store(key::knn(pt(1, 1), 1, 1), row({pt(1, 1)}));
  cache.store(key::knn(pt(1, 1), 1, 1), row({pt(1, 1)}));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, CapacityZeroDisablesEverything) {
  cache_t cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.store(key::knn(pt(1, 1), 1, 1), row({pt(1, 1)}));
  std::vector<point<2>> out;
  EXPECT_FALSE(cache.lookup(key::knn(pt(1, 1), 1, 1), out));
  const auto s = cache.stats();  // disabled instances count nothing
  EXPECT_EQ(s.hits + s.misses + s.entries + s.evictions, 0u);
}

TEST(ResultCache, BoxKeyCoversCornersAndEpoch) {
  cache_t cache(16);
  const aabb<2> box(pt(0, 0), pt(4, 4));
  cache.store(key::box(box, 3), row({pt(1, 1), pt(2, 2)}));
  std::vector<point<2>> out;
  ASSERT_TRUE(cache.lookup(key::box(box, 3), out));
  EXPECT_EQ(out, row({pt(1, 1), pt(2, 2)}));
  // Any corner or epoch change is a different key.
  EXPECT_FALSE(cache.lookup(key::box(aabb<2>(pt(0, 0), pt(4, 5)), 3), out));
  EXPECT_FALSE(cache.lookup(key::box(aabb<2>(pt(0, 1), pt(4, 4)), 3), out));
  EXPECT_FALSE(cache.lookup(key::box(box, 4), out));
}

TEST(ResultCache, BallKeyCoversCenterRadiusAndEpoch) {
  cache_t cache(16);
  cache.store(key::ball(pt(2, 2), 1.5, 9), row({pt(2, 2)}));
  std::vector<point<2>> out;
  ASSERT_TRUE(cache.lookup(key::ball(pt(2, 2), 1.5, 9), out));
  EXPECT_FALSE(cache.lookup(key::ball(pt(2, 2), 1.25, 9), out));
  EXPECT_FALSE(cache.lookup(key::ball(pt(2, 3), 1.5, 9), out));
  EXPECT_FALSE(cache.lookup(key::ball(pt(2, 2), 1.5, 10), out));
}

TEST(ResultCache, QueryShapesNeverCollide) {
  // A k-NN probe at p with k, a ball at p whose radius bits happen to
  // equal k, and a degenerate box [p, p] all share their geometry bits:
  // the kind tag must keep the three result rows apart.
  cache_t cache(16);
  const point<2> p = pt(3, 3);
  cache.store(key::knn(p, 2, 1), row({pt(1, 1)}));
  cache.store(key::box(aabb<2>(p, p), 1), row({pt(2, 2)}));
  cache.store(key::ball(p, 0.5, 1), row({pt(3, 3)}));
  EXPECT_EQ(cache.stats().entries, 3u);
  std::vector<point<2>> out;
  ASSERT_TRUE(cache.lookup(key::knn(p, 2, 1), out));
  EXPECT_EQ(out, row({pt(1, 1)}));
  ASSERT_TRUE(cache.lookup(key::box(aabb<2>(p, p), 1), out));
  EXPECT_EQ(out, row({pt(2, 2)}));
  ASSERT_TRUE(cache.lookup(key::ball(p, 0.5, 1), out));
  EXPECT_EQ(out, row({pt(3, 3)}));
}

TEST(ResultCache, AddHitsIsGatedByEnabled) {
  // Regression: add_hits (the same-run dedup accounting path) skipped the
  // enabled() guard, so a disabled cache could still report nonzero hits
  // — stats claiming cache activity on a cache_capacity=0 service.
  cache_t disabled(0);
  disabled.add_hits(3);
  EXPECT_EQ(disabled.stats().hits, 0u);

  cache_t enabled(4);
  enabled.add_hits(3);  // enabled instances do count dedup hits
  EXPECT_EQ(enabled.stats().hits, 3u);
}

namespace {

// Runs `spec` through a service configured by `cfg` and collects every
// response in stream order.
std::vector<query::response<2>> run_service(
    query::service_config cfg, const query::workload_spec& spec,
    query::service_stats* out_stats) {
  query::query_service<2> service(cfg);
  std::vector<query::response<2>> responses;
  query::run_workload<2>(service, spec, &responses);
  service.close();
  if (out_stats) *out_stats = service.stats();
  return responses;
}

}  // namespace

// The acceptance property of the cache: cached k-NN answers are
// byte-identical to fresh-tree answers across interleaved writes and the
// tree restructuring they cause, under the same epochs the cache keys
// on. Zipf keys make the stream cache-friendly; a small capacity forces
// LRU evictions mid-stream.
TEST(CacheOracle, CachedAnswersEqualFreshAnswers) {
  query::workload_spec spec;
  spec.initial_points = 200;
  spec.num_ops = 3000;
  spec.batch_size = 256;
  spec.k = 5;
  spec.dist = query::distribution::zipf;
  spec.zipf_s = 1.4;
  spec.zipf_hot_frac = 0.9;
  spec.insert_frac = 0.05;
  spec.erase_frac = 0.05;
  spec.knn_frac = 0.7;
  spec.range_frac = 0.1;
  spec.ball_frac = 0.1;

  query::service_config cfg;
  cfg.shards = 3;
  cfg.policy = query::shard_policy::hash;

  auto cached_cfg = cfg;
  cached_cfg.cache_capacity = 96;  // small: forces evictions too
  auto uncached_cfg = cfg;
  uncached_cfg.cache_capacity = 0;

  query::service_stats cached_stats;
  query::service_stats uncached_stats;
  const auto got = run_service(cached_cfg, spec, &cached_stats);
  const auto want = run_service(uncached_cfg, spec, &uncached_stats);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << "response " << i;
    // Exact point-for-point equality, not just matching distances: a hit
    // replays the very rows the tree produced.
    EXPECT_EQ(got[i].points, want[i].points) << "response " << i;
  }
  // The oracle only proves something if the cache actually served hits
  // and churned.
  EXPECT_GT(cached_stats.cache.hits, 0u);
  EXPECT_GT(cached_stats.cache.evictions, 0u);
  EXPECT_EQ(uncached_stats.cache.hits, 0u);
  EXPECT_EQ(uncached_stats.cache.misses, 0u);
}

TEST(CacheService, RepeatedHotKeyHitsWithoutWrites) {
  // Pure-read traffic on a frozen index: every repeat of a (point, k) key
  // after the first is a hit, on the snapshot path.
  query::service_config cfg;
  cfg.shards = 2;
  cfg.cache_capacity = 64;
  query::query_service<2> service(cfg);
  service.bootstrap(datagen::uniform<2>(400, 3));

  std::vector<query::request<2>> batch;
  for (int rep = 0; rep < 10; ++rep) {
    batch.push_back(query::request<2>::make_knn(point<2>{{5.0, 5.0}}, 4));
  }
  auto r = service.execute(batch);
  for (const auto& resp : r.responses) {
    EXPECT_EQ(resp.points.size(), 4u);
    EXPECT_EQ(resp.points, r.responses[0].points);
  }
  service.close();
  const auto stats = service.stats();
  // 2 shards x 10 probes: the first probe per shard misses, the rest hit.
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 18u);
  EXPECT_GE(stats.cache.hit_rate(), 0.5);
}

TEST(CacheService, RangeAndBallQueriesHitTheCache) {
  // The generalized cache memoizes box and ball rows too, under the same
  // epoch keys as k-NN.
  query::service_config cfg;
  cfg.shards = 2;
  cfg.cache_capacity = 64;
  query::query_service<2> service(cfg);
  service.bootstrap(datagen::uniform<2>(400, 3));

  std::vector<query::request<2>> batch;
  const aabb<2> box(point<2>{{2, 2}}, point<2>{{8, 8}});
  for (int rep = 0; rep < 6; ++rep) {
    batch.push_back(query::request<2>::make_range(box));
    batch.push_back(query::request<2>::make_ball(point<2>{{5, 5}}, 2.5));
  }
  auto r = service.execute(batch);
  for (std::size_t i = 2; i < r.responses.size(); ++i) {
    EXPECT_EQ(r.responses[i].points, r.responses[i - 2].points)
        << "response " << i;
  }
  service.close();
  const auto stats = service.stats();
  // 2 shards x 2 shapes x 6 probes: first probe per (shard, shape) misses.
  EXPECT_EQ(stats.cache.misses, 4u);
  EXPECT_EQ(stats.cache.hits, 20u);
}

TEST(CacheService, WritesInvalidateThroughEpochs) {
  // A write between two identical k-NN queries must produce a fresh
  // (and different) answer: the epoch key fences the stale row off.
  query::service_config cfg;
  cfg.shards = 1;
  cfg.cache_capacity = 64;
  query::query_service<2> service(cfg);
  service.bootstrap({point<2>{{0, 0}}, point<2>{{10, 10}}});

  const auto q = query::request<2>::make_knn(point<2>{{1, 1}}, 1);
  auto r1 = service.execute({q, q});  // miss then hit
  EXPECT_TRUE(r1.responses[0].points[0] == (point<2>{{0, 0}}));
  auto r2 = service.execute({query::request<2>::make_insert(point<2>{{1, 1}}),
                             q});
  EXPECT_TRUE(r2.responses[1].points[0] == (point<2>{{1, 1}}))
      << "stale cached answer served across a write";
  service.close();
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 2u);
}
