// Integration tests for the query subsystem driven through the
// query_service front door (1 shard — the per-shard executor path; sharded
// equivalence lives in test_query_service.cpp): mixed batched
// insert/erase/knn/range streams, checked request-by-request against the
// brute-force reference of test_query_util.h; plus phase-grouping,
// duplicate-point and empty-result checks, and run_workload driving the
// service and the reference through the same stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "parallel/random.h"
#include "query/query_service.h"
#include "query/workload.h"
#include "test_query_util.h"

using namespace pargeo;
using testutil::expect_same_multiset;
using testutil::expect_same_responses;

namespace {

template <int D>
query::query_service<D> make_service() {
  return query::query_service<D>(query::service_config{});
}

// Deterministic mixed stream. Duplicates enter via repeated inserts of a
// "hot" point in a disjoint coordinate region; the hot point joins the
// erase pool like any other insert, so erases hit its stored copies too
// and must remove exactly one each.
template <int D>
std::vector<query::request<D>> make_oracle_stream(std::size_t num_ops,
                                                  double side,
                                                  std::vector<point<D>> pool,
                                                  uint64_t seed) {
  point<D> hot;
  for (int d = 0; d < D; ++d) hot[d] = 10 * side + d;

  std::vector<query::request<D>> reqs;
  reqs.reserve(num_ops);
  for (std::size_t i = 0; i < num_ops; ++i) {
    const double u = par::rand_double(seed, i);
    auto fresh = [&] {
      point<D> p;
      for (int d = 0; d < D; ++d) {
        p[d] = side * par::rand_double(seed + 5 + d, i);
      }
      return p;
    };
    if (u < 0.15) {  // insert (1 in 5 a duplicate of the hot point)
      const auto p = par::rand_range(seed + 1, i, 5) == 0 ? hot : fresh();
      pool.push_back(p);
      reqs.push_back(query::request<D>::make_insert(p));
    } else if (u < 0.30 && !pool.empty()) {  // erase a pool point
      const std::size_t r = par::rand_range(seed + 2, i, pool.size());
      reqs.push_back(query::request<D>::make_erase(pool[r]));
    } else if (u < 0.60) {  // knn, k varying, sometimes k > n
      const std::size_t k = 1 + par::rand_range(seed + 3, i, 12);
      reqs.push_back(query::request<D>::make_knn(
          fresh(), par::rand_range(seed + 4, i, 20) == 0 ? 100000 : k));
    } else if (u < 0.80) {  // box range (1 in 4 far away -> empty result)
      auto corner = fresh();
      if (par::rand_range(seed + 8, i, 4) == 0) corner[0] += 100 * side;
      point<D> ext;
      for (int d = 0; d < D; ++d) {
        ext[d] = side * 0.1 * par::rand_double(seed + 9, i);
      }
      reqs.push_back(
          query::request<D>::make_range(aabb<D>(corner, corner + ext)));
    } else {  // ball range
      reqs.push_back(query::request<D>::make_ball(
          fresh(), side * 0.1 * par::rand_double(seed + 10, i)));
    }
  }
  return reqs;
}

template <int D>
void run_oracle_stream(std::size_t initial_n, std::size_t num_ops,
                       std::size_t service_batch, uint64_t seed) {
  const auto initial = datagen::uniform<D>(initial_n, seed);
  const double side = std::sqrt(static_cast<double>(std::max<std::size_t>(
      initial_n, 1)));
  const auto reqs =
      make_oracle_stream<D>(num_ops, side > 0 ? side : 1.0, initial, seed);

  auto service = make_service<D>();
  service.bootstrap(initial);
  testutil::reference_index<D> ref;
  ref.bootstrap(initial);

  for (std::size_t off = 0; off < reqs.size(); off += service_batch) {
    const std::size_t end = std::min(reqs.size(), off + service_batch);
    std::vector<query::request<D>> batch(reqs.begin() + off,
                                         reqs.begin() + end);
    auto result = service.execute(batch);
    auto want = ref.execute(batch);
    expect_same_responses<D>(batch, result.responses, want.responses);
  }
  EXPECT_EQ(service.size(), ref.size());
  expect_same_multiset<D>(service.gather(), ref.gather());
}

}  // namespace

TEST(QueryEngineOracle, MixedStreamMatchesOracle2D) {
  run_oracle_stream<2>(400, 900, 64, 7);
}

TEST(QueryEngineOracle, MixedStreamMatchesOracle3D) {
  run_oracle_stream<3>(300, 600, 48, 11);
}

TEST(QueryEngineOracle, StartsEmpty) {
  run_oracle_stream<2>(0, 400, 32, 13);
}

TEST(QueryEngineOracle, EmptyIndexQueriesReturnNothing) {
  auto service = make_service<2>();
  std::vector<query::request<2>> batch{
      query::request<2>::make_knn(point<2>{{1, 2}}, 5),
      query::request<2>::make_range(
          aabb<2>(point<2>{{-5, -5}}, point<2>{{5, 5}})),
      query::request<2>::make_ball(point<2>{{0, 0}}, 50.0),
      query::request<2>::make_erase(point<2>{{1, 2}}),
  };
  auto result = service.execute(batch);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(result.responses[i].points.empty());
  EXPECT_EQ(service.size(), 0u);
}

TEST(QueryEngineOracle, DuplicatePointsKnn) {
  auto service = make_service<2>();
  const point<2> dup{{3, 4}};
  std::vector<query::request<2>> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(query::request<2>::make_insert(dup));
  }
  batch.push_back(query::request<2>::make_insert(point<2>{{50, 50}}));
  batch.push_back(query::request<2>::make_knn(dup, 5));
  batch.push_back(query::request<2>::make_ball(dup, 0.5));
  auto result = service.execute(batch);
  const auto& knn = result.responses[11].points;
  ASSERT_EQ(knn.size(), 5u);
  for (const auto& p : knn) EXPECT_EQ(p.dist_sq(dup), 0.0);
  EXPECT_EQ(result.responses[12].points.size(), 10u);
  EXPECT_EQ(service.size(), 11u);
}

TEST(QueryEngineOracle, KnnKZeroReturnsEmptyRows) {
  query::spatial_index<2> idx;
  idx.build(datagen::uniform<2>(100, 5));
  auto rows = idx.batch_knn(datagen::uniform<2>(10, 6), 0);
  ASSERT_EQ(rows.size(), 10u);
  for (const auto& r : rows) EXPECT_TRUE(r.empty());
}

TEST(QueryEngine, PhaseGroupingPreservesOrder) {
  auto service = make_service<2>();
  const point<2> a{{1, 1}}, b{{2, 2}};
  std::vector<query::request<2>> batch{
      query::request<2>::make_insert(a),
      query::request<2>::make_insert(b),
      query::request<2>::make_knn(a, 1),
      query::request<2>::make_erase(a),
      query::request<2>::make_knn(a, 1),
      query::request<2>::make_ball(b, 0.1),
  };
  auto result = service.execute(batch);
  // Phases: [insert x2][read x1][erase x1][read x2]. Each response carries
  // its request's kind, in submission order.
  ASSERT_EQ(result.responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.responses[i].kind, batch[i].kind) << "request " << i;
  }
  // The knn before the erase sees `a`; the one after does not.
  ASSERT_EQ(result.responses[2].points.size(), 1u);
  EXPECT_EQ(result.responses[2].points[0], a);
  ASSERT_EQ(result.responses[4].points.size(), 1u);
  EXPECT_EQ(result.responses[4].points[0], b);
}

TEST(QueryEngine, KnnShardsByK) {
  // One read phase mixing k values still answers each request with its k.
  auto service = make_service<2>();
  service.bootstrap(datagen::uniform<2>(200, 3));
  std::vector<query::request<2>> batch;
  const auto q = datagen::uniform<2>(1, 4)[0];
  for (std::size_t k : {1u, 7u, 3u, 7u, 1u, 0u}) {
    batch.push_back(query::request<2>::make_knn(q, k));
  }
  auto result = service.execute(batch);
  ASSERT_EQ(result.responses.size(), batch.size());
  const std::size_t want[] = {1, 7, 3, 7, 1, 0};
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.responses[i].points.size(), want[i]) << "request " << i;
  }
}

TEST(Workload, RunWorkloadMatchesReference) {
  // run_workload drives the service and the brute-force reference through
  // the same uniform stream; every response must agree.
  query::workload_spec spec;
  spec.initial_points = 300;
  spec.num_ops = 800;
  spec.batch_size = 128;
  spec.k = 4;
  auto service = make_service<2>();
  std::vector<query::response<2>> got;
  std::vector<double> latencies;
  query::run_workload<2>(service, spec, &got, &latencies);
  // One measured latency per ticket: the stream runs in 7 batches.
  EXPECT_EQ(latencies.size(), 7u);
  for (double l : latencies) EXPECT_GT(l, 0.0);
  testutil::reference_index<2> ref;
  std::vector<query::response<2>> want;
  query::run_workload<2>(ref, spec, &want);
  expect_same_responses<2>(query::make_requests<2>(spec), got, want);
  expect_same_multiset<2>(service.gather(), ref.gather());
}
