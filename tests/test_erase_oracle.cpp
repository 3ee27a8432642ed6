// Erase-path oracle (satellite of the continuous-query PR): TTL expiry
// retires points through batch_erase groups racing the regular drain
// pipeline, so the erase path needs its own adversarial coverage. An
// erase-heavy churn stream — plus deliberately nasty shapes: duplicate
// points inside one batch, erases of points that were never inserted,
// erase-then-reinsert of the same coordinate — runs through the sharded
// service with pipelined concurrent drains on every backend, and every
// response plus the final resident set must match an unsharded reference
// engine executing the same stream sequentially.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "query/query_service.h"
#include "query/workload.h"
#include "test_query_util.h"

using namespace pargeo;
using query::backend;
using query::shard_policy;
using testutil::expect_same_responses;

namespace {

point<2> pt(double x, double y) {
  point<2> p;
  p[0] = x;
  p[1] = y;
  return p;
}

// Runs `reqs` through a sharded service (async pipelined submits, so write
// groups drain concurrently across lanes) and through an unsharded
// reference engine sequentially, then compares every response and the
// final resident multiset.
void run_against_reference(backend b, shard_policy policy,
                           const std::vector<point<2>>& initial,
                           const std::vector<query::request<2>>& reqs) {
  query::query_engine<2> reference(query::make_index<2>(backend::kdtree));
  reference.bootstrap(initial);
  const auto want = reference.execute(reqs);

  query::service_config cfg;
  cfg.backend = b;
  cfg.shards = 4;
  cfg.policy = policy;
  query::query_service<2> service(cfg);
  service.bootstrap(initial);

  // Pipelined submission: keep many batches in flight at once so erase
  // groups execute concurrently across shard lanes, but from one thread
  // so the global submission order (and therefore the oracle comparison)
  // stays well defined.
  const std::size_t batch = 64;
  std::vector<query::completion<2>> inflight;
  for (std::size_t off = 0; off < reqs.size(); off += batch) {
    const std::size_t end = std::min(reqs.size(), off + batch);
    inflight.push_back(service.submit(
        std::vector<query::request<2>>(reqs.begin() + off,
                                       reqs.begin() + end)));
  }
  std::vector<query::response<2>> got;
  for (auto& c : inflight) {
    auto r = c.get();
    got.insert(got.end(), std::make_move_iterator(r.responses.begin()),
               std::make_move_iterator(r.responses.end()));
  }
  expect_same_responses<2>(reqs, got, want.responses);

  auto have = service.gather();
  auto expect = reference.index().gather();
  std::sort(have.begin(), have.end());
  std::sort(expect.begin(), expect.end());
  ASSERT_EQ(have.size(), expect.size());
  ASSERT_EQ(have, expect);
}

class EraseOracle : public ::testing::TestWithParam<backend> {};

// Erase-heavy churn: departures outnumber arrivals, so the stream keeps
// erasing points that recently existed (the FIFO-churn order TTL expiry
// retires them in), interleaved with enough reads to catch a stale or
// double-freed slot immediately.
TEST_P(EraseOracle, EraseHeavyChurnMatchesReference) {
  auto spec = query::make_churn_spec(600, 2000, 0.20, 0.30);
  spec.seed = 11;
  auto initial = query::make_initial<2>(spec);
  const auto reqs = query::make_requests<2>(spec, initial);
  run_against_reference(GetParam(), shard_policy::hash, initial, reqs);
}

// Same stream under spatial striping: erases must route to the owner
// stripe, and a mis-route would strand the point (caught by the final
// gather comparison).
TEST_P(EraseOracle, EraseHeavyChurnSpatialPolicy) {
  auto spec = query::make_churn_spec(600, 1500, 0.25, 0.35);
  spec.seed = 13;
  auto initial = query::make_initial<2>(spec);
  const auto reqs = query::make_requests<2>(spec, initial);
  run_against_reference(GetParam(), shard_policy::spatial, initial, reqs);
}

// Duplicate coordinates inside one batch — inserted twice, erased once,
// erased again, re-inserted — plus erases of points that never existed.
// The service must agree with the reference on every intermediate read
// and on what survives.
TEST_P(EraseOracle, DuplicateAndMissingPointEdgeCases) {
  std::vector<point<2>> initial;
  for (int i = 0; i < 64; ++i) initial.push_back(pt(i % 8, i / 8));

  std::vector<query::request<2>> reqs;
  const aabb<2> everything(pt(-100, -100), pt(100, 100));
  const auto probe = [&] {
    reqs.push_back(query::request<2>::make_range(everything));
    reqs.push_back(query::request<2>::make_knn(pt(3.5, 3.5), 12));
  };

  // Duplicate inserts of a coordinate that already exists, then erase it.
  reqs.push_back(query::request<2>::make_insert(pt(3, 3)));
  reqs.push_back(query::request<2>::make_insert(pt(3, 3)));
  probe();
  reqs.push_back(query::request<2>::make_erase(pt(3, 3)));
  probe();
  reqs.push_back(query::request<2>::make_erase(pt(3, 3)));
  probe();

  // Erase points that were never inserted (inside and outside the bbox).
  reqs.push_back(query::request<2>::make_erase(pt(3.25, 3.25)));
  reqs.push_back(query::request<2>::make_erase(pt(-50, 99)));
  probe();

  // Erase-then-reinsert the same coordinate within one batch window.
  reqs.push_back(query::request<2>::make_erase(pt(5, 5)));
  reqs.push_back(query::request<2>::make_insert(pt(5, 5)));
  probe();

  // A batch that erases the same missing point many times over.
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(query::request<2>::make_erase(pt(42, 42)));
  }
  probe();

  run_against_reference(GetParam(), shard_policy::hash, initial, reqs);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, EraseOracle,
    ::testing::Values(backend::kdtree, backend::zdtree, backend::bdltree),
    [](const auto& info) { return query::backend_name(info.param); });

}  // namespace
