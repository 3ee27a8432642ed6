// Adversarial-skew oracle for the drain pipeline: a stream whose writes
// all land in one spatial stripe collapses per-shard routing onto one
// lane — exactly the scenario online stripe rebalancing
// (rebalance_threshold) exists for. The oracle runs that stream through a
// 4-shard service, with and without rebalancing, and demands the
// responses and the stored multiset match the brute-force reference
// (test_query_util.h) executing the stream sequentially. Mechanism tests
// then prove the counters move: rebalancing actually re-stripes, migrates
// points, and flattens the shard sizes. TSan-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "query/query_service.h"
#include "query/workload.h"
#include "test_query_util.h"

using namespace pargeo;
using query::op;
using query::shard_policy;

namespace {

// Spins until `done()` holds, failing after a generous timeout instead of
// hanging the suite.
template <class Pred>
void wait_until(const Pred& done, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Rebalancing migrates points on the drain thread, and the `rebalances`
// counter a test polls is relaxed. An empty ticket drains behind the
// migration, so its completion orders the migrated shard state before
// the caller's direct size()/gather() inspection.
void fence_drain_thread(query::query_service<2>& service) {
  service.execute({});
}

// The adversarial stream: uniform bootstrap carves balanced stripes, then
// every payload point concentrates in one corner cube (dist=skewed), so
// under spatial routing nearly all writes hit one shard. Insert-heavy so
// the skew actually accumulates mass.
query::workload_spec make_skew_spec() {
  query::workload_spec spec;
  spec.initial_points = 400;
  spec.num_ops = 1200;
  spec.batch_size = 64;
  spec.k = 6;
  spec.dist = query::distribution::skewed;
  spec.skew_frac = 0.08;
  spec.insert_frac = 0.35;
  spec.erase_frac = 0.05;
  spec.knn_frac = 0.35;
  spec.range_frac = 0.125;
  spec.ball_frac = 0.125;
  return spec;
}

using testutil::expect_same_responses;

struct skew_run {
  std::vector<query::response<2>> responses;
  std::vector<point<2>> contents;  // sorted gather()
  query::service_stats stats;
};

skew_run run_skewed(double rebalance_threshold,
                    const query::workload_spec& spec) {
  query::service_config cfg;
  cfg.shards = 4;
  cfg.policy = shard_policy::spatial;
  cfg.rebalance_threshold = rebalance_threshold;
  query::query_service<2> service(cfg);
  skew_run run;
  query::run_workload<2>(service, spec, &run.responses);
  service.close();
  run.contents = service.gather();
  std::sort(run.contents.begin(), run.contents.end());
  run.stats = service.stats();
  return run;
}

// The reference: the brute-force multiset executing the stream
// sequentially.
skew_run run_reference(const query::workload_spec& spec) {
  testutil::reference_index<2> ref;
  skew_run run;
  query::run_workload<2>(ref, spec, &run.responses);
  run.contents = ref.gather();
  std::sort(run.contents.begin(), run.contents.end());
  return run;
}

}  // namespace

TEST(SkewOracle, MatchesUnshardedReference) {
  const auto spec = make_skew_spec();
  const auto reqs = query::make_requests<2>(spec);

  const auto reference = run_reference(spec);

  for (const double rebal : {0.0, 1.2}) {
    const auto got = run_skewed(rebal, spec);
    SCOPED_TRACE("rebalance=" + std::to_string(rebal));
    expect_same_responses(reqs, got.responses, reference.responses);
    // The stored multiset survives migration byte for byte.
    EXPECT_EQ(got.contents, reference.contents);
    if (rebal > 0) {
      // Skewed inserts push the hot shard past 1.2x the mean early on:
      // the rebalancer must have engaged (and stats must say so).
      EXPECT_GE(got.stats.rebalances, 1u);
      EXPECT_GT(got.stats.rebalance_moved, 0u);
    } else {
      EXPECT_EQ(got.stats.rebalances, 0u);
    }
  }
}

TEST(SkewDrain, RebalanceFlattensShardSizesAndKeepsContents) {
  // Deterministic skew: bootstrap balanced, then pour inserts into one
  // stripe through execute(). The rebalancer must re-derive the bounds,
  // migrate mass off the hot shard, record it in service_stats, and keep
  // the stored multiset (and subsequent answers) exact.
  query::service_config cfg;
  cfg.shards = 4;
  cfg.policy = shard_policy::spatial;
  cfg.rebalance_threshold = 1.2;
  query::query_service<2> service(cfg);
  const auto initial = datagen::uniform<2>(400, 9);
  service.bootstrap(initial);
  const double side = std::sqrt(400.0);

  std::vector<point<2>> hot;
  std::vector<query::request<2>> writes;
  for (int i = 0; i < 600; ++i) {
    // Hot corner cube, well inside the first quartile stripe on either
    // dimension — the split dim is whichever the bootstrap box was
    // (marginally) widest on, so the cube must be hot on both.
    const point<2> p{{side / 16.0 * ((i % 13) / 13.0),
                      side / 16.0 * ((i % 29) / 29.0)}};
    hot.push_back(p);
    writes.push_back(query::request<2>::make_insert(p));
  }
  service.execute(writes);

  // The rebalance runs on the drain thread after the write group is
  // fulfilled, so execute() returning does not mean it is recorded yet.
  wait_until([&] { return service.stats().rebalances >= 1; },
             "rebalance never triggered on the skewed write group");
  fence_drain_thread(service);
  const auto stats = service.stats();
  EXPECT_GE(stats.rebalances, 1u);
  EXPECT_GT(stats.rebalance_moved, 0u);
  EXPECT_EQ(service.size(), 1000u);

  // Post-rebalance the hot mass is spread: no shard holds almost
  // everything anymore (4 shards, threshold 1.2 => max well under 60%).
  std::size_t max_shard = 0;
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    max_shard = std::max(max_shard, service.shard(s).size());
  }
  EXPECT_LT(max_shard, 600u);

  // Contents are the exact multiset, and reads over the migrated space
  // match a fresh unsharded reference.
  auto got = service.gather();
  std::vector<point<2>> want = initial;
  want.insert(want.end(), hot.begin(), hot.end());
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);

  query::service_config ref_cfg;
  ref_cfg.shards = 1;
  query::query_service<2> reference(ref_cfg);
  reference.bootstrap(want);
  std::vector<query::request<2>> reads;
  for (int i = 0; i < 8; ++i) {
    reads.push_back(query::request<2>::make_knn(
        point<2>{{side * i / 8.0, side / 2}}, 5));
    reads.push_back(query::request<2>::make_ball(
        point<2>{{side * i / 8.0, side / 2}}, side / 10.0));
  }
  auto got_r = service.execute(reads);
  auto want_r = reference.execute(reads);
  expect_same_responses(reads, got_r.responses, want_r.responses);
}

TEST(SkewDrain, RebalanceKeepsAnswersExact) {
  // A skewed run that migrates points answers like the reference.
  const auto spec = make_skew_spec();
  const auto got = run_skewed(1.2, spec);
  expect_same_responses(query::make_requests<2>(spec), got.responses,
                        run_reference(spec).responses);
  EXPECT_GE(got.stats.rebalances, 1u);

  // Targeted probe: answer a k-NN query, trigger a rebalance that changes
  // the true answer, and demand the re-query sees the migrated points.
  query::service_config cfg;
  cfg.shards = 4;
  cfg.policy = shard_policy::spatial;
  cfg.rebalance_threshold = 1.2;
  query::query_service<2> svc(cfg);
  const auto initial = datagen::uniform<2>(400, 9);
  svc.bootstrap(initial);
  const double side = std::sqrt(400.0);
  const auto q =
      query::request<2>::make_knn(point<2>{{side * 0.03, side * 0.03}}, 3);
  svc.execute({q});

  std::vector<query::request<2>> block;
  for (int i = 0; i < 600; ++i) {
    block.push_back(query::request<2>::make_insert(
        point<2>{{side / 16.0 * ((i % 13) / 13.0),
                  side / 16.0 * ((i % 29) / 29.0)}}));
  }
  svc.execute(block);  // floods q's neighborhood; skew triggers rebalance
  wait_until([&] { return svc.stats().rebalances >= 1; },
             "rebalance never triggered by the hot block");

  query::service_config ref_cfg;
  ref_cfg.shards = 1;
  query::query_service<2> reference(ref_cfg);
  reference.bootstrap(initial);
  reference.execute(block);
  auto got_q = svc.execute({q});
  auto want_q = reference.execute({q});
  expect_same_responses<2>({q}, got_q.responses, want_q.responses);
}

TEST(SkewDrain, RebalanceChasesDriftAtFlatResidentTotal) {
  // Regression for the trigger backoff: a balanced insert/erase stream
  // keeps the resident TOTAL flat while the hot region moves to another
  // stripe. The backoff must key on writes routed (which keep flowing),
  // not total drift (which is zero) — a total-drift backoff rebalances
  // once and then never chases the drift again.
  query::service_config cfg;
  cfg.shards = 4;
  cfg.policy = shard_policy::spatial;
  cfg.rebalance_threshold = 1.2;
  query::query_service<2> svc(cfg);
  svc.bootstrap(datagen::uniform<2>(400, 9));
  const double side = std::sqrt(400.0);

  // Phase 1: pour mass into the origin corner — first rebalance.
  std::vector<point<2>> hot;
  std::vector<query::request<2>> phase1;
  for (int i = 0; i < 500; ++i) {
    const point<2> p{{side / 16.0 * ((i % 13) / 13.0),
                      side / 16.0 * ((i % 29) / 29.0)}};
    hot.push_back(p);
    phase1.push_back(query::request<2>::make_insert(p));
  }
  svc.execute(phase1);
  wait_until([&] { return svc.stats().rebalances >= 1; },
             "first rebalance never triggered");

  // Phase 2: the hot region jumps to the opposite corner; every insert is
  // paired with an erase of a phase-1 point, so the total never moves.
  std::vector<query::request<2>> phase2;
  for (int i = 0; i < 500; ++i) {
    phase2.push_back(query::request<2>::make_insert(
        point<2>{{side * (0.95 + 0.04 * ((i % 13) / 13.0)),
                  side * (0.95 + 0.04 * ((i % 29) / 29.0))}}));
    phase2.push_back(query::request<2>::make_erase(hot[i]));
  }
  svc.execute(phase2);
  wait_until([&] { return svc.stats().rebalances >= 2; },
             "rebalance never chased the drifted hot region");
  fence_drain_thread(svc);
  EXPECT_EQ(svc.size(), 900u);
}

TEST(SkewDrain, DriftingHotRegionStaysExact) {
  // The drifting mode moves the hot cube across the space mid-stream —
  // stripes balanced for the early mass go stale. Responses must still
  // match the reference with rebalancing chasing the drift.
  auto spec = make_skew_spec();
  spec.dist = query::distribution::drifting;
  const auto reqs = query::make_requests<2>(spec);
  const auto reference = run_reference(spec);
  const auto got = run_skewed(1.2, spec);
  expect_same_responses(reqs, got.responses, reference.responses);
  EXPECT_EQ(got.contents, reference.contents);
  EXPECT_GE(got.stats.rebalances, 1u);
}
