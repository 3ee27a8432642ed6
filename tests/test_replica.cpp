// Replicated read tier (query/oplog.h + query/replica.h). The core
// contract under test is the convergence oracle: replaying the primary's
// op log into a fresh replica yields BYTE-IDENTICAL k-NN / range-box /
// range-ball results at every epoch boundary — not merely
// distance-equivalent (ties must break the same way, because replay
// re-issues the primary's exact backend-call sequence and therefore
// rebuilds the same tree). Covered for client writes, plus the write
// paths that do not come from clients:
// TTL-expiry sweeps and stripe rebalances. On top sit the router
// semantics: writes to the primary, reads scattered under the staleness
// bound, read-your-writes via commit_epoch floors, and primary fallback
// when no replica qualifies. Replay refuses a log of another topology
// (unknown shards, stripe cuts for another shard count), and a live tail
// fed one quarantines its replica.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query/oplog.h"
#include "query/query_service.h"
#include "query/replica.h"
#include "query/workload.h"

using namespace pargeo;
using query::log_group;
using query::log_op;
using query::log_origin;
using query::log_record;
using query::op_log;
using query::replica_router;
using query::replica_set;
using query::shard_policy;

namespace {

point<2> pt(double x, double y) {
  point<2> p;
  p[0] = x;
  p[1] = y;
  return p;
}

template <class Pred>
void wait_until(Pred&& pred, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      FAIL() << "timed out waiting for: " << what;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// A probe batch whose answers are sensitive to both membership and tree
// structure: two k-NN queries (tie order exposes build differences), a
// box, and a ball.
std::vector<query::request<2>> probe_batch() {
  std::vector<query::request<2>> reqs;
  reqs.push_back(query::request<2>::make_knn(pt(0.5, 0.5), 8));
  reqs.push_back(query::request<2>::make_knn(pt(0.1, 0.9), 3));
  reqs.push_back(query::request<2>::make_range(
      aabb<2>(pt(0.2, 0.2), pt(0.8, 0.8))));
  reqs.push_back(query::request<2>::make_ball(pt(0.5, 0.5), 0.3));
  return reqs;
}

// The oracle compares raw point vectors with operator== — deliberately
// NOT testutil::expect_same_responses, which tolerates k-NN tie
// divergence. Replicas owe the primary exact bytes.
std::vector<std::vector<point<2>>> rows(
    const std::vector<query::response<2>>& responses) {
  std::vector<std::vector<point<2>>> out;
  out.reserve(responses.size());
  for (const auto& resp : responses) out.push_back(resp.points);
  return out;
}

void expect_replica_matches_primary(query::query_service<2>& primary,
                                    query::query_service<2>& replica,
                                    const char* at) {
  const auto want = rows(primary.execute(probe_batch()).responses);
  const auto got = rows(replica.execute(probe_batch()).responses);
  EXPECT_EQ(got, want) << "probe divergence " << at;
}

void expect_same_resident_set(query::query_service<2>& primary,
                              query::query_service<2>& replica,
                              const char* at) {
  auto want = primary.gather();
  auto got = replica.gather();
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want) << "resident-set divergence " << at;
}

// Placement, not only the union: shard by shard, the primary holds what
// its log says, so each shard's sorted resident set equals the replica's.
void expect_same_shards(query::query_service<2>& primary,
                        query::query_service<2>& replica, const char* at) {
  primary.wait_lanes_idle();
  replica.wait_lanes_idle();
  ASSERT_EQ(replica.num_shards(), primary.num_shards());
  for (std::size_t s = 0; s < primary.num_shards(); ++s) {
    auto want = primary.shard(s).gather();
    auto got = replica.shard(s).gather();
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "shard " << s << " divergence " << at;
  }
}

// Drive a churn stream through the primary one batch (= one epoch) at a
// time; after every commit, pump a tail-less replica to the log head and
// demand byte-identical probe answers. This is the oracle at EVERY epoch
// boundary, not just the end state.
TEST(ReplicaConvergence, ByteIdenticalAtEveryEpochBoundary) {
  auto spec = query::make_churn_spec(400, 960, 0.25, 0.30);
  spec.seed = 29;
  const auto initial = query::make_initial<2>(spec);
  const auto reqs = query::make_requests<2>(spec, initial);

  query::service_config cfg;
  cfg.shards = 4;
  cfg.policy = shard_policy::hash;

  auto log = std::make_shared<op_log<2>>();
  query::query_service<2> primary(cfg);
  primary.attach_log(log);
  primary.bootstrap(initial);
  ASSERT_EQ(log->head(), 1u) << "bootstrap must commit as epoch 1";

  replica_set<2> reps(log, cfg, 1, /*start_tails=*/false);
  reps.pump();
  expect_replica_matches_primary(primary, reps.replica(0), "after bootstrap");

  const std::size_t batch = 48;
  for (std::size_t off = 0; off < reqs.size(); off += batch) {
    const std::size_t end = std::min(reqs.size(), off + batch);
    primary.execute(std::vector<query::request<2>>(reqs.begin() + off,
                                                   reqs.begin() + end));
    reps.pump();
    EXPECT_EQ(reps.applied_epoch(0), log->head());
    expect_replica_matches_primary(primary, reps.replica(0),
                                   "at epoch boundary");
    expect_same_shards(primary, reps.replica(0), "at epoch boundary");
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
  expect_same_resident_set(primary, reps.replica(0), "at end of stream");

  const auto rst = reps.replica(0).stats();
  EXPECT_GT(rst.replayed_groups, 1u);
  EXPECT_GT(rst.replayed_records, 0u);
  EXPECT_EQ(rst.replay_errors, 0u);
  EXPECT_EQ(rst.applied_epoch, log->head());
  EXPECT_EQ(primary.stats().log_epoch, log->head());
}

// TTL expiry is a write the client never submitted: the primary's sweep
// must land in the log as origin=expire erase groups and replay into the
// replica (whose own TTL machinery is disabled) byte-identically.
TEST(ReplicaReplay, TtlExpirySweepsReplicate) {
  auto clock = std::make_shared<std::atomic<std::uint64_t>>(1);
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;
  cfg.point_ttl_ns = 1000;
  cfg.ttl_now = [clock] { return clock->load(); };

  auto log = std::make_shared<op_log<2>>();
  query::query_service<2> primary(cfg);
  primary.attach_log(log);
  std::vector<point<2>> boot;
  for (int i = 0; i < 64; ++i) boot.push_back(pt((i % 8) / 8.0, (i / 8) / 8.0));
  primary.bootstrap(boot);

  clock->store(500);
  primary.execute({query::request<2>::make_insert(pt(0.5, 0.5))});  // ~1500
  clock->store(1200);  // bootstrap points due, the insert not yet
  wait_until([&] { return primary.stats().expired_points >= 64; },
             "TTL sweep retires the bootstrap points");
  // The sweep's erase group is logged before the lane fan-out and the
  // counter bumps at dispatch, so the log (and a pumped replica) can
  // briefly run AHEAD of the primary's own backends. A completed read
  // batch is a barrier: it scatters to every shard behind the expire
  // group in lane order, so its completion implies the sweep applied.
  primary.execute({query::request<2>::make_knn(pt(0.5, 0.5), 1)});
  primary.wait_lanes_idle();

  bool saw_expire_group = false;
  for (const auto& g : log->read_from(0)) {
    if (g.origin == log_origin::expire) {
      saw_expire_group = true;
      for (const auto& r : g.records) EXPECT_EQ(r.kind, log_op::erase);
    }
  }
  EXPECT_TRUE(saw_expire_group) << "sweep must be logged as origin=expire";

  replica_set<2> reps(log, cfg, 1, /*start_tails=*/false);
  reps.pump();
  expect_same_resident_set(primary, reps.replica(0), "after expiry replay");
  expect_replica_matches_primary(primary, reps.replica(0),
                                 "after expiry replay");
  // The replica's own expiry machinery must stay off: its config has no
  // clock, so the surviving point only ever leaves via a logged sweep.
  EXPECT_EQ(reps.replica(0).stats().expired_points, 0u);
}

// Stripe rebalancing migrates points between shards and swaps bounds —
// both must replicate (a replica pruning reads under stale bounds would
// answer from the wrong shards).
TEST(ReplicaReplay, StripeRebalanceReplicates) {
  query::service_config cfg;
  cfg.shards = 4;
  cfg.policy = shard_policy::spatial;
  cfg.rebalance_threshold = 1.2;

  auto log = std::make_shared<op_log<2>>();
  query::query_service<2> primary(cfg);
  primary.attach_log(log);
  std::vector<point<2>> boot;
  for (int i = 0; i < 256; ++i) {
    boot.push_back(pt((i % 16) / 16.0, (i / 16) / 16.0));
  }
  primary.bootstrap(boot);

  // Pile inserts into one corner stripe until the skew trips a rebalance.
  std::size_t burst = 0;
  while (primary.stats().rebalances == 0 && burst < 64) {
    std::vector<query::request<2>> b;
    for (int i = 0; i < 32; ++i) {
      b.push_back(query::request<2>::make_insert(
          pt(0.01 + 0.001 * double(burst), 0.01 + 0.0001 * i)));
    }
    primary.execute(std::move(b));
    ++burst;
  }
  ASSERT_GE(primary.stats().rebalances, 1u) << "skew burst must rebalance";
  // A second rebalance can fire at the drain boundary right after the
  // final burst group, concurrent with the comparison below. A completed
  // read batch is a barrier: the drain thread is past that boundary once
  // it serves the read, and a read boundary adds no writes, so no
  // further rebalance can trigger afterwards.
  primary.execute({query::request<2>::make_knn(pt(0.5, 0.5), 1)});
  primary.wait_lanes_idle();

  bool saw_rebalance_group = false;
  for (const auto& g : log->read_from(0)) {
    if (g.origin == log_origin::rebalance) {
      saw_rebalance_group = true;
      EXPECT_TRUE(g.has_bounds) << "rebalance group must carry new bounds";
    }
  }
  EXPECT_TRUE(saw_rebalance_group);

  replica_set<2> reps(log, cfg, 1, /*start_tails=*/false);
  reps.pump();
  expect_same_resident_set(primary, reps.replica(0), "after rebalance replay");
  expect_same_shards(primary, reps.replica(0), "after rebalance replay");
  expect_replica_matches_primary(primary, reps.replica(0),
                                 "after rebalance replay");
  // The replica never rebalances on its own — it replays the primary's.
  EXPECT_EQ(reps.replica(0).stats().rebalances, 0u);
}

// ---- replay plumbing ------------------------------------------------------

TEST(ReplicaReplay, RejectsRecordsForUnknownShards) {
  query::service_config cfg;
  cfg.shards = 2;
  query::query_service<2> service(cfg);
  service.bootstrap({pt(0, 0)});

  log_group<2> g;
  g.epoch = 1;
  log_record<2> r;
  r.shard = 7;  // log from a wider topology
  r.kind = log_op::insert;
  r.pts = {pt(1, 1)};
  g.records.push_back(std::move(r));
  EXPECT_THROW(service.apply_replayed(std::move(g)), std::invalid_argument);
}

TEST(ReplicaReplay, RejectsStripeCutsForAnotherShardCount) {
  query::service_config cfg;
  cfg.shards = 3;
  cfg.policy = shard_policy::spatial;
  query::query_service<2> service(cfg);

  log_group<2> g;  // a 2-shard primary's stripes: one cut
  g.epoch = 1;
  g.origin = log_origin::bootstrap;
  g.has_bounds = true;
  g.cuts = {0.5};
  EXPECT_THROW(service.apply_replayed(std::move(g)), std::invalid_argument);
}

// A live tail fed a log of another topology quarantines its replica (the
// router then stops reading from it) instead of ending silently.
TEST(ReplicaSet, LiveTailOfAnotherTopologyQuarantines) {
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::spatial;
  auto log = std::make_shared<op_log<2>>();
  query::query_service<2> primary(cfg);
  primary.attach_log(log);
  primary.bootstrap({pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3)});

  query::service_config wide = cfg;
  wide.shards = 3;
  replica_set<2> reps(log, wide, 1, /*start_tails=*/true);
  wait_until([&] { return reps.tail_failed(); }, "tail quarantines");
  EXPECT_EQ(reps.health(0), query::replica_health::quarantined);
  EXPECT_NE(reps.tail_error().find("stripe cuts"), std::string::npos)
      << reps.tail_error();
  reps.close();
}

TEST(ReplicaSet, PumpWithLiveTailsThrows) {
  auto log = std::make_shared<op_log<2>>();
  query::service_config cfg;
  cfg.shards = 2;
  replica_set<2> reps(log, cfg, 1, /*start_tails=*/true);
  EXPECT_THROW(reps.pump(), std::logic_error);
  reps.close();
}

TEST(ReplicaSet, NullLogRejected) {
  query::service_config cfg;
  EXPECT_THROW(replica_set<2>(nullptr, cfg, 1), std::invalid_argument);
}

// ---- router ---------------------------------------------------------------

TEST(ReplicaRouter, ReadYourWritesViaCommitEpochFloor) {
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;

  auto log = std::make_shared<op_log<2>>();
  query::query_service<2> primary(cfg);
  primary.attach_log(log);
  std::vector<point<2>> boot;
  for (int i = 0; i < 16; ++i) boot.push_back(pt(i / 16.0, i / 16.0));
  primary.bootstrap(boot);

  replica_set<2> reps(log, cfg, 2, /*start_tails=*/false);
  reps.pump();  // replicas caught up to the bootstrap epoch

  // max_epoch_lag = 0: replicas may only serve when fully caught up.
  replica_router<2> router(primary, reps, log, /*max_epoch_lag=*/0);

  // A write through the router lands on the primary and its completion
  // carries the commit epoch — the caller's read-your-writes floor.
  const auto wr =
      router.execute({query::request<2>::make_insert(pt(0.33, 0.33))});
  ASSERT_GT(wr.commit_epoch, 1u);
  EXPECT_EQ(wr.commit_epoch, log->head());
  EXPECT_EQ(router.stats().writes, 1u);

  const auto contains = [](const std::vector<std::vector<point<2>>>& rs,
                           const point<2>& p) {
    for (const auto& row : rs) {
      if (std::find(row.begin(), row.end(), p) != row.end()) return true;
    }
    return false;
  };

  // Replicas have not replayed that epoch: a read carrying the floor must
  // fall back to the primary (correct, counted) and still see the write.
  const auto before = router.execute(probe_batch(), wr.commit_epoch);
  EXPECT_TRUE(contains(rows(before.responses), pt(0.33, 0.33)));
  {
    const auto st = router.stats();
    EXPECT_EQ(st.reads_to_primary, 1u);
    EXPECT_EQ(st.fallbacks, 1u);
    EXPECT_EQ(st.reads_to_replicas, 0u);
  }

  // After the replicas catch up, the same floored read is served by a
  // replica — with the same bytes.
  reps.pump();
  const auto after = router.execute(probe_batch(), wr.commit_epoch);
  EXPECT_EQ(rows(after.responses), rows(before.responses));
  {
    const auto st = router.stats();
    EXPECT_EQ(st.reads_to_replicas, 1u);
    EXPECT_EQ(st.fallbacks, 1u) << "no new fallback once caught up";
  }
}

TEST(ReplicaRouter, StalenessBoundGatesEligibility) {
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;

  auto log = std::make_shared<op_log<2>>();
  query::query_service<2> primary(cfg);
  primary.attach_log(log);
  primary.bootstrap({pt(0.1, 0.1), pt(0.9, 0.9)});

  replica_set<2> reps(log, cfg, 1, /*start_tails=*/false);
  reps.pump();  // replica at epoch 1 (bootstrap)

  // Commit three more epochs the replica has not replayed.
  for (int i = 0; i < 3; ++i) {
    primary.execute({query::request<2>::make_insert(pt(0.2 + i * 0.1, 0.5))});
  }
  ASSERT_EQ(log->head(), 4u);
  ASSERT_EQ(reps.applied_epoch(0), 1u);

  // Lag bound 1 (< the replica's lag of 3): not eligible, fall back.
  replica_router<2> tight(primary, reps, log, /*max_epoch_lag=*/1);
  tight.execute(probe_batch());
  EXPECT_EQ(tight.stats().reads_to_primary, 1u);
  EXPECT_EQ(tight.stats().fallbacks, 1u);

  // Lag bound 3 (= the lag): the stale replica may serve the read.
  replica_router<2> loose(primary, reps, log, /*max_epoch_lag=*/3);
  loose.execute(probe_batch());
  EXPECT_EQ(loose.stats().reads_to_replicas, 1u);
  EXPECT_EQ(loose.stats().fallbacks, 0u);
}

// Live-tail smoke: tail threads stream the log concurrently with writes;
// replicas converge to the head and serve router reads, and teardown is
// clean (no gap, no replay errors).
TEST(ReplicaSet, LiveTailsConvergeUnderTraffic) {
  query::service_config cfg;
  cfg.shards = 4;
  cfg.policy = shard_policy::hash;

  auto spec = query::make_churn_spec(300, 600, 0.25, 0.30);
  spec.seed = 31;
  const auto initial = query::make_initial<2>(spec);
  const auto reqs = query::make_requests<2>(spec, initial);

  auto log = std::make_shared<op_log<2>>();
  query::query_service<2> primary(cfg);
  primary.attach_log(log);
  primary.bootstrap(initial);

  replica_set<2> reps(log, cfg, 2, /*start_tails=*/true);
  replica_router<2> router(primary, reps, log, /*max_epoch_lag=*/2);

  // Pipelined writes through the router while the tails chase the log.
  const std::size_t batch = 64;
  std::vector<query::completion<2>> inflight;
  for (std::size_t off = 0; off < reqs.size(); off += batch) {
    const std::size_t end = std::min(reqs.size(), off + batch);
    inflight.push_back(router.submit(std::vector<query::request<2>>(
        reqs.begin() + off, reqs.begin() + end)));
  }
  std::uint64_t last_commit = 0;
  for (auto& c : inflight) {
    const auto r = c.get();
    if (r.commit_epoch > last_commit) last_commit = r.commit_epoch;
  }

  wait_until([&] { return reps.min_applied_epoch() >= log->head(); },
             "tails reach the log head");
  ASSERT_FALSE(reps.tail_failed()) << reps.tail_error();

  // A floored read now scatters to a replica and matches the primary.
  const auto got = router.execute(probe_batch(), last_commit);
  const auto want = rows(primary.execute(probe_batch()).responses);
  EXPECT_EQ(rows(got.responses), want);
  EXPECT_GE(router.stats().reads_to_replicas, 1u);

  for (std::size_t i = 0; i < reps.size(); ++i) {
    // min_applied_epoch advances at lane dispatch; gather() inspects the
    // backends directly, so wait out the in-flight replay tasks first.
    reps.replica(i).wait_lanes_idle();
    expect_same_resident_set(primary, reps.replica(i), "live-tail replica");
    EXPECT_EQ(reps.replica(i).stats().replay_errors, 0u);
  }
  reps.close();
}

// The replication metrics page: per-replica applied/lag gauges and the
// router counters, appendable to the primary's metrics_text().
TEST(ReplicaMetrics, ExpositionCoversReplicasAndRouter) {
  query::service_config cfg;
  cfg.shards = 2;
  auto log = std::make_shared<op_log<2>>();
  query::query_service<2> primary(cfg);
  primary.attach_log(log);
  primary.bootstrap({pt(0.1, 0.1), pt(0.9, 0.9)});

  replica_set<2> reps(log, cfg, 2, /*start_tails=*/false);
  reps.pump();
  replica_router<2> router(primary, reps, log, /*max_epoch_lag=*/1);
  router.execute({query::request<2>::make_insert(pt(0.5, 0.5))});
  router.execute(probe_batch());

  const auto st = router.stats();
  const std::string text =
      query::replication_metrics_text<2>(reps, *log, &st);
  EXPECT_NE(text.find("pargeo_replica_applied_epoch{replica=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pargeo_replica_applied_epoch{replica=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pargeo_replica_lag{replica=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pargeo_router_batches_total{dest=\"primary_write\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pargeo_router_fallbacks_total"), std::string::npos);
}

}  // namespace
