// Oracle + lifecycle tests for the sharded, multi-producer, asynchronous
// query_service front door: sharded (spatial and hash, >= 4 shards)
// responses must match a 1-shard reference on mixed insert/erase/kNN/range
// streams; concurrent submitters (>= 4 threads) get their
// responses back in their own submission order; plus the completion-handle
// lifecycle (drain-without-waiters, callbacks firing exactly once, orderly
// close/destructor flush, double-get and empty-handle errors, results
// kept until their handles redeem them), ingest-window grouping,
// snapshot-path read groups, spatial bounds bootstrapping, per-shard
// drain pipelines (4 producers x 4 lanes, lane counters, scratch
// recycling), ingest backpressure
// (blocking submit / try_submit / close-while-blocked), config
// validation, non-finite payload rejection,
// degenerate/duplicate-coordinate stripe derivation, stripe cuts (from
// bootstrap, the first write group and a rebalance) and genesis routing
// against a sort-based reference, bdltree version
// reclamation at quiescence, and reads overtaken by a write drain counting
// as lagged. (The adversarial-skew
// oracle and rebalance mechanism tests live in tests/test_skew_drain.cpp.)
// TSan-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "parallel/random.h"
#include "query/query_service.h"
#include "query/workload.h"
#include "test_query_util.h"

using namespace pargeo;
using query::op;
using query::shard_policy;
using testutil::expect_same_responses;

namespace {

template <int D>
query::service_config make_config(std::size_t shards, shard_policy policy) {
  query::service_config cfg;
  cfg.shards = shards;
  cfg.policy = policy;
  return cfg;
}

template <int D>
query::query_service<D> make_service(std::size_t shards, shard_policy policy) {
  return query::query_service<D>(make_config<D>(shards, policy));
}

// Spins until `done()` holds (the drain pipeline is asynchronous), failing
// the test after a generous timeout instead of hanging it.
template <class Pred>
void wait_until(const Pred& done, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

template <int D>
void run_sharded_vs_reference(shard_policy policy, std::size_t shards) {
  query::workload_spec spec;
  spec.initial_points = 400;
  spec.num_ops = 1000;
  spec.batch_size = 128;
  spec.k = 6;
  // Mixed stream: defaults give 10% insert / 10% erase / 60% kNN /
  // 10% box / 10% ball.
  const auto reqs = query::make_requests<D>(spec);

  auto reference = make_service<D>(1, policy);
  std::vector<query::response<D>> want;
  query::run_workload<D>(reference, spec, &want);

  auto sharded = make_service<D>(shards, policy);
  std::vector<query::response<D>> got;
  query::run_workload<D>(sharded, spec, &got);

  expect_same_responses<D>(reqs, got, want);

  EXPECT_EQ(sharded.size(), reference.size());
  auto a = sharded.gather();
  auto e = reference.gather();
  std::sort(a.begin(), a.end());
  std::sort(e.begin(), e.end());
  EXPECT_EQ(a, e);
}

class QueryServiceOracle : public ::testing::TestWithParam<shard_policy> {};

}  // namespace

TEST_P(QueryServiceOracle, ShardedMatchesReference2D) {
  run_sharded_vs_reference<2>(GetParam(), 4);
}

TEST_P(QueryServiceOracle, ShardedMatchesReference3D) {
  run_sharded_vs_reference<3>(GetParam(), 5);
}

TEST_P(QueryServiceOracle, ShardedStartsEmptyMatchesReference) {
  // No bootstrap: spatial stripes must derive from the first write phase.
  const shard_policy policy = GetParam();
  query::workload_spec spec;
  spec.initial_points = 0;
  spec.num_ops = 600;
  spec.batch_size = 64;
  spec.k = 4;
  spec.insert_frac = 0.3;  // write-heavy so the index fills up
  const auto reqs = query::make_requests<2>(spec);

  auto reference = make_service<2>(1, policy);
  std::vector<query::response<2>> want;
  query::run_workload<2>(reference, spec, &want);

  auto sharded = make_service<2>(4, policy);
  std::vector<query::response<2>> got;
  query::run_workload<2>(sharded, spec, &got);

  expect_same_responses<2>(reqs, got, want);
  EXPECT_EQ(sharded.size(), reference.size());
}

TEST_P(QueryServiceOracle, BootstrapDistributesAcrossShards) {
  auto service = make_service<2>(4, GetParam());
  service.bootstrap(datagen::uniform<2>(400, 3));
  EXPECT_EQ(service.size(), 400u);
  std::size_t populated = 0;
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    populated += service.shard(s).size() > 0 ? 1 : 0;
  }
  // Quantile stripes and coordinate hashing both spread 400 uniform points
  // over every shard.
  EXPECT_EQ(populated, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, QueryServiceOracle,
    ::testing::Values(shard_policy::spatial, shard_policy::hash),
    [](const ::testing::TestParamInfo<shard_policy>& info) {
      return std::string(query::shard_policy_name(info.param));
    });

TEST(QueryServiceConcurrent, SubmittersGetOwnOrderBack) {
  // >= 4 truly parallel clients hammer one service. Each thread works in
  // its own coordinate stripe >= 1000 away from the others, so every
  // expected answer is independent of how tickets interleave globally;
  // position-encoded payloads verify that a completion returns exactly
  // that ticket's responses, in the caller's submission order.
  constexpr int kThreads = 4;
  constexpr int kTicketsPerThread = 6;
  constexpr int kPointsPerTicket = 3;

  auto service = make_service<2>(4, shard_policy::hash);
  service.bootstrap(datagen::uniform<2>(200, 5));
  const std::size_t initial = 200;

  auto thread_point = [](int t, int j, int i) {
    return point<2>{{1000.0 * (t + 1) + 10.0 * j + i, 7.0 * (t + 1)}};
  };

  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<query::completion<2>> tickets;
      tickets.reserve(kTicketsPerThread);
      for (int j = 0; j < kTicketsPerThread; ++j) {
        std::vector<query::request<2>> batch;
        for (int i = 0; i < kPointsPerTicket; ++i) {
          batch.push_back(query::request<2>::make_insert(thread_point(t, j, i)));
        }
        for (int i = 0; i < kPointsPerTicket; ++i) {
          batch.push_back(query::request<2>::make_knn(thread_point(t, j, i), 1));
        }
        batch.push_back(
            query::request<2>::make_ball(thread_point(t, j, 0), 0.5));
        tickets.push_back(service.submit(std::move(batch)));
      }
      // Redeem in submission order; every answer is position-encoded.
      for (int j = 0; j < kTicketsPerThread; ++j) {
        auto r = tickets[j].get();
        if (r.latency_seconds < 0) {
          errors[t] = "negative latency";
          return;
        }
        if (r.responses.size() !=
            static_cast<std::size_t>(2 * kPointsPerTicket + 1)) {
          errors[t] = "wrong response count for ticket " + std::to_string(j);
          return;
        }
        for (int i = 0; i < kPointsPerTicket; ++i) {
          const auto& row = r.responses[kPointsPerTicket + i];
          if (row.kind != op::knn || row.points.size() != 1 ||
              !(row.points[0] == thread_point(t, j, i))) {
            errors[t] = "ticket " + std::to_string(j) + " knn " +
                        std::to_string(i) + " answered out of order";
            return;
          }
        }
        const auto& ball = r.responses[2 * kPointsPerTicket];
        if (ball.kind != op::range_ball || ball.points.size() != 1 ||
            !(ball.points[0] == thread_point(t, j, 0))) {
          errors[t] = "ticket " + std::to_string(j) + " ball mismatch";
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], "") << "thread " << t;

  service.close();
  EXPECT_EQ(service.size(),
            initial + kThreads * kTicketsPerThread * kPointsPerTicket);
  const auto stats = service.stats();
  EXPECT_EQ(stats.num_tickets,
            static_cast<std::size_t>(kThreads * kTicketsPerThread));
  EXPECT_GE(stats.num_drains, 1u);
  EXPECT_EQ(stats.num_requests, static_cast<std::size_t>(
                                    kThreads * kTicketsPerThread *
                                    (2 * kPointsPerTicket + 1)));
}


TEST(QueryService, SubmitWithoutWaiterDrainsAlone) {
  // The acceptance property of the dedicated drain thread: a ticket nobody
  // blocks on still executes. Submit, never call get(), and watch the
  // drain counters advance on their own.
  auto service = make_service<2>(2, shard_policy::hash);
  std::vector<query::request<2>> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(query::request<2>::make_insert(point<2>{{1.0 * i, 2.0}}));
  }
  auto c = service.submit(std::move(batch));
  wait_until([&] { return service.stats().num_requests >= 8; },
             "drain thread never executed the un-waited ticket");
  EXPECT_TRUE(c.ready());
  auto r = c.get();  // instant: the result was already retained
  EXPECT_EQ(r.responses.size(), 8u);
  EXPECT_GE(r.latency_seconds, 0.0);
  service.close();
  EXPECT_EQ(service.size(), 8u);
}

TEST(QueryService, CallbacksFireExactlyOnce) {
  auto service = make_service<2>(2, shard_policy::hash);
  service.bootstrap(datagen::uniform<2>(100, 3));

  constexpr int kTickets = 12;
  std::vector<std::atomic<int>> fired(kTickets);
  for (auto& f : fired) f = 0;
  std::atomic<int> total{0};
  std::atomic<int> errors{0};

  std::vector<query::completion<2>> held;  // keep handles alive past firing
  held.reserve(kTickets);
  for (int j = 0; j < kTickets; ++j) {
    std::vector<query::request<2>> batch{
        query::request<2>::make_insert(point<2>{{100.0 + j, 5.0}}),
        query::request<2>::make_knn(point<2>{{100.0 + j, 5.0}}, 1),
    };
    auto c = service.submit(std::move(batch));
    c.on_complete([&, j](query::ticket_result<2>&& r, std::exception_ptr err) {
      if (err || r.responses.size() != 2) ++errors;
      ++fired[j];
      ++total;
    });
    held.push_back(std::move(c));
  }
  wait_until([&] { return total.load() == kTickets; },
             "callbacks did not all fire");
  service.close();
  EXPECT_EQ(errors.load(), 0);
  for (int j = 0; j < kTickets; ++j) {
    EXPECT_EQ(fired[j].load(), 1) << "callback " << j;
  }
  // A callback consumes the handle's one redemption.
  EXPECT_THROW(held[0].get(), std::logic_error);
  // Callbacks are delivered, never retained.
  EXPECT_EQ(service.stats().results_retained, 0u);
}

TEST(QueryService, CallbackOutlivesDroppedHandle) {
  // Registering on_complete and dropping the handle must still fire the
  // callback exactly once (the record stays alive for delivery).
  auto service = make_service<2>(1, shard_policy::hash);
  std::atomic<int> fired{0};
  {
    auto c = service.submit({query::request<2>::make_insert(point<2>{{1, 1}})});
    c.on_complete([&](query::ticket_result<2>&&, std::exception_ptr) {
      ++fired;
    });
  }  // handle destroyed here, likely before the drain fulfils it
  wait_until([&] { return fired.load() == 1; }, "dropped-handle callback");
  service.close();
  EXPECT_EQ(fired.load(), 1);
}

TEST(QueryService, CloseFlushesInFlightTickets) {
  // close() with submitted-but-unexecuted tickets must neither deadlock
  // nor drop responses: every handle redeems normally afterwards.
  auto service = make_service<2>(2, shard_policy::hash);
  service.bootstrap(datagen::uniform<2>(150, 7));
  std::vector<query::completion<2>> cs;
  for (int j = 0; j < 10; ++j) {
    std::vector<query::request<2>> batch{
        query::request<2>::make_insert(point<2>{{500.0 + j, 1.0}}),
        query::request<2>::make_knn(point<2>{{500.0 + j, 1.0}}, 1),
        query::request<2>::make_ball(point<2>{{500.0 + j, 1.0}}, 0.25),
    };
    cs.push_back(service.submit(std::move(batch)));
  }
  service.close();  // flushes all 10 tickets deterministically
  for (int j = 0; j < 10; ++j) {
    auto r = cs[j].get();
    ASSERT_EQ(r.responses.size(), 3u) << "ticket " << j;
    EXPECT_EQ(r.responses[1].points.size(), 1u);
    EXPECT_TRUE(r.responses[1].points[0] == (point<2>{{500.0 + j, 1.0}}));
  }
  EXPECT_EQ(service.size(), 160u);
  EXPECT_EQ(service.stats().num_requests, 30u);
  // Intake is cut after close.
  EXPECT_THROW(
      service.submit({query::request<2>::make_insert(point<2>{{0, 0}})}),
      std::runtime_error);
  service.close();  // idempotent
}

TEST(QueryService, HandlesOutliveTheService) {
  // The destructor runs close(): handles redeem fine from a dead service.
  std::vector<query::completion<2>> cs;
  {
    auto service =
        std::make_unique<query::query_service<2>>(
            make_config<2>(2, shard_policy::hash));
    service->bootstrap(datagen::uniform<2>(80, 11));
    for (int j = 0; j < 4; ++j) {
      cs.push_back(service->submit(
          {query::request<2>::make_knn(point<2>{{1.0 + j, 1.0}}, 2)}));
    }
  }  // ~query_service flushes and joins here
  for (auto& c : cs) {
    auto r = c.get();
    ASSERT_EQ(r.responses.size(), 1u);
    EXPECT_EQ(r.responses[0].points.size(), 2u);
  }
}

TEST(QueryService, DoubleGetAndEmptyHandlesThrow) {
  auto service = make_service<2>(1, shard_policy::hash);
  auto c = service.submit({query::request<2>::make_insert(point<2>{{1, 1}})});
  c.get();
  EXPECT_THROW(c.get(), std::logic_error);  // second redemption
  EXPECT_THROW(c.on_complete([](query::ticket_result<2>&&,
                                std::exception_ptr) {}),
               std::logic_error);

  query::completion<2> never;  // nothing was ever submitted
  EXPECT_FALSE(never.valid());
  EXPECT_FALSE(never.ready());
  EXPECT_THROW(never.get(), std::logic_error);

  // Moved-from handles behave like empty ones.
  auto c2 = service.submit({query::request<2>::make_insert(point<2>{{2, 2}})});
  query::completion<2> c3 = std::move(c2);
  EXPECT_THROW(c2.get(), std::logic_error);
  c3.get();
}

TEST(QueryService, LateRedeemerGetsEveryResult) {
  // A completed result waits for its handle, however many others complete
  // first: with the default config, 1,500 tickets all fulfilled before the
  // first get() still all return their rows.
  constexpr int kTickets = 1500;
  query::query_service<2> service(query::service_config{});
  std::vector<query::completion<2>> cs;
  for (int j = 0; j < kTickets; ++j) {
    cs.push_back(service.submit(
        {query::request<2>::make_insert(point<2>{{1.0 * j, 0.0}})}));
  }
  service.close();
  EXPECT_EQ(service.stats().results_retained,
            static_cast<std::size_t>(kTickets));
  for (int j = 0; j < kTickets; ++j) {
    const auto r = cs[j].get();
    ASSERT_EQ(r.responses.size(), 1u) << "ticket " << j;
    EXPECT_EQ(r.responses[0].kind, op::insert) << "ticket " << j;
  }
  EXPECT_EQ(service.size(), static_cast<std::size_t>(kTickets));
  EXPECT_EQ(service.stats().results_retained, 0u);
}

TEST(QueryService, DroppedHandleReleasesItsResult) {
  // Redemption-by-destruction: dropping an unredeemed handle releases its
  // retained result immediately.
  auto service = make_service<2>(1, shard_policy::hash);
  {
    auto c = service.submit(
        {query::request<2>::make_insert(point<2>{{3, 3}})});
    wait_until([&] { return service.stats().num_requests >= 1; },
               "drain never ran");
    EXPECT_EQ(service.stats().results_retained, 1u);
  }  // handle dropped here
  EXPECT_EQ(service.stats().results_retained, 0u);
  service.close();
  EXPECT_EQ(service.size(), 1u);
}

TEST(QueryService, ReadTicketsSeeEarlierWriteTickets) {
  // FIFO program order across tickets survives the snapshot path: a
  // read-only ticket submitted after a write ticket snapshots state that
  // already includes the write, and is stamped with a snapshot epoch.
  auto service = make_service<2>(2, shard_policy::hash);
  service.bootstrap(datagen::uniform<2>(120, 13));
  const point<2> fresh{{900.0, 900.0}};
  auto w = service.submit({query::request<2>::make_insert(fresh)});
  auto r = service.submit({query::request<2>::make_knn(fresh, 1),
                           query::request<2>::make_ball(fresh, 0.1)});
  auto rr = r.get();
  ASSERT_EQ(rr.responses.size(), 2u);
  ASSERT_EQ(rr.responses[0].points.size(), 1u);
  EXPECT_TRUE(rr.responses[0].points[0] == fresh);
  EXPECT_EQ(rr.responses[1].points.size(), 1u);
  // The read executed against published epoch snapshots.
  EXPECT_GE(rr.snapshot_epoch, 1u);
  w.get();
  service.close();
  const auto stats = service.stats();
  EXPECT_GE(stats.num_read_groups, 1u);
  EXPECT_GE(stats.num_write_groups, 1u);
}

TEST(QueryService, ReadOnlyStreamUsesSnapshotPath) {
  // A pure-read stream drains entirely through the snapshot executors.
  auto service = make_service<2>(2, shard_policy::hash);
  service.bootstrap(datagen::uniform<2>(300, 17));
  std::vector<query::completion<2>> cs;
  for (int j = 0; j < 6; ++j) {
    cs.push_back(service.submit(
        {query::request<2>::make_knn(point<2>{{2.0 * j, 3.0}}, 3)}));
  }
  for (auto& c : cs) {
    auto r = c.get();
    ASSERT_EQ(r.responses.size(), 1u);
    EXPECT_EQ(r.responses[0].points.size(), 3u);
    EXPECT_GE(r.snapshot_epoch, 1u);
  }
  service.close();
  const auto stats = service.stats();
  EXPECT_GE(stats.num_read_groups, 1u);
  EXPECT_EQ(stats.num_write_groups, 0u);
  EXPECT_EQ(stats.num_read_groups, stats.num_drains);
}

TEST(QueryService, IngestWindowGroupsPendingBatches) {
  {
    // Window larger than everything pending: the dedicated drain groups
    // whatever has accumulated when it wakes — never more drains than
    // tickets, and the window invariant caps each group.
    query::service_config cfg;
    cfg.shards = 2;
    query::query_service<2> service(cfg);
    std::vector<query::completion<2>> cs;
    for (int j = 0; j < 3; ++j) {
      std::vector<query::request<2>> batch;
      for (int i = 0; i < 4; ++i) {
        batch.push_back(query::request<2>::make_insert(
            point<2>{{10.0 * j + i, 1.0}}));
      }
      cs.push_back(service.submit(std::move(batch)));
    }
    for (auto& c : cs) c.get();
    service.close();
    const auto stats = service.stats();
    EXPECT_GE(stats.num_drains, 1u);
    EXPECT_LE(stats.num_drains, 3u);
    EXPECT_EQ(stats.num_requests, 12u);
    EXPECT_EQ(service.size(), 12u);
  }
  {
    // Window smaller than one batch: every drain takes exactly one ticket
    // (an over-sized batch still drains alone rather than starving).
    query::service_config cfg;
    cfg.shards = 2;
    cfg.ingest_window = 1;
    query::query_service<2> service(cfg);
    std::vector<query::completion<2>> cs;
    for (int j = 0; j < 3; ++j) {
      std::vector<query::request<2>> batch;
      for (int i = 0; i < 4; ++i) {
        batch.push_back(query::request<2>::make_insert(
            point<2>{{10.0 * j + i, 1.0}}));
      }
      cs.push_back(service.submit(std::move(batch)));
    }
    for (auto& c : cs) c.get();
    service.close();
    EXPECT_EQ(service.stats().num_drains, 3u);
    EXPECT_EQ(service.size(), 12u);
  }
}

TEST(QueryService, TicketResultCarriesItsMeasuredLatency) {
  auto service = make_service<2>(2, shard_policy::hash);
  std::vector<query::request<2>> batch{
      query::request<2>::make_insert(point<2>{{1, 1}}),
      query::request<2>::make_insert(point<2>{{2, 2}}),
      query::request<2>::make_knn(point<2>{{1, 1}}, 1),
  };
  auto r = service.submit(std::move(batch)).get();
  ASSERT_EQ(r.responses.size(), 3u);
  EXPECT_GT(r.latency_seconds, 0.0);
  service.close();
  const auto stats = service.stats();
  EXPECT_EQ(stats.num_tickets, 1u);
  EXPECT_EQ(stats.num_drains, 1u);
  EXPECT_EQ(stats.num_requests, 3u);
  // The one ticket's latency is the one sample the completion stage
  // recorded: both come from the same nanosecond delta.
  const auto& completion =
      stats.telemetry.stage_hist(query::stage::completion);
  ASSERT_EQ(completion.summary().count, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(std::llround(r.latency_seconds * 1e9)),
            completion.max_ns());
}

TEST(QueryService, InvalidConfigThrows) {
  query::service_config cfg;
  cfg.shards = 0;
  EXPECT_THROW(query::query_service<2>{cfg}, std::invalid_argument);
  cfg.shards = 1;
  cfg.ingest_window = 0;
  EXPECT_THROW(query::query_service<2>{cfg}, std::invalid_argument);
}

TEST(QueryService, NegativeBallRadiusMatchesUnshardedAcrossPolicies) {
  // The index compares dist_sq <= radius^2, so a negative radius acts as
  // its magnitude; spatial pruning must not invert the stripe interval.
  const auto pts = datagen::uniform<2>(300, 13);
  const point<2> center = pts[7];
  std::vector<query::request<2>> batch{
      query::request<2>::make_ball(center, -2.5),
      query::request<2>::make_ball(center, 2.5),
  };
  testutil::reference_index<2> reference;
  reference.bootstrap(pts);
  auto want = reference.execute(batch);
  ASSERT_FALSE(want.responses[0].points.empty());
  for (auto policy : {shard_policy::spatial, shard_policy::hash}) {
    auto sharded = make_service<2>(4, policy);
    sharded.bootstrap(pts);
    auto got = sharded.execute(batch);
    expect_same_responses<2>(batch, got.responses, want.responses);
    EXPECT_EQ(got.responses[0].points.size(), got.responses[1].points.size());
  }
}

TEST(QueryService, NegativeZeroRoutesLikeZero) {
  // -0.0 == 0.0 as a coordinate: an erase of {-0.0, y} must find an
  // insert of {0.0, y} on every shard count and policy.
  for (auto policy : {shard_policy::hash, shard_policy::spatial}) {
    auto service = make_service<2>(4, policy);
    service.bootstrap(datagen::uniform<2>(100, 21));
    const point<2> pos{{0.0, 3.0}};
    point<2> neg{{0.0, 3.0}};
    neg[0] = -0.0;
    ASSERT_TRUE(pos == neg);
    auto r = service.execute({query::request<2>::make_insert(pos),
                              query::request<2>::make_erase(neg),
                              query::request<2>::make_ball(pos, 0.1)});
    EXPECT_TRUE(r.responses[2].points.empty())
        << query::shard_policy_name(policy);
    service.close();
    EXPECT_EQ(service.size(), 100u) << query::shard_policy_name(policy);
  }
}

TEST(QueryService, HashRoutingIsFnv1aOverCanonicalCoordinateBits) {
  // Op logs and checkpoints store each shard's points, so hash routing
  // must stay what it is: FNV-1a over the coordinates' bit patterns, with
  // -0.0 read as 0.0, modulo the shard count. The offset basis is the
  // service's 1469598103934665603, not FNV's 14695981039346656037.
  const auto route = [](const point<2>& p, std::size_t shards) {
    std::uint64_t h = 1469598103934665603ull;
    for (int d = 0; d < 2; ++d) {
      const double c = p[d] == 0.0 ? 0.0 : p[d];
      std::uint64_t bits;
      std::memcpy(&bits, &c, sizeof(bits));
      h = (h ^ bits) * 1099511628211ull;
    }
    return static_cast<std::size_t>(h % shards);
  };
  constexpr std::size_t kShards = 5;
  auto pts = datagen::uniform<2>(1000, 31);
  point<2> neg{{1.0, 2.0}};
  neg[0] = -0.0;
  pts.push_back(neg);
  auto service = make_service<2>(kShards, shard_policy::hash);
  service.bootstrap(pts);
  service.close();
  std::vector<std::vector<point<2>>> want(kShards);
  for (const auto& p : pts) want[route(p, kShards)].push_back(p);
  for (std::size_t s = 0; s < kShards; ++s) {
    auto got = service.shard(s).gather();
    std::sort(got.begin(), got.end());
    std::sort(want[s].begin(), want[s].end());
    EXPECT_EQ(got, want[s]) << "shard " << s;
  }
}

TEST(QueryService, FourProducersDrainAcrossShardLanes) {
  // The tentpole scenario: 4 truly parallel producers feed 4 shard lanes
  // through the per-shard drain pipeline. Stripe-isolated payloads verify
  // every ticket's answers despite lanes executing different groups
  // concurrently; lane counters prove the work actually spread.
  constexpr int kThreads = 4;
  constexpr int kTicketsPerThread = 16;
  auto cfg = make_config<2>(4, shard_policy::hash);
  query::query_service<2> service(cfg);
  service.bootstrap(datagen::uniform<2>(200, 5));

  auto thread_point = [](int t, int j) {
    return point<2>{{5000.0 * (t + 1) + 11.0 * j, 3.0 * (t + 1)}};
  };
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kTicketsPerThread; ++j) {
        // Mixed ticket: write then read of the same fresh point — the
        // read must observe the write through per-shard FIFO.
        auto c = service.submit(
            {query::request<2>::make_insert(thread_point(t, j)),
             query::request<2>::make_knn(thread_point(t, j), 1),
             query::request<2>::make_ball(thread_point(t, j), 0.25)});
        auto r = c.get();
        if (r.responses.size() != 3 || r.responses[1].points.size() != 1 ||
            !(r.responses[1].points[0] == thread_point(t, j)) ||
            r.responses[2].points.size() != 1) {
          errors[t] = "ticket " + std::to_string(j) + " wrong answer";
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], "") << "thread " << t;
  service.close();

  const auto stats = service.stats();
  EXPECT_EQ(service.size(), 200u + kThreads * kTicketsPerThread);
  ASSERT_EQ(stats.per_shard.size(), 4u);
  std::size_t lanes_used = 0, lane_drains = 0;
  for (const auto& lane : stats.per_shard) {
    if (lane.num_drains > 0) ++lanes_used;
    lane_drains += lane.num_drains;
    EXPECT_EQ(lane.queue_depth, 0u);  // closed: queues flushed
    EXPECT_GE(lane.execute_seconds, 0.0);
  }
  // k-NN scatters to every lane, so all four lanes executed sub-batches.
  EXPECT_EQ(lanes_used, 4u);
  EXPECT_GE(lane_drains, stats.num_write_groups);
  // Routing buffers recycle once the pool warms up.
  EXPECT_GT(stats.scratch_reuses, 0u);
}

namespace {

// Parks the (single) shard lane of `service` inside a completion callback
// that waits for `release`: submits sentinel tickets until one's callback
// provably fires on a service thread (a callback registered after
// fulfilment fires on the registering thread instead — that attempt simply
// does not block, and we retry). Returns how many sentinel points were
// inserted; -1 if the race was never won.
int park_lane_until(query::query_service<2>& service,
                    std::shared_future<void> release) {
  const auto main_id = std::this_thread::get_id();
  for (int attempt = 1; attempt <= 100; ++attempt) {
    auto entered = std::make_shared<std::promise<std::thread::id>>();
    auto entered_f = entered->get_future();
    auto c = service.submit({query::request<2>::make_insert(
        point<2>{{90000.0 + attempt, -7.0}})});
    c.on_complete([entered, release, main_id](query::ticket_result<2>&&,
                                              std::exception_ptr) {
      entered->set_value(std::this_thread::get_id());
      if (std::this_thread::get_id() != main_id) release.wait();
    });
    if (entered_f.get() != main_id) return attempt;
  }
  return -1;
}

}  // namespace

TEST(QueryService, BackpressureBoundsInFlightRequests) {
  // Deterministic backpressure: a callback parks the lane worker, so
  // admitted work stays unfulfilled and the in-flight count is fully
  // under test control. Bound = 2 requests.
  auto cfg = make_config<2>(1, shard_policy::hash);
  cfg.max_pending_requests = 2;
  query::query_service<2> service(cfg);

  std::promise<void> release;
  const int sentinels = park_lane_until(service, release.get_future().share());
  ASSERT_GT(sentinels, 0);  // lane parked; in-flight back to 0

  // B and C admit (1 then 2 in flight); both queue behind the blocked
  // lane and stay unfulfilled.
  auto b = service.submit({query::request<2>::make_insert(point<2>{{2, 2}})});
  auto c = service.submit({query::request<2>::make_insert(point<2>{{3, 3}})});
  EXPECT_EQ(service.stats().pending_requests, 2u);

  // At the bound: try_submit rejects instead of blocking.
  auto rejected =
      service.try_submit({query::request<2>::make_insert(point<2>{{4, 4}})});
  EXPECT_FALSE(rejected.has_value());
  EXPECT_EQ(service.stats().try_submit_rejects, 1u);

  // submit() blocks until the pipeline drains below the bound.
  std::atomic<bool> d_admitted{false};
  std::thread blocked([&] {
    auto d =
        service.submit({query::request<2>::make_insert(point<2>{{5, 5}})});
    d_admitted = true;
    d.get();
  });
  wait_until([&] { return service.stats().submit_waits >= 1; },
             "submit never blocked on the bound");
  EXPECT_FALSE(d_admitted.load());

  release.set_value();  // unpark the lane; everything drains
  blocked.join();
  EXPECT_TRUE(d_admitted.load());
  b.get();
  c.get();
  service.close();
  const auto stats = service.stats();
  EXPECT_EQ(stats.pending_requests, 0u);
  EXPECT_EQ(stats.submit_waits, 1u);
  EXPECT_EQ(service.size(), static_cast<std::size_t>(sentinels) + 3u);
}

TEST(QueryService, CloseWakesBlockedSubmitters) {
  // close() while a producer is blocked on backpressure: the producer
  // wakes and throws (like any post-close submit) instead of deadlocking.
  auto cfg = make_config<2>(1, shard_policy::hash);
  cfg.max_pending_requests = 1;
  query::query_service<2> service(cfg);

  std::promise<void> release;
  const int sentinels = park_lane_until(service, release.get_future().share());
  ASSERT_GT(sentinels, 0);
  auto b = service.submit({query::request<2>::make_insert(point<2>{{2, 2}})});

  std::thread blocked([&] {
    EXPECT_THROW(
        service.submit({query::request<2>::make_insert(point<2>{{3, 3}})}),
        std::runtime_error);
  });
  wait_until([&] { return service.stats().submit_waits >= 1; },
             "submit never blocked on the bound");
  std::thread closer([&] { service.close(); });  // joins after release
  blocked.join();  // woken by close()'s intake cut, throws
  release.set_value();
  closer.join();
  b.get();  // admitted before close: flushed, still redeemable
  EXPECT_EQ(service.size(), static_cast<std::size_t>(sentinels) + 1u);
}

TEST(QueryService, OversizedBatchAdmitsAloneUnderBackpressure) {
  // A batch larger than the bound must not deadlock: it is admitted when
  // the pipeline is empty.
  auto cfg = make_config<2>(2, shard_policy::hash);
  cfg.max_pending_requests = 2;
  query::query_service<2> service(cfg);
  std::vector<query::request<2>> big;
  for (int i = 0; i < 8; ++i) {
    big.push_back(query::request<2>::make_insert(point<2>{{1.0 * i, 2.0}}));
  }
  auto r = service.submit(std::move(big)).get();
  EXPECT_EQ(r.responses.size(), 8u);
  service.close();
  EXPECT_EQ(service.size(), 8u);
}

TEST(QueryService, NonFiniteCoordinatesRejectedAtSubmit) {
  // NaN/inf payloads would break routing silently (every stripe
  // comparison on NaN is false, so the point lands in an arbitrary shard):
  // the front door rejects them before a ticket exists.
  auto service = make_service<2>(2, shard_policy::spatial);
  service.bootstrap(datagen::uniform<2>(100, 3));
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();

  EXPECT_THROW(
      service.submit({query::request<2>::make_insert(point<2>{{nan, 1.0}})}),
      std::invalid_argument);
  EXPECT_THROW(
      service.submit({query::request<2>::make_knn(point<2>{{1.0, inf}}, 2)}),
      std::invalid_argument);
  EXPECT_THROW(
      service.submit({query::request<2>::make_ball(point<2>{{1.0, 1.0}}, nan)}),
      std::invalid_argument);
  EXPECT_THROW(
      service.submit({query::request<2>::make_range(
          aabb<2>(point<2>{{nan, 0.0}}, point<2>{{1.0, 1.0}}))}),
      std::invalid_argument);
  EXPECT_THROW(
      service.try_submit({query::request<2>::make_erase(point<2>{{-inf, 0.0}})}),
      std::invalid_argument);

  // Rejected batches admit nothing: no ticket, no pending request, and
  // the service still serves valid traffic afterwards.
  auto r = service.execute({query::request<2>::make_knn(point<2>{{2.0, 2.0}}, 3)});
  EXPECT_EQ(r.responses[0].points.size(), 3u);
  service.close();
  const auto stats = service.stats();
  EXPECT_EQ(stats.num_tickets, 1u);
  EXPECT_EQ(stats.pending_requests, 0u);
  EXPECT_EQ(service.size(), 100u);
}

TEST(QueryService, DuplicateCoordinateStripesStayNonDegenerate) {
  // Regression: quantile cuts over duplicated coordinates used to
  // collide into zero-width stripes (shards that could never own a
  // point, every write funneling into one lane). With 3 distinct values
  // on the split dimension and 4 shards, 3 shards must end up owning
  // points — and a sharded run must still match the reference.
  std::vector<point<2>> pts;
  for (int i = 0; i < 300; ++i) {
    // x in {0, 1, 2} (widest dim), y packed into [0, 0.5).
    pts.push_back(point<2>{{1.0 * (i % 3), 0.5 * (i % 7) / 7.0}});
  }
  auto sharded = make_service<2>(4, shard_policy::spatial);
  sharded.bootstrap(pts);
  EXPECT_EQ(sharded.size(), 300u);
  std::size_t populated = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    populated += sharded.shard(s).size() > 0 ? 1 : 0;
  }
  EXPECT_EQ(populated, 3u);  // one shard per distinct value; the 4th idle

  std::vector<query::request<2>> batch;
  for (int x = 0; x < 3; ++x) {
    batch.push_back(query::request<2>::make_knn(point<2>{{1.0 * x, 0.2}}, 5));
    batch.push_back(query::request<2>::make_ball(point<2>{{1.0 * x, 0.2}}, 0.3));
  }
  batch.push_back(query::request<2>::make_range(
      aabb<2>(point<2>{{-1.0, -1.0}}, point<2>{{3.0, 1.0}})));
  auto reference = make_service<2>(1, shard_policy::spatial);
  reference.bootstrap(pts);
  auto want = reference.execute(batch);
  auto got = sharded.execute(batch);
  expect_same_responses<2>(batch, got.responses, want.responses);
}

TEST(QueryService, AllIdenticalWritesStillRouteConsistently) {
  // The fully degenerate case — every write is the same point, so there
  // is no coordinate spread to stripe on. All copies must land on ONE
  // owner (insert and erase agree), and answers must match the reference.
  auto sharded = make_service<2>(4, shard_policy::spatial);
  auto reference = make_service<2>(1, shard_policy::spatial);
  const point<2> p{{7.0, 7.0}};
  std::vector<query::request<2>> writes(20, query::request<2>::make_insert(p));
  std::vector<query::request<2>> reads{
      query::request<2>::make_knn(p, 4),
      query::request<2>::make_ball(p, 0.5),
      query::request<2>::make_erase(p),
      query::request<2>::make_ball(p, 0.5),
  };
  auto got_w = sharded.execute(writes);
  auto want_w = reference.execute(writes);
  auto got = sharded.execute(reads);
  auto want = reference.execute(reads);
  expect_same_responses<2>(writes, got_w.responses, want_w.responses);
  expect_same_responses<2>(reads, got.responses, want.responses);
  EXPECT_EQ(sharded.size(), reference.size());
  EXPECT_EQ(sharded.size(), 19u);
}

TEST(QueryService, LockfreeIngestSurvivesConcurrentProducers) {
  // 4 producers CAS-race into one ring; every ticket must come back with
  // its own answers in its own order.
  constexpr int kThreads = 4;
  constexpr int kTicketsPerThread = 24;
  auto cfg = make_config<2>(4, shard_policy::hash);
  cfg.ingest_ring_capacity = 8;  // tiny ring: force wraparound + blocking
  query::query_service<2> service(cfg);
  service.bootstrap(datagen::uniform<2>(200, 5));

  auto thread_point = [](int t, int j) {
    return point<2>{{7000.0 * (t + 1) + 13.0 * j, 5.0 * (t + 1)}};
  };
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kTicketsPerThread; ++j) {
        auto c = service.submit(
            {query::request<2>::make_insert(thread_point(t, j)),
             query::request<2>::make_knn(thread_point(t, j), 1)});
        auto r = c.get();
        if (r.responses.size() != 2 || r.responses[1].points.size() != 1 ||
            !(r.responses[1].points[0] == thread_point(t, j))) {
          errors[t] = "ticket " + std::to_string(j) + " wrong answer";
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], "") << "thread " << t;
  service.close();
  EXPECT_EQ(service.size(), 200u + kThreads * kTicketsPerThread);
  EXPECT_EQ(service.stats().num_tickets,
            static_cast<std::size_t>(kThreads) * kTicketsPerThread);
}

// Every BDL-tree version a write stream supersedes goes through the epoch
// reclaimer, and once the stream is redeemed and the service closed, every
// retired version has been freed. Read-only tickets ride along, so
// versions retire while snapshot readers hold reclaim guards.
TEST(QueryService, BdltreeWriteStreamReclaimsEveryRetiredVersion) {
  constexpr int kProducers = 2;
  auto cfg = make_config<2>(2, shard_policy::hash);
  query::query_service<2> service(cfg);
  auto spec = query::make_read_write_spec(2000, 4000, 0.5);
  spec.batch_size = 256;
  service.bootstrap(query::make_initial<2>(spec));

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      auto mine = spec;
      mine.seed = spec.seed + 300 + t;
      const auto reqs = query::make_requests<2>(mine);
      std::vector<query::completion<2>> pending;
      std::size_t off = 0;
      while (off < reqs.size()) {  // one ticket per read or write run
        const bool read_run = query::is_read(reqs[off].kind);
        std::size_t end = off + 1;
        while (end < reqs.size() && end - off < spec.batch_size &&
               query::is_read(reqs[end].kind) == read_run) {
          ++end;
        }
        pending.push_back(
            service.submit({reqs.begin() + off, reqs.begin() + end}));
        off = end;
      }
      for (auto& c : pending) c.get();
    });
  }
  for (auto& p : producers) p.join();
  service.close();
  const auto st = service.stats();
  EXPECT_GT(st.num_read_groups, 0u);
  EXPECT_GT(st.retired_snapshots, 0u);
  EXPECT_EQ(st.reclaimed_snapshots, st.retired_snapshots);
  EXPECT_EQ(st.limbo_snapshots, 0u);
}

// A read group that a write drain overtakes counts in snapshot_lag_drains:
// the reader still executes against the snapshot its lane stamped while
// the one-point write queued right behind that stamp commits. The read
// is 16k k-NN queries with k = 64 and the write one buffered point, so
// the write commits long before the read retires (~3 ms vs ~70 ms on a
// 4-core x86 VM).
TEST(QueryService, BdltreeReadOvertakenByAWriteCountsAsLagged) {
  query::query_service<2> service(make_config<2>(1, shard_policy::hash));
  const auto pts = datagen::uniform<2>(20000, 23);
  service.bootstrap(pts);

  std::vector<query::request<2>> reads;
  for (std::size_t i = 0; i < 16000; ++i) {
    reads.push_back(query::request<2>::make_knn(pts[i], 64));
  }
  auto read = service.submit(std::move(reads));
  auto write = service.submit(
      {query::request<2>::make_insert(point<2>{{-1.0, -1.0}})});
  write.get();
  EXPECT_EQ(read.get().responses.size(), 16000u);
  service.close();
  const auto st = service.stats();
  EXPECT_EQ(st.num_read_groups, 1u);
  EXPECT_EQ(st.num_write_groups, 1u);
  EXPECT_EQ(st.snapshot_lag_drains, 1u);
}

TEST(QueryService, SpatialPruningStaysExactAcrossStripes) {
  // Boxes/balls confined to one stripe, spanning several, and covering
  // everything must all match the brute-force reference exactly.
  testutil::reference_index<2> reference;
  auto sharded = make_service<2>(4, shard_policy::spatial);
  const auto pts = datagen::uniform<2>(500, 9);
  reference.bootstrap(pts);
  sharded.bootstrap(pts);

  const double side = std::sqrt(500.0);
  std::vector<query::request<2>> batch;
  // Narrow boxes marching across the split dimension.
  for (int i = 0; i < 10; ++i) {
    const double x = side * i / 10.0;
    batch.push_back(query::request<2>::make_range(
        aabb<2>(point<2>{{x, 0}}, point<2>{{x + side / 20.0, side}})));
  }
  // Full-extent box and a few balls of growing radius.
  batch.push_back(query::request<2>::make_range(
      aabb<2>(point<2>{{-1, -1}}, point<2>{{side + 1, side + 1}})));
  for (int i = 1; i <= 4; ++i) {
    batch.push_back(query::request<2>::make_ball(
        point<2>{{side / 2, side / 2}}, side * i / 8.0));
  }
  auto want = reference.execute(batch);
  auto got = sharded.execute(batch);
  expect_same_responses<2>(batch, got.responses, want.responses);
}

// ---- stripe cuts and genesis routing against sort-based references -------

namespace {

// The stripe derivation the service used before its cuts were selected,
// kept as the oracle: sort every coordinate along the widest dimension of
// the bounding box, take cut s at rank (s+1)n/shards, and advance a cut
// that does not exceed the previous one (or the minimum) to the next
// distinct value, leaving +inf once none is left.
struct sorted_stripes {
  int dim = 0;
  std::vector<double> cuts;
};

sorted_stripes sort_based_stripes(const std::vector<point<2>>& pts,
                                  std::size_t shards) {
  aabb<2> box;
  for (const auto& p : pts) box.extend(p);
  sorted_stripes want;
  want.dim = box.widest_dim();
  std::vector<double> coords;
  for (const auto& p : pts) coords.push_back(p[want.dim]);
  std::sort(coords.begin(), coords.end());
  want.cuts.assign(shards - 1, std::numeric_limits<double>::infinity());
  double prev = coords.front();
  for (std::size_t s = 0; s + 1 < shards; ++s) {
    double cut = coords[(s + 1) * coords.size() / shards];
    if (!(cut > prev)) {
      const auto it = std::upper_bound(coords.begin(), coords.end(), prev);
      if (it == coords.end()) break;
      cut = *it;
    }
    want.cuts[s] = cut;
    prev = cut;
  }
  return want;
}

// Hash routing as QueryService.HashRoutingIsFnv1aOverCanonicalCoordinateBits
// pins it.
std::size_t fnv_route(const point<2>& p, std::size_t shards) {
  std::uint64_t h = 1469598103934665603ull;
  for (int d = 0; d < 2; ++d) {
    const double c = p[d] == 0.0 ? 0.0 : p[d];
    std::uint64_t bits;
    std::memcpy(&bits, &c, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return static_cast<std::size_t>(h % shards);
}

// Point sets whose stripes stress the cut rule: spread, sorted, one value,
// two values (+inf tails past two shards) and a few values with most
// points on one of them.
enum class stripe_input {
  uniform,
  presorted,
  identical,
  two_valued,
  duplicated
};

const char* stripe_input_name(stripe_input k) {
  switch (k) {
    case stripe_input::uniform: return "uniform";
    case stripe_input::presorted: return "presorted";
    case stripe_input::identical: return "identical";
    case stripe_input::two_valued: return "two_valued";
    case stripe_input::duplicated: return "duplicated";
  }
  return "?";
}

constexpr stripe_input kStripeInputs[] = {
    stripe_input::uniform, stripe_input::presorted, stripe_input::identical,
    stripe_input::two_valued, stripe_input::duplicated};

// n points of kind `k` inside [0, scale]^2.
std::vector<point<2>> stripe_points(stripe_input k, std::size_t n,
                                    std::uint64_t seed, double scale = 1.0) {
  std::vector<point<2>> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = par::rand_double(seed, i);
    const double v = par::rand_double(seed + 1, i);
    switch (k) {
      case stripe_input::uniform:
      case stripe_input::presorted:
        pts[i] = point<2>{{u, v}};
        break;
      case stripe_input::identical:
        pts[i] = point<2>{{0.25, 0.75}};
        break;
      case stripe_input::two_valued:
        pts[i] = point<2>{{u < 0.5 ? 0.0 : 1.0, 0.5 * v}};
        break;
      case stripe_input::duplicated:
        // 70% on x = 0.4, the rest on four other values.
        pts[i] = point<2>{{u < 0.7 ? 0.4 : std::floor(v * 4) / 4, 0.1 * v}};
        break;
    }
    pts[i] = pts[i] * scale;
  }
  if (k == stripe_input::presorted) std::sort(pts.begin(), pts.end());
  return pts;
}

// Each shard's build record must hold exactly the points routed to it, in
// input order.
void expect_records_in_input_order(const query::log_group<2>& g,
                                   const std::vector<point<2>>& pts,
                                   std::size_t shards,
                                   const std::function<std::size_t(
                                       const point<2>&)>& route) {
  ASSERT_EQ(g.records.size(), shards);
  std::vector<std::vector<point<2>>> want(shards);
  for (const auto& p : pts) want[route(p)].push_back(p);
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_EQ(g.records[s].shard, s);
    EXPECT_EQ(g.records[s].kind, query::log_op::build);
    EXPECT_TRUE(g.records[s].pts == want[s]) << "shard " << s;
  }
}

void expect_stripes(const query::log_group<2>& g,
                    const std::vector<point<2>>& pts, std::size_t shards) {
  if (shards == 1) {
    EXPECT_FALSE(g.has_bounds);
    return;
  }
  const sorted_stripes want = sort_based_stripes(pts, shards);
  ASSERT_TRUE(g.has_bounds);
  EXPECT_EQ(g.split_dim, want.dim);
  EXPECT_EQ(g.cuts, want.cuts);
}

}  // namespace

// Bootstrap: the genesis group's cuts equal the sort-based reference on
// 1-8 shards, below and above the size where selection goes parallel, and
// every shard's build record holds its points in input order, under both
// policies.
TEST(QueryServiceStripes, BootstrapCutsAndRecordsMatchSortBasedReference) {
  for (const std::size_t n : {std::size_t{1500}, std::size_t{150000}}) {
    for (const auto kind : kStripeInputs) {
      const auto pts = stripe_points(kind, n, 40 + n);
      for (std::size_t shards = 1; shards <= 8; ++shards) {
        if (n > 2000 && shards != 2 && shards != 3 && shards != 8) continue;
        for (const auto policy : {shard_policy::spatial, shard_policy::hash}) {
          SCOPED_TRACE(::testing::Message()
                       << stripe_input_name(kind) << " n=" << n
                       << " shards=" << shards << " "
                       << query::shard_policy_name(policy));
          auto service = make_service<2>(shards, policy);
          auto log = std::make_shared<query::op_log<2>>();
          service.attach_log(log);
          service.bootstrap(pts);
          service.close();
          const auto groups = log->read_from(0);
          ASSERT_EQ(groups.size(), 1u);
          const auto& g = groups[0];
          EXPECT_EQ(g.origin, query::log_origin::bootstrap);
          if (policy == shard_policy::hash) {
            EXPECT_FALSE(g.has_bounds);
            expect_records_in_input_order(
                g, pts, shards,
                [&](const point<2>& p) { return fnv_route(p, shards); });
            continue;
          }
          expect_stripes(g, pts, shards);
          const sorted_stripes want = sort_based_stripes(pts, shards);
          expect_records_in_input_order(
              g, pts, shards, [&](const point<2>& p) -> std::size_t {
                return std::upper_bound(want.cuts.begin(), want.cuts.end(),
                                        p[want.dim]) -
                       want.cuts.begin();
              });
        }
      }
    }
  }
}

// The first write group carves the stripes from its write payloads when
// nothing was bootstrapped.
TEST(QueryServiceStripes, FirstWriteGroupCutsMatchSortBasedReference) {
  for (const auto kind : kStripeInputs) {
    const auto pts = stripe_points(kind, 1200, 50);
    for (std::size_t shards = 2; shards <= 8; ++shards) {
      SCOPED_TRACE(::testing::Message() << stripe_input_name(kind)
                                        << " shards=" << shards);
      auto service = make_service<2>(shards, shard_policy::spatial);
      auto log = std::make_shared<query::op_log<2>>();
      service.attach_log(log);
      std::vector<query::request<2>> batch;
      for (const auto& p : pts) {
        batch.push_back(query::request<2>::make_insert(p));
      }
      service.execute(std::move(batch));
      service.close();
      const auto groups = log->read_from(0);
      ASSERT_FALSE(groups.empty());
      EXPECT_EQ(groups[0].origin, query::log_origin::client);
      expect_stripes(groups[0], pts, shards);
    }
  }
}

// A rebalance re-derives the cuts from a sample of the resident points;
// with fewer residents than the sample size the sample is all of them.
TEST(QueryServiceStripes, RebalanceCutsMatchSortBasedReference) {
  const auto base = stripe_points(stripe_input::uniform, 600, 60);
  for (const auto kind : kStripeInputs) {
    // Crowded into the corner of the bootstrap's square: all in shard 0.
    const auto crowd = stripe_points(kind, 2000, 70, 0.01);
    for (std::size_t shards = 2; shards <= 8; ++shards) {
      SCOPED_TRACE(::testing::Message() << stripe_input_name(kind)
                                        << " shards=" << shards);
      auto cfg = make_config<2>(shards, shard_policy::spatial);
      cfg.rebalance_threshold = 1.5;
      query::query_service<2> service(cfg);
      auto log = std::make_shared<query::op_log<2>>();
      service.attach_log(log);
      service.bootstrap(base);
      std::vector<query::request<2>> batch;
      for (const auto& p : crowd) {
        batch.push_back(query::request<2>::make_insert(p));
      }
      service.execute(std::move(batch));
      service.close();  // the drain thread has run its rebalance check
      const auto groups = log->read_from(0);
      const auto it = std::find_if(
          groups.begin(), groups.end(), [](const query::log_group<2>& g) {
            return g.origin == query::log_origin::rebalance;
          });
      ASSERT_NE(it, groups.end()) << "no rebalance was logged";
      auto resident = base;
      resident.insert(resident.end(), crowd.begin(), crowd.end());
      expect_stripes(*it, resident, shards);
    }
  }
}

// The scan that takes the bounding box also checks every coordinate: a
// bootstrap with non-finite points names the first of them, on one thread
// and on the workers alike, and commits nothing.
TEST(QueryServiceStripes, BootstrapNamesTheFirstNonFinitePoint) {
  for (const std::size_t n : {std::size_t{1000}, std::size_t{150000}}) {
    auto pts = stripe_points(stripe_input::uniform, n, 80);
    const std::size_t first = n / 2 + 1;
    pts[n - 1][0] = std::numeric_limits<double>::infinity();
    pts[first][1] = std::nan("");
    pts[first + 3][0] = -std::numeric_limits<double>::infinity();
    auto service = make_service<2>(2, shard_policy::spatial);
    auto log = std::make_shared<query::op_log<2>>();
    service.attach_log(log);
    try {
      service.bootstrap(pts);
      ADD_FAILURE() << "bootstrap accepted non-finite points (n=" << n << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "point " + std::to_string(first) + " has"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(log->head(), 0u);
    EXPECT_EQ(service.size(), 0u);
  }
}
