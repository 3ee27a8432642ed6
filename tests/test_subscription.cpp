// Continuous-query subsystem tests (query/subscription.h +
// query_service integration): registry-level delivery discipline
// (boundary reordering, delta suppression, exactly-once, self-cancel),
// the end-to-end watch lifecycle on the service (fires carry fresh
// post-drain results, stripe-pruned and delta-suppressed boundaries
// count as suppressed without firing, dropped handles never fire), TTL
// expiry under a fake clock (idle sweeps, expiry-driven re-fires,
// expired_points accounting), and a randomized interleaving oracle: each
// fire's rows must match a fresh query against the brute-force reference
// (test_query_util.h) mirroring the exact write/expiry sequence, with
// fires + suppressions accounting for exactly one decision per watch
// per committed write boundary. TSan-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "query/query_service.h"
#include "query/subscription.h"
#include "query/workload.h"
#include "test_query_util.h"

using namespace pargeo;
using query::op;
using query::shard_policy;

namespace {

// Spins until `done()` holds (watch delivery is asynchronous), failing
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

// Thread-safe capture of one watch's event stream.
struct capture {
  std::mutex mu;
  std::size_t fires = 0;
  std::uint64_t last_seq = 0;
  std::vector<point<2>> last;

  query::watch_registry<2>::callback_t cb() {
    return [this](const query::watch_event<2>& ev) {
      std::lock_guard<std::mutex> lk(mu);
      ++fires;
      last_seq = ev.sequence;
      last = ev.points;
    };
  }
  std::size_t fire_count() {
    std::lock_guard<std::mutex> lk(mu);
    return fires;
  }
  std::vector<point<2>> last_rows() {
    std::lock_guard<std::mutex> lk(mu);
    return last;
  }
};

point<2> pt(double x, double y) {
  point<2> p;
  p[0] = x;
  p[1] = y;
  return p;
}

// service.size()/gather() are quiescent-callers-only; while TTL sweeps
// may be draining, the resident set must be read through the service's
// own synchronized read path instead. A full-range box query is ordered
// after every committed boundary the drain pipeline has retired.
std::vector<point<2>> live_rows(query::query_service<2>& service) {
  aabb<2> everything(pt(-1e9, -1e9), pt(1e9, 1e9));
  auto res = service.execute({query::request<2>::make_range(everything)});
  return res.responses.at(0).points;
}

std::size_t live_size(query::query_service<2>& service) {
  return live_rows(service).size();
}

// ---- registry-level tests (no service) ------------------------------------

TEST(WatchRegistry, DeliversBoundariesInSequenceOrder) {
  auto reg = std::make_shared<query::watch_registry<2>>();
  capture cap;
  std::vector<std::uint64_t> seq_order;
  std::mutex order_mu;
  const std::uint64_t id =
      reg->add(query::request<2>::make_knn(pt(0, 0), 2),
               [&](const query::watch_event<2>& ev) {
                 std::lock_guard<std::mutex> lk(order_mu);
                 seq_order.push_back(ev.sequence);
               });

  std::vector<std::pair<std::uint64_t, query::request<2>>> affected;
  const auto always = [](const query::request<2>&) { return true; };
  const std::uint64_t s1 = reg->collect_affected(always, affected);
  const std::uint64_t s2 = reg->collect_affected(always, affected);
  const std::uint64_t s3 = reg->collect_affected(always, affected);
  ASSERT_EQ(s1, 1u);
  ASSERT_EQ(s2, 2u);
  ASSERT_EQ(s3, 3u);

  // Deliver out of order with distinct rows: callbacks must still observe
  // boundary order 1, 2, 3.
  using rows_t = std::vector<std::pair<std::uint64_t, std::vector<point<2>>>>;
  reg->deliver(s3, rows_t{{id, {pt(3, 3)}}});   // buffered
  reg->deliver(s2, rows_t{{id, {pt(2, 2)}}});   // buffered
  reg->deliver(s1, rows_t{{id, {pt(1, 1)}}});   // releases all three
  {
    std::lock_guard<std::mutex> lk(order_mu);
    ASSERT_EQ(seq_order, (std::vector<std::uint64_t>{1, 2, 3}));
  }
  const auto st = reg->stats();
  EXPECT_EQ(st.fires, 3u);
  EXPECT_EQ(st.evals, 3u);
}

TEST(WatchRegistry, DeltaSuppressionSkipsIdenticalRows) {
  auto reg = std::make_shared<query::watch_registry<2>>();
  capture cap;
  const std::uint64_t id =
      reg->add(query::request<2>::make_knn(pt(0, 0), 1), cap.cb());
  std::vector<std::pair<std::uint64_t, query::request<2>>> affected;
  const auto always = [](const query::request<2>&) { return true; };
  using rows_t = std::vector<std::pair<std::uint64_t, std::vector<point<2>>>>;

  reg->deliver(reg->collect_affected(always, affected),
               rows_t{{id, {pt(1, 1)}}});
  EXPECT_EQ(cap.fire_count(), 1u);  // first evaluation always fires
  reg->deliver(reg->collect_affected(always, affected),
               rows_t{{id, {pt(1, 1)}}});
  EXPECT_EQ(cap.fire_count(), 1u);  // identical rows: suppressed
  EXPECT_EQ(reg->stats().suppressed, 1u);
  reg->deliver(reg->collect_affected(always, affected),
               rows_t{{id, {pt(2, 2)}}});
  EXPECT_EQ(cap.fire_count(), 2u);  // changed rows fire again
}

TEST(WatchRegistry, PrunedWatchesCountSuppressed) {
  auto reg = std::make_shared<query::watch_registry<2>>();
  capture cap;
  reg->add(query::request<2>::make_knn(pt(0, 0), 1), cap.cb());
  std::vector<std::pair<std::uint64_t, query::request<2>>> affected;
  const std::uint64_t seq = reg->collect_affected(
      [](const query::request<2>&) { return false; }, affected);
  EXPECT_EQ(seq, 0u);  // nothing to deliver
  EXPECT_TRUE(affected.empty());
  EXPECT_EQ(reg->stats().suppressed, 1u);
  EXPECT_EQ(cap.fire_count(), 0u);
}

TEST(WatchRegistry, CancelFromInsideOwnCallback) {
  auto reg = std::make_shared<query::watch_registry<2>>();
  auto handle = std::make_shared<query::watch_handle<2>>();
  std::atomic<int> fires{0};
  const std::uint64_t id = reg->add(
      query::request<2>::make_knn(pt(0, 0), 1),
      [&](const query::watch_event<2>&) {
        ++fires;
        handle->cancel();  // self-cancel must not deadlock
      });
  *handle = query::watch_handle<2>(reg, id);
  std::vector<std::pair<std::uint64_t, query::request<2>>> affected;
  const auto always = [](const query::request<2>&) { return true; };
  using rows_t = std::vector<std::pair<std::uint64_t, std::vector<point<2>>>>;
  reg->deliver(reg->collect_affected(always, affected),
               rows_t{{id, {pt(1, 1)}}});
  EXPECT_EQ(fires.load(), 1);
  EXPECT_EQ(reg->active(), 0u);
  // A later boundary must not fire the cancelled watch.
  const std::uint64_t seq = reg->collect_affected(always, affected);
  EXPECT_EQ(seq, 0u);  // no alive watches -> no boundary
  EXPECT_EQ(fires.load(), 1);
}

// ---- service integration --------------------------------------------------

TEST(QueryServiceWatch, FireCarriesFreshResultsAndSuppressedElsewise) {
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;
  query::query_service<2> service(cfg);
  service.bootstrap({pt(10, 10), pt(20, 20)});

  capture cap;
  auto handle = service.watch_knn(pt(0, 0), 2, cap.cb());
  EXPECT_EQ(service.stats().active_watches, 1u);

  // First affecting boundary: fires with the initial result.
  service.execute({query::request<2>::make_insert(pt(1, 1))});
  wait_until([&] { return cap.fire_count() == 1; }, "initial fire");
  {
    const auto rows = cap.last_rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], pt(1, 1));  // canonical: nearest first
  }

  // A closer point changes the result: exactly one more fire.
  service.execute({query::request<2>::make_insert(pt(0.5, 0.5))});
  wait_until([&] { return cap.fire_count() == 2; }, "second fire");
  {
    const auto rows = cap.last_rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], pt(0.5, 0.5));
    EXPECT_EQ(rows[1], pt(1, 1));
  }

  // A write that cannot change the top-2: evaluated (hash policy scatters
  // k-NN everywhere) but delta-suppressed — no third fire.
  const std::size_t suppressed_before = service.stats().watch_suppressed;
  service.execute({query::request<2>::make_insert(pt(50, 50))});
  wait_until(
      [&] { return service.stats().watch_suppressed > suppressed_before; },
      "delta suppression");
  EXPECT_EQ(cap.fire_count(), 2u);
}

TEST(QueryServiceWatch, IdenticalWatchesFireIdenticalRows) {
  // Two identical standing queries evaluated at the same boundary both
  // fire, with the same fresh rows.
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;
  query::query_service<2> service(cfg);
  std::vector<point<2>> boot;
  for (int i = 0; i < 16; ++i) boot.push_back(pt(i, i));
  service.bootstrap(boot);

  capture a;
  capture b;
  auto h1 = service.watch_knn(pt(0, 0), 2, a.cb());
  auto h2 = service.watch_knn(pt(0, 0), 2, b.cb());

  service.execute({query::request<2>::make_insert(pt(0.5, 0.5))});
  wait_until([&] { return a.fire_count() >= 1 && b.fire_count() >= 1; },
             "both identical watches fire");
  EXPECT_EQ(a.last_rows(), b.last_rows());
}

TEST(QueryServiceWatch, DisjointWriteStreamIsPrunedAndNeverFires) {
  // Spatial policy: stripes carved from the bootstrap set; the watch box
  // lives entirely in the left stripes while every write lands far right,
  // so schedule-time stripe pruning suppresses without ever evaluating.
  query::service_config cfg;
  cfg.shards = 4;
  cfg.policy = shard_policy::spatial;
  query::query_service<2> service(cfg);
  std::vector<point<2>> boot;
  for (int i = 0; i < 256; ++i) {
    boot.push_back(pt(i % 16, i / 16));  // [0,16)^2 carves the stripes
  }
  service.bootstrap(boot);

  capture cap;
  aabb<2> box(pt(0, 0), pt(1, 15));  // leftmost stripe only
  auto handle = service.watch_range(box, cap.cb());

  for (int i = 0; i < 8; ++i) {
    service.execute({query::request<2>::make_insert(pt(15.5, i))});
  }
  wait_until([&] { return service.stats().watch_suppressed >= 8; },
             "stripe-pruned suppressions");
  EXPECT_EQ(cap.fire_count(), 0u);
  EXPECT_EQ(service.stats().watch_fires, 0u);
}

TEST(QueryServiceWatch, DroppedHandleNeverFires) {
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;
  query::query_service<2> service(cfg);
  service.bootstrap({pt(5, 5)});

  capture dropped, kept;
  {
    auto h = service.watch_knn(pt(0, 0), 1, dropped.cb());
    h.cancel();
  }
  {
    // Scope exit drops this one without an explicit cancel.
    auto h = service.watch_knn(pt(1, 1), 1, dropped.cb());
  }
  auto h_kept = service.watch_knn(pt(2, 2), 1, kept.cb());
  EXPECT_EQ(service.stats().active_watches, 1u);

  service.execute({query::request<2>::make_insert(pt(0.1, 0.1))});
  wait_until([&] { return kept.fire_count() == 1; }, "kept watch fires");
  EXPECT_EQ(dropped.fire_count(), 0u);
}

TEST(QueryServiceWatch, ExactlyOncePerAffectingBoundary) {
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;
  query::query_service<2> service(cfg);
  service.bootstrap({pt(100, 100)});

  capture cap;
  auto handle = service.watch_knn(pt(0, 0), 8, cap.cb());

  // Each boundary inserts a strictly closer point, so every boundary
  // changes the k-NN result: fires must track boundaries one to one.
  const int boundaries = 10;
  for (int i = 0; i < boundaries; ++i) {
    const double c = 50.0 - i;
    service.execute({query::request<2>::make_insert(pt(c, c))});
    wait_until([&] { return cap.fire_count() == std::size_t(i + 1); },
               "one fire per boundary");
    // Never more than one fire per committed boundary.
    ASSERT_EQ(cap.fire_count(), std::size_t(i + 1));
  }
  const auto st = service.stats();
  EXPECT_EQ(st.watch_fires, std::size_t(boundaries));
  EXPECT_EQ(st.watch_suppressed, 0u);
}

// ---- TTL expiry -----------------------------------------------------------

TEST(QueryServiceTtl, IdleSweepRetiresExpiredPoints) {
  auto clock = std::make_shared<std::atomic<std::uint64_t>>(1);
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;
  cfg.point_ttl_ns = 1000;
  cfg.ttl_now = [clock] { return clock->load(); };
  query::query_service<2> service(cfg);
  std::vector<point<2>> boot;
  for (int i = 0; i < 64; ++i) boot.push_back(pt(i, i));
  service.bootstrap(boot);
  ASSERT_EQ(service.size(), 64u);

  // No traffic at all: the idle drainer timer must run the sweep.
  clock->store(2000);
  wait_until([&] { return service.stats().expired_points >= 64; },
             "idle TTL sweep");
  wait_until([&] { return live_size(service) == 0; }, "points retired");
}

TEST(QueryServiceTtl, InsertsExpireAfterTheirOwnWindow) {
  auto clock = std::make_shared<std::atomic<std::uint64_t>>(1);
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;
  cfg.point_ttl_ns = 1000;
  cfg.ttl_now = [clock] { return clock->load(); };
  query::query_service<2> service(cfg);
  service.bootstrap({pt(1, 1)});  // deadline ~1001

  clock->store(500);
  service.execute({query::request<2>::make_insert(pt(2, 2))});  // ~1500
  clock->store(1200);  // bootstrap point due, insert not yet
  wait_until([&] { return service.stats().expired_points >= 1; },
             "first window expires");
  wait_until([&] { return live_size(service) == 1; }, "one point left");
  EXPECT_EQ(live_rows(service), (std::vector<point<2>>{pt(2, 2)}));

  clock->store(2000);
  wait_until([&] { return live_size(service) == 0; },
             "second window expires");
  EXPECT_GE(service.stats().expired_points, 2u);
}

TEST(QueryServiceTtl, ExpiryBoundaryRefiresWatches) {
  auto clock = std::make_shared<std::atomic<std::uint64_t>>(1);
  query::service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;
  cfg.point_ttl_ns = 1000;
  cfg.ttl_now = [clock] { return clock->load(); };
  query::query_service<2> service(cfg);
  service.bootstrap({pt(1, 1), pt(2, 2)});

  capture cap;
  aabb<2> box(pt(0, 0), pt(3, 3));
  auto handle = service.watch_range(box, cap.cb());

  // Advance past the window with no client traffic: the expiry group is
  // itself a write boundary, so the watch fires with the emptied region.
  clock->store(5000);
  wait_until([&] { return live_size(service) == 0; }, "expiry retires all");
  wait_until(
      [&] { return cap.fire_count() >= 1 && cap.last_rows().empty(); },
      "expiry-driven fire with empty region");
}

// ---- randomized interleaving oracle ---------------------------------------

// Randomized interleaving of writes, expiries, and watch registrations on
// a sharded service vs the brute-force reference mirroring the exact same
// sequence. After every committed boundary the affected watches'
// fires must match a fresh query against the reference (k-NN compared as
// distance sequences — equidistant ties across shard boundaries — ranges
// as exact sorted multisets), and fires + suppressions must account for
// exactly one decision per alive watch per boundary. The TTL clock stays
// frozen through the write stream (so boundary accounting is exact), then
// one final advance expires the whole population and must re-fire every
// watch with the emptied region.
TEST(WatchOracle, MatchesUnshardedReference) {
  auto clock = std::make_shared<std::atomic<std::uint64_t>>(1);
  query::service_config cfg;
  cfg.shards = 4;
  cfg.policy = shard_policy::spatial;
  cfg.point_ttl_ns = 1u << 20;  // far future until the final advance
  cfg.ttl_now = [clock] { return clock->load(); };
  query::query_service<2> service(cfg);

  testutil::reference_index<2> reference;

  auto spec = query::make_churn_spec(300, 600, 0.5, 0.5);
  spec.seed = 7;  // write-only churn; the reads are the watches themselves
  auto initial = query::make_initial<2>(spec);
  service.bootstrap(initial);
  reference.bootstrap(initial);
  const auto reqs = query::make_requests<2>(spec, std::move(initial));
  const double side = spec.side();

  // Standing queries: three k-NN watches and two boxes, spread so stripe
  // pruning actually prunes some boundaries.
  struct watched {
    query::request<2> query;
    std::shared_ptr<capture> cap;
    query::watch_handle<2> handle;
  };
  std::vector<watched> watches;
  const auto add_knn = [&](point<2> q, std::size_t k) {
    auto c = std::make_shared<capture>();
    watches.push_back(
        {query::request<2>::make_knn(q, k), c,
         service.watch_knn(q, k, c->cb())});
  };
  const auto add_box = [&](aabb<2> box) {
    auto c = std::make_shared<capture>();
    watches.push_back(
        {query::request<2>::make_range(box), c,
         service.watch_range(box, c->cb())});
  };
  add_knn(pt(side * 0.2, side * 0.2), 5);
  add_knn(pt(side * 0.8, side * 0.8), 3);
  add_box(aabb<2>(pt(0, 0), pt(side * 0.3, side * 0.3)));
  add_box(aabb<2>(pt(side * 0.6, 0), pt(side, side)));
  add_knn(pt(side * 0.5, side * 0.5), 9);
  const std::size_t W = watches.size();

  // Phase A — the write stream, one batch per boundary, clock frozen so
  // no expiry boundary can interleave with the accounting.
  const std::size_t batch = 40;
  std::size_t boundaries = 0;
  for (std::size_t off = 0; off < reqs.size(); off += batch) {
    const std::size_t end = std::min(reqs.size(), off + batch);
    std::vector<query::request<2>> chunk(reqs.begin() + off,
                                         reqs.begin() + end);
    reference.execute(chunk);
    service.execute(std::move(chunk));
    ++boundaries;
    // Every decision is observable: fires + suppressed grows by exactly W
    // per boundary (each alive watch is either stripe-pruned,
    // delta-suppressed, or fired — never skipped, never doubled).
    wait_until(
        [&] {
          const auto st = service.stats();
          return st.watch_fires + st.watch_suppressed >= boundaries * W;
        },
        "boundary decisions settle");
    const auto st = service.stats();
    ASSERT_EQ(st.watch_fires + st.watch_suppressed, boundaries * W);

    // Each watch's latest fire must answer the post-boundary contents.
    // A suppressed boundary asserts the result did not change, so the
    // last fired rows must STILL equal a fresh reference query; a watch
    // that has never fired has no claim to check yet.
    std::vector<query::request<2>> probes;
    for (const auto& w : watches) probes.push_back(w.query);
    auto want = reference.execute(probes);
    for (std::size_t i = 0; i < W; ++i) {
      if (watches[i].cap->fire_count() == 0) continue;
      const auto got = watches[i].cap->last_rows();
      const auto& wrow = want.responses[i].points;
      if (watches[i].query.kind == op::knn) {
        ASSERT_EQ(got.size(), wrow.size()) << "watch " << i;
        for (std::size_t j = 0; j < got.size(); ++j) {
          ASSERT_EQ(got[j].dist_sq(watches[i].query.p),
                    wrow[j].dist_sq(watches[i].query.p))
              << "watch " << i << " row " << j;
        }
      } else {
        auto a = got;
        auto b2 = wrow;
        std::sort(a.begin(), a.end());
        std::sort(b2.begin(), b2.end());
        ASSERT_EQ(a, b2) << "watch " << i;
      }
    }
  }

  // Phase B — expire the whole population in one clock advance. The
  // sweep's erase groups are write boundaries like any other, so every
  // watch must converge to the emptied region: watches that had fired
  // re-fire with empty rows, never-fired watches get their (empty) first
  // fire.
  clock->fetch_add(cfg.point_ttl_ns + 1);
  wait_until([&] { return live_size(service) == 0; },
             "TTL drains everything");
  wait_until(
      [&] {
        for (const auto& w : watches) {
          if (w.cap->fire_count() == 0 || !w.cap->last_rows().empty()) {
            return false;
          }
        }
        return true;
      },
      "expiry re-fires every watch with the emptied region");
  EXPECT_GE(service.stats().expired_points, 300u);

  // Phase C — dropped handles never fire: cancel everything, run more
  // writes, and check the counters stay frozen.
  std::vector<std::size_t> final_fires;
  for (auto& w : watches) {
    final_fires.push_back(w.cap->fire_count());
    w.handle.cancel();
  }
  EXPECT_EQ(service.stats().active_watches, 0u);
  for (int i = 0; i < 4; ++i) {
    service.execute({query::request<2>::make_insert(pt(1 + i, 1))});
  }
  service.close();
  for (std::size_t i = 0; i < W; ++i) {
    EXPECT_EQ(watches[i].cap->fire_count(), final_fires[i])
        << "cancelled watch " << i << " fired";
  }
}

// Handles must stay safe after the service is gone (the registry is held
// shared), and close() must flush in-flight watch evaluations.
TEST(QueryServiceWatch, HandleOutlivesService) {
  query::watch_handle<2> handle;
  capture cap;
  {
    query::service_config cfg;
    cfg.shards = 2;
    cfg.policy = shard_policy::hash;
    query::query_service<2> service(cfg);
    service.bootstrap({pt(1, 1)});
    handle = service.watch_knn(pt(0, 0), 1, cap.cb());
    service.execute({query::request<2>::make_insert(pt(0.5, 0.5))});
    // Destructor closes: the pending watch evaluation flushes first.
  }
  EXPECT_EQ(cap.fire_count(), 1u);
  handle.cancel();  // safe post-mortem
  EXPECT_FALSE(handle.valid());
}

}  // namespace
