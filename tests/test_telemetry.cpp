// Unit + concurrency tests for the request-lifecycle telemetry
// (src/query/telemetry.h) and its threading through the query service:
//
//  - latency_histogram units: empty/single-sample percentiles, bucket
//    boundary <-> index consistency, percentile ordering, exact and
//    associative merges, atomic-recorder snapshots.
//  - Stage-monotonicity oracle on sampled trace spans (trace_sample=1):
//    for every ticket, the queue_wait span starts at submit and the
//    completion span (submit -> fulfil) covers it.
//  - Concurrent recorders under TSan: 4 producer threads against
//    4 shard lanes; no sample loss (stage counts equal the ticket
//    count) and the folded legacy `execute_seconds` counters agree with
//    the execute_write histograms to the nanosecond.
//  - Stage coverage: a traffic mix through every stage (watches, TTL,
//    op log, replica replay) leaves every stage histogram non-empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "query/query_service.h"
#include "query/replica.h"
#include "query/telemetry.h"
#include "query/workload.h"

using namespace pargeo;
using query::latency_histogram;
using query::stage;

namespace {

// ---- histogram units -------------------------------------------------------

TEST(LatencyHistogram, EmptySummariesToZero) {
  latency_histogram h;
  const auto s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_EQ(s.p999, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.sum_seconds, 0.0);
}

TEST(LatencyHistogram, SingleSampleIsItsOwnPercentiles) {
  for (const std::uint64_t ns :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{99},
        std::uint64_t{100}, std::uint64_t{141}, std::uint64_t{1000000},
        std::uint64_t{123456789}}) {
    latency_histogram h;
    h.record(ns);
    const auto s = h.summary();
    EXPECT_EQ(s.count, 1u);
    // The max tracker clamps the bucket upper bound, so a lone sample
    // reports exactly as itself at every percentile.
    EXPECT_EQ(s.p50, ns) << ns;
    EXPECT_EQ(s.p95, ns) << ns;
    EXPECT_EQ(s.p999, ns) << ns;
    EXPECT_EQ(s.max, ns) << ns;
  }
}

TEST(LatencyHistogram, BucketBoundariesRoundTrip) {
  for (int b = 0; b < latency_histogram::kBuckets; ++b) {
    const std::uint64_t lo = latency_histogram::bucket_lower(b);
    EXPECT_EQ(latency_histogram::bucket_index(lo), b) << "lower of " << b;
    if (b + 1 < latency_histogram::kBuckets) {
      const std::uint64_t hi = latency_histogram::bucket_upper(b);
      EXPECT_EQ(latency_histogram::bucket_index(hi - 1), b)
          << "upper-1 of " << b;
      EXPECT_EQ(latency_histogram::bucket_index(hi), b + 1)
          << "upper of " << b;
      EXPECT_LT(lo, hi) << b;
    }
  }
}

TEST(LatencyHistogram, PercentilesAreOrdered) {
  std::mt19937_64 rng(7);
  latency_histogram h;
  std::lognormal_distribution<double> d(10.0, 2.0);  // heavy tail, ~us-ms
  for (int i = 0; i < 20000; ++i) {
    h.record(static_cast<std::uint64_t>(d(rng)));
  }
  const auto s = h.summary();
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.max);
  EXPECT_GT(s.p50, 0u);
}

TEST(LatencyHistogram, MergeIsExactAndAssociative) {
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::uint64_t> d(0, std::uint64_t{1} << 34);
  latency_histogram a, b, c, all;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = d(rng);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
    all.record(v);
  }
  // (a + b) + c
  latency_histogram ab = a;
  ab.merge(b);
  latency_histogram ab_c = ab;
  ab_c.merge(c);
  // a + (b + c)
  latency_histogram bc = b;
  bc.merge(c);
  latency_histogram a_bc = a;
  a_bc.merge(bc);
  const auto l = ab_c.summary(), r = a_bc.summary(), w = all.summary();
  EXPECT_EQ(l.count, r.count);
  EXPECT_EQ(l.count, w.count);
  EXPECT_EQ(l.p50, r.p50);
  EXPECT_EQ(l.p999, r.p999);
  EXPECT_EQ(l.max, r.max);
  // Merging partitions reproduces the single-histogram summary exactly:
  // merge is bucket-wise addition, no resampling.
  EXPECT_EQ(l.p50, w.p50);
  EXPECT_EQ(l.p95, w.p95);
  EXPECT_EQ(l.p99, w.p99);
  EXPECT_EQ(l.p999, w.p999);
  EXPECT_EQ(l.max, w.max);
  EXPECT_DOUBLE_EQ(l.sum_seconds, w.sum_seconds);
}

TEST(LatencyHistogram, AtomicSnapshotMatchesPlainRecording) {
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<std::uint64_t> d(0, 10'000'000);
  query::atomic_latency_histogram atomic;
  latency_histogram plain;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t v = d(rng);
    atomic.record(v);
    plain.record(v);
  }
  const latency_histogram snap = atomic.snapshot();
  const auto a = snap.summary(), p = plain.summary();
  EXPECT_EQ(a.count, p.count);
  EXPECT_EQ(a.p50, p.p50);
  EXPECT_EQ(a.p999, p.p999);
  EXPECT_EQ(a.max, p.max);
}

// ---- service-level telemetry ----------------------------------------------

constexpr int kDim = 2;

query::workload_spec telemetry_spec(std::size_t initial_n,
                                    std::size_t num_ops, std::uint64_t seed) {
  auto spec = query::make_read_write_spec(initial_n, num_ops, 0.8);
  spec.batch_size = 64;
  spec.seed = seed;
  return spec;
}

// Submits `spec`'s stream asynchronously in read/write runs and redeems at
// the end; returns the number of tickets cut.
std::size_t submit_stream(query::query_service<kDim>& service,
                          const query::workload_spec& spec) {
  const auto reqs =
      query::make_requests<kDim>(spec, query::make_initial<kDim>(spec));
  std::vector<query::completion<kDim>> pending;
  std::size_t off = 0;
  while (off < reqs.size()) {
    const bool read_run = query::is_read(reqs[off].kind);
    std::size_t end = off + 1;
    while (end < reqs.size() && end - off < 64 &&
           query::is_read(reqs[end].kind) == read_run) {
      ++end;
    }
    pending.push_back(service.submit({reqs.begin() + off, reqs.begin() + end}));
    off = end;
  }
  for (auto& c : pending) c.get();
  return pending.size();
}

TEST(TelemetryService, SpanMonotonicityOracle) {
  query::service_config cfg;
  cfg.shards = 2;
  cfg.telemetry = query::telemetry_level::trace;
  cfg.trace_sample = 1;  // every ticket sampled
  cfg.trace_capacity = 1 << 16;
  query::query_service<kDim> service(cfg);
  const auto spec = telemetry_spec(400, 1500, 21);
  service.bootstrap(query::make_initial<kDim>(spec));
  const std::size_t tickets = submit_stream(service, spec);
  service.close();

  const auto spans = service.trace_events();
  ASSERT_FALSE(spans.empty());
  // Group the per-ticket lifecycle spans. queue_wait starts at submit;
  // completion also starts at submit and spans submit -> fulfil — so per
  // ticket the two share a start and completion covers queue_wait.
  std::map<std::uint64_t, std::uint64_t> queue_start, queue_dur, comp_start,
      comp_dur;
  const std::uint64_t horizon = query::monotonic_ns();
  for (const auto& sp : spans) {
    EXPECT_NE(sp.ticket, 0u);
    EXPECT_LE(sp.ts_ns + sp.dur_ns, horizon);
    const std::string name = sp.name;
    if (name == "queue_wait") {
      queue_start[sp.ticket] = sp.ts_ns;
      queue_dur[sp.ticket] = sp.dur_ns;
    } else if (name == "completion") {
      comp_start[sp.ticket] = sp.ts_ns;
      comp_dur[sp.ticket] = sp.dur_ns;
    }
  }
  EXPECT_EQ(comp_dur.size(), tickets);
  ASSERT_FALSE(queue_dur.empty());
  for (const auto& [ticket, dur] : queue_dur) {
    ASSERT_TRUE(comp_dur.count(ticket)) << "ticket " << ticket;
    EXPECT_EQ(queue_start[ticket], comp_start[ticket]) << ticket;
    // fulfil happens after dequeue: completion covers the queue wait.
    EXPECT_GE(comp_dur[ticket], dur) << ticket;
  }

  // And the report agrees: every ticket recorded queue_wait + completion.
  const auto rep = service.telemetry_snapshot();
  EXPECT_EQ(rep.stage_hist(stage::completion).summary().count, tickets);
  EXPECT_EQ(rep.stage_hist(stage::queue_wait).summary().count, tickets);
}

TEST(TelemetryService, ConcurrentRecordersLoseNothing) {
  constexpr int kProducers = 4;
  query::service_config cfg;
  cfg.shards = 4;
  cfg.telemetry = query::telemetry_level::stats;
  query::query_service<kDim> service(cfg);
  const auto base = telemetry_spec(400, 800, 31);
  service.bootstrap(query::make_initial<kDim>(base));

  std::vector<std::size_t> tickets(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      auto spec = base;
      spec.seed = base.seed + 100 + t;
      tickets[t] = submit_stream(service, spec);
    });
  }
  for (auto& p : producers) p.join();
  service.close();

  std::size_t total = 0;
  for (const auto n : tickets) total += n;
  ASSERT_GT(total, 0u);

  const auto svc = service.stats();
  const auto& rep = svc.telemetry;
  // No sample loss across 4 producers x 4 shard lanes: every ticket
  // passes queue_wait once and completes once.
  EXPECT_EQ(rep.stage_hist(stage::queue_wait).summary().count, total);
  EXPECT_EQ(rep.stage_hist(stage::completion).summary().count, total);

  // The fold satellite's invariant: legacy per-lane execute_seconds and
  // the execute_write histograms are fed from the same nanosecond deltas
  // (keyed by the task's shard in both), so their totals agree.
  double lane_secs = 0;
  for (const auto& lane : svc.per_shard) lane_secs += lane.execute_seconds;
  double hist_secs = 0;
  ASSERT_EQ(rep.shards.size(), cfg.shards);
  for (const auto& stages : rep.shards) {
    hist_secs +=
        stages[query::stage_index(stage::execute_write)].summary().sum_seconds;
  }
  EXPECT_NEAR(lane_secs, hist_secs, 1e-6 + 1e-9 * lane_secs);

  // Prometheus exposition covers the stage histograms.
  const std::string text = query::metrics_text(svc);
  EXPECT_NE(text.find("pargeo_stage_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("stage=\"completion\""), std::string::npos);
  EXPECT_NE(text.find("pargeo_tickets_total"), std::string::npos);
}

// Every lifecycle stage reaches its histogram under a traffic mix that
// passes through it: read-only and write tickets (queue_wait through
// completion, plus the drain's reclaim advance), a standing watch
// (watch_eval), a TTL sweep (expire), the primary's op-log append
// (replicate) and a replica applying the log (replay). Each stage must
// hold samples with p99 > 0: a zero means its stamps stopped reaching
// the histograms.
TEST(TelemetryService, EveryStageRecordsUnderMixedTraffic) {
  auto clock = std::make_shared<std::atomic<std::uint64_t>>(1);
  query::service_config cfg;
  cfg.shards = 2;
  cfg.point_ttl_ns = 1000;
  cfg.ttl_now = [clock] { return clock->load(); };
  query::query_service<kDim> primary(cfg);
  auto log = std::make_shared<query::op_log<kDim>>();
  primary.attach_log(log);
  const auto spec = telemetry_spec(400, 1500, 51);
  const auto initial = query::make_initial<kDim>(spec);
  primary.bootstrap(initial);
  auto watch = primary.watch_knn(initial.front(), 4,
                                 [](const query::watch_event<kDim>&) {});
  submit_stream(primary, spec);

  clock->store(1'000'000);  // every resident point's window has elapsed
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (primary.stats().expired_points == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the TTL sweep never ran";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  query::replica_set<kDim> replicas(log, cfg, 1, /*start_tails=*/false);
  replicas.pump();
  primary.close();
  replicas.close();

  auto rep = primary.stats().telemetry;
  rep.merge(replicas.replica(0).stats().telemetry);
  for (std::size_t i = 0; i < query::kNumStages; ++i) {
    const auto st = static_cast<stage>(i);
    const auto sum = rep.stage_hist(st).summary();
    EXPECT_GT(sum.count, 0u) << query::stage_name(st);
    EXPECT_GT(sum.p99, 0u) << query::stage_name(st);
  }
}

// Telemetry off must keep all telemetry surfaces empty (and cheap).
TEST(TelemetryService, OffRecordsNothing) {
  query::service_config cfg;
  cfg.shards = 2;
  cfg.telemetry = query::telemetry_level::off;
  query::query_service<kDim> service(cfg);
  const auto spec = telemetry_spec(200, 400, 41);
  service.bootstrap(query::make_initial<kDim>(spec));
  submit_stream(service, spec);
  service.close();
  const auto rep = service.telemetry_snapshot();
  EXPECT_EQ(rep.stage_hist(stage::completion).summary().count, 0u);
  EXPECT_TRUE(service.trace_events().empty());
  EXPECT_FALSE(service.dump_trace("/dev/null"));
}

}  // namespace
