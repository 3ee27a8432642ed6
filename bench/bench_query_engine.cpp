// Benchmark: query-service throughput vs read/write ratio, backend, and
// shard count (paper Fig. 12/14 style, applied to the unified front end).
//
// Part 1 sweeps read fraction {0.50, 0.90, 0.99} x backend x shard count
// {1, 4} on the same uniform stream: the static kd-tree amortizes rebuilds
// via its threshold policy, the Zd-tree pays a sorted merge, the BDL-tree a
// logarithmic cascade — the spread between rows is the paper's headline
// trade-off, and the shard column shows what scatter/gather adds on top.
// Part 2 sweeps threads at the 90%-read point for batch-internal scaling.
// Part 3 drives the asynchronous completion pipeline with 4 concurrent
// producers at >= 90% reads: read-only ticket groups execute on the
// snapshot-read pool while the drain pipeline applies write groups, and
// the `lag` column counts read drains that retired after the live write
// epoch had already moved past their snapshot — the epoch-snapshot
// concurrency the service exists for.
// Part 4 (`ingest_scaling`) streams 50%-write tickets from 1 / 2 / 4
// producers through the lock-free ingest ring, with producer-spin and
// epoch-reclaimer counters.
// Part 5 (`cache_zipf`) measures the hot k-NN result cache on zipf 90%-read
// traffic (hot-key serving: most payloads re-probe a few keys), cache off
// vs on, with hit/miss/evict counters and the hit rate.
// Part 6 (`skew_drain`) is the adversarial-skew section: payload points
// concentrate in one corner stripe (dist=skewed) under spatial sharding,
// so per-shard routing funnels nearly every write into one lane. It runs
// with stripe rebalancing off vs on; the rebalance counters prove the
// mechanism engaged.
// Part 7 (`continuous_queries`) serves standing k-NN/box watches
// (query/subscription.h) over a write-only churn stream with a 25 ms
// sliding-window TTL: watch count x backend, with fire/suppression
// counters, the suppression ratio (stripe pruning + delta suppression),
// expired-point totals, and watch-eval latency percentiles from the
// `watch_eval` stage histogram.
//
// Part 8 (`telemetry_overhead`) re-runs the zipf 90%-read serving bench at
// telemetry off / stats / trace and reports the throughput delta — the
// "<3% with stats on" acceptance number in EXPERIMENTS.md comes from here.
// Part 9 (`replication`) measures read scaling on the replicated tier
// (query/replica.h): 4 concurrent staleness-tolerant readers plus one
// writer against 0 / 1 / 2 live-tailing replicas under a bounded
// staleness router — read ops/s per replica count, with replay counters
// and end-of-run replica lag.
//
// Part 10 (`durability`) prices the fault-tolerance layer (query/oplog.h,
// query/checkpoint.h): 50%-read serving with the durable op log attached
// under each sync policy (none / interval / every_commit) against the
// no-log baseline — ops/s plus fsync and byte counts — then crash
// recovery time vs checkpoint cadence: the same write history is laid
// down at checkpoint_every 0 / 4 / 16 and `query_service::recover()`
// is timed rebuilding from the newest checkpoint + salvaged log tail,
// reporting recovered epochs and residual log replay.
//
// `--json` emits one JSON object per row instead of the aligned table, so
// EXPERIMENTS.md can be regenerated mechanically. The first JSON line is a
// `meta` row stamping `hardware_concurrency` plus build provenance
// (compiler, build type, sanitizer, git SHA), so consumers can tell a
// 1-core container run (lanes cannot add compute) from real hardware and
// a sanitizer build from a clean one. Every throughput row also carries
// end-to-end completion-latency percentiles (`lat_p50_us`/`p99`/`p999`),
// and each section is followed by `latency` rows: per-stage
// p50/p95/p99/p999/max merged across the section's runs.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>

#include "bench_common.h"
#include "query/query_service.h"
#include "query/replica.h"
#include "query/workload.h"

using namespace pargeo;

namespace {

constexpr int kDim = 2;

query::workload_spec make_spec(std::size_t initial_n, std::size_t num_ops,
                               double read_frac) {
  auto spec = query::make_read_write_spec(initial_n, num_ops, read_frac);
  spec.batch_size = 2048;
  return spec;
}

struct sweep_row {
  double ops_per_sec = 0;
  query::service_stats stats;
};

sweep_row run_ops_per_sec(query::backend b, std::size_t shards,
                          query::shard_policy policy,
                          const query::workload_spec& spec) {
  query::service_config cfg;
  cfg.backend = b;
  cfg.shards = shards;
  cfg.policy = policy;
  query::query_service<kDim> service(cfg);
  const auto stats = query::run_workload<kDim>(service, spec);
  service.close();  // flush the pipeline so stage counters are final
  sweep_row row;
  row.ops_per_sec = stats.ops_per_sec();
  row.stats = service.stats();
  return row;
}

// ---- stage-latency reporting ----------------------------------------------

/// End-to-end completion-latency fields appended to every throughput JSON
/// row: `,"lat_p50_us":..,"lat_p99_us":..,"lat_p999_us":..` (empty string
/// when the run recorded nothing, e.g. telemetry off).
std::string completion_fields(const query::service_stats& st) {
  const auto c =
      st.telemetry.stage_hist(query::stage::completion).summary();
  if (c.count == 0) return "";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ",\"lat_p50_us\":%.1f,\"lat_p99_us\":%.1f,"
                "\"lat_p999_us\":%.1f",
                c.p50 / 1e3, c.p99 / 1e3, c.p999 / 1e3);
  return buf;
}

/// Flushes one section's merged telemetry as per-stage percentile rows:
/// `{"section":"latency","of":"<section>","stage":...}` under --json, an
/// aligned table otherwise. Stages with no samples are skipped.
void emit_latency(bool json, const char* of,
                  const query::telemetry_report& rep) {
  bool header = false;
  for (std::size_t i = 0; i < query::kNumStages; ++i) {
    const auto s = rep.stages[i].summary();
    if (s.count == 0) continue;
    const char* st = query::stage_name(static_cast<query::stage>(i));
    if (json) {
      std::printf(
          "{\"section\":\"latency\",\"of\":\"%s\",\"stage\":\"%s\","
          "\"count\":%llu,\"p50_us\":%.1f,\"p95_us\":%.1f,"
          "\"p99_us\":%.1f,\"p999_us\":%.1f,\"max_us\":%.1f}\n",
          of, st, static_cast<unsigned long long>(s.count), s.p50 / 1e3,
          s.p95 / 1e3, s.p99 / 1e3, s.p999 / 1e3, s.max / 1e3);
    } else {
      if (!header) {
        bench::print_header(
            std::string("stage latency: ") + of + " (us, merged over "
            "section runs)",
            "stage               count        p50        p95        p99"
            "       p999        max");
        header = true;
      }
      std::printf("%-15s %10llu %10.1f %10.1f %10.1f %10.1f %10.1f\n", st,
                  static_cast<unsigned long long>(s.count), s.p50 / 1e3,
                  s.p95 / 1e3, s.p99 / 1e3, s.p999 / 1e3, s.max / 1e3);
    }
  }
}

// ---- durability ------------------------------------------------------------

std::string fresh_bench_dir() {
  std::string tmpl = "/tmp/pargeo_benchXXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) return std::string();
  return tmpl;
}

void remove_bench_dir(const std::string& dir) {
  if (dir.empty()) return;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

// One serving run with the durable op log attached (or detached, for the
// no-log baseline): what commit durability costs at each fsync cadence.
sweep_row run_durable(bool log_on, query::sync_policy sync,
                      std::size_t checkpoint_every,
                      const query::workload_spec& spec,
                      const std::string& dir) {
  query::service_config cfg;
  cfg.backend = query::backend::bdltree;
  cfg.shards = 2;
  cfg.policy = query::shard_policy::hash;
  if (log_on) {
    cfg.log_dir = dir;
    cfg.sync = sync;
    cfg.checkpoint_every = checkpoint_every;
  }
  query::query_service<kDim> service(cfg);
  const auto stats = query::run_workload<kDim>(service, spec);
  service.close();
  sweep_row row;
  row.ops_per_sec = stats.ops_per_sec();
  row.stats = service.stats();
  return row;
}

struct recovery_row {
  double recover_ms = 0;
  query::service_stats stats;
  std::size_t resident = 0;
};

// Times query_service::recover() over the directory a run_durable call
// left behind: checkpoint load + salvaged-tail replay, end to end.
recovery_row time_recovery(const std::string& dir,
                           std::size_t checkpoint_every) {
  query::service_config cfg;  // must match the writer's topology
  cfg.backend = query::backend::bdltree;
  cfg.shards = 2;
  cfg.policy = query::shard_policy::hash;
  cfg.checkpoint_every = checkpoint_every;
  timer clock;
  auto svc = query::query_service<kDim>::recover(dir, cfg);
  recovery_row row;
  row.recover_ms = clock.elapsed() * 1e3;
  row.resident = svc->size();
  svc->close();
  row.stats = svc->stats();
  return row;
}

struct async_row {
  double ops_per_sec = 0;
  query::service_stats stats;
};

// 4 producer threads submit their own deterministic 90%-read streams
// through the completion API and redeem at the end — nobody blocks
// mid-stream, so the drain thread and the snapshot-read pool run the whole
// time. Tickets are cut at read/write boundaries (the realistic client
// pattern: reads batch together, writes ship alone), which is what lets
// read-only groups take the snapshot path while write groups drain.
async_row run_async_producers(query::backend b, std::size_t shards,
                              std::size_t initial_n, std::size_t num_ops) {
  constexpr int kProducers = 4;
  constexpr std::size_t kBatch = 512;

  query::service_config cfg;
  cfg.backend = b;
  cfg.shards = shards;
  cfg.policy = query::shard_policy::hash;
  // Producers redeem only after submitting everything, so completed
  // tickets can pile up far past the serving default; the retention cap
  // must cover the whole stream or the tail gets evicted mid-bench.
  cfg.max_retained = std::size_t{1} << 20;
  query::query_service<kDim> service(cfg);

  auto spec = make_spec(initial_n, num_ops / kProducers, 0.90);
  service.bootstrap(query::make_initial<kDim>(spec));

  timer clock;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      auto my_spec = spec;
      my_spec.seed = spec.seed + 100 + t;
      const auto reqs = query::make_requests<kDim>(my_spec);
      std::vector<query::completion<kDim>> pending;
      std::size_t off = 0;
      while (off < reqs.size()) {
        const bool read_run = query::is_read(reqs[off].kind);
        std::size_t end = off + 1;
        while (end < reqs.size() && end - off < kBatch &&
               query::is_read(reqs[end].kind) == read_run) {
          ++end;
        }
        pending.push_back(service.submit(
            {reqs.begin() + off, reqs.begin() + end}));
        off = end;
      }
      for (auto& c : pending) c.get();
    });
  }
  for (auto& p : producers) p.join();
  const double secs = clock.elapsed();
  service.close();

  async_row row;
  row.stats = service.stats();
  row.ops_per_sec =
      secs > 0 ? static_cast<double>(row.stats.num_requests) / secs : 0;
  return row;
}

struct ingest_row {
  double ops_per_sec = 0;
  query::service_stats stats;
};

// The submission seam under producer contention: N producers stream
// read/write-cut tickets through the bounded MPSC ring (producers CAS
// slots). bdltree + 50% writes keeps the BDL forest churning so
// superseded vEB trees flow through the epoch reclaimer (the
// retired/reclaimed columns), and read-cut tickets give the un-pinned
// snapshot path write drains to overlap with (snapshot_lag_drains).
ingest_row run_ingest_scaling(int producers, std::size_t initial_n,
                              std::size_t num_ops) {
  constexpr std::size_t kBatch = 256;
  query::service_config cfg;
  cfg.backend = query::backend::bdltree;
  cfg.shards = 2;
  cfg.policy = query::shard_policy::hash;
  cfg.max_retained = std::size_t{1} << 20;  // producers redeem at the end
  query::query_service<kDim> service(cfg);

  auto spec = make_spec(initial_n, num_ops / producers, 0.50);
  service.bootstrap(query::make_initial<kDim>(spec));

  timer clock;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (int t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      auto my_spec = spec;
      my_spec.seed = spec.seed + 300 + t;
      const auto reqs = query::make_requests<kDim>(my_spec);
      std::vector<query::completion<kDim>> pending;
      std::size_t off = 0;
      while (off < reqs.size()) {
        const bool read_run = query::is_read(reqs[off].kind);
        std::size_t end = off + 1;
        while (end < reqs.size() && end - off < kBatch &&
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
  for (auto& p : threads) p.join();
  const double secs = clock.elapsed();
  service.close();

  ingest_row row;
  row.stats = service.stats();
  row.ops_per_sec =
      secs > 0 ? static_cast<double>(row.stats.num_requests) / secs : 0;
  return row;
}

struct cache_row {
  double ops_per_sec = 0;
  query::service_stats stats;
};

// Zipf hot-key serving traffic (90% reads, skewed key reuse) with the
// k-NN result cache off vs on: identical streams, so the ops/s delta and
// the hit rate are directly attributable to the cache.
cache_row run_cache_zipf(
    query::backend b, std::size_t cache_capacity, std::size_t initial_n,
    std::size_t num_ops,
    query::telemetry_level tl = query::telemetry_level::stats) {
  auto spec = make_spec(initial_n, num_ops, 0.90);
  spec.dist = query::distribution::zipf;
  spec.zipf_s = 1.8;        // steep skew: a handful of keys dominate
  spec.zipf_hot_frac = 0.95;  // payloads nearly always re-probe hot keys
  query::service_config cfg;
  cfg.backend = b;
  cfg.shards = 2;
  cfg.policy = query::shard_policy::hash;
  cfg.cache_capacity = cache_capacity;
  cfg.telemetry = tl;
  query::query_service<kDim> service(cfg);
  const auto stats = query::run_workload<kDim>(service, spec);
  service.close();
  cache_row row;
  row.ops_per_sec = stats.ops_per_sec();
  row.stats = service.stats();
  return row;
}

struct skew_row {
  double ops_per_sec = 0;
  query::service_stats stats;
};

// Adversarially skewed stream under spatial stripes: one async producer
// (no mid-stream waits, bounded by backpressure) so the hot lane's queue
// actually builds up. Cache off to isolate the drain path.
skew_row run_skew_drain(query::backend b, double rebalance_threshold,
                        const query::workload_spec& spec) {
  query::service_config cfg;
  cfg.backend = b;
  cfg.shards = 4;
  cfg.policy = query::shard_policy::spatial;
  cfg.cache_capacity = 0;
  cfg.rebalance_threshold = rebalance_threshold;
  // One drain group per submitted batch, several groups in flight.
  cfg.ingest_window = std::max<std::size_t>(1, spec.batch_size);
  cfg.max_pending_requests = 8 * cfg.ingest_window;
  cfg.max_retained = std::size_t{1} << 20;  // nothing redeems mid-stream
  query::query_service<kDim> service(cfg);

  auto initial = query::make_initial<kDim>(spec);
  service.bootstrap(initial);
  const auto reqs = query::make_requests<kDim>(spec, std::move(initial));

  timer clock;
  std::vector<query::completion<kDim>> pending;
  const std::size_t bs = std::max<std::size_t>(1, spec.batch_size);
  for (std::size_t off = 0; off < reqs.size(); off += bs) {
    const std::size_t end = std::min(reqs.size(), off + bs);
    pending.push_back(
        service.submit({reqs.begin() + off, reqs.begin() + end}));
  }
  for (auto& c : pending) c.get();
  const double secs = clock.elapsed();
  service.close();

  skew_row row;
  row.stats = service.stats();
  row.ops_per_sec = secs > 0 ? static_cast<double>(reqs.size()) / secs : 0;
  return row;
}

struct watch_row {
  double ops_per_sec = 0;
  query::service_stats stats;
};

// Continuous-query serving: N standing watches (alternating k-NN and box,
// spread diagonally over the bbox) over a write-only churn stream with a
// sliding-window TTL, streamed async so write groups and watch
// re-evaluations overlap. The fire/suppression split shows how much work
// stripe pruning and delta suppression save; watch-eval latency lands in
// the section's `watch_eval` stage histogram.
watch_row run_continuous_queries(query::backend b, std::size_t num_watches,
                                 std::size_t initial_n,
                                 std::size_t num_ops) {
  auto spec = query::make_churn_spec(initial_n, num_ops, 0.5, 0.5);
  spec.batch_size = std::max<std::size_t>(64, num_ops / 64);
  query::service_config cfg;
  cfg.backend = b;
  cfg.shards = 4;
  cfg.policy = query::shard_policy::spatial;
  cfg.point_ttl_ns = 25'000'000;  // 25 ms window: expiry races the stream
  cfg.cache_capacity = 0;         // isolate the watch path
  cfg.ingest_window = std::max<std::size_t>(1, spec.batch_size);
  cfg.max_pending_requests = 4 * cfg.ingest_window;
  cfg.max_retained = std::size_t{1} << 20;
  query::query_service<kDim> service(cfg);

  auto initial = query::make_initial<kDim>(spec);
  service.bootstrap(initial);
  const auto reqs = query::make_requests<kDim>(spec, std::move(initial));

  std::vector<query::watch_handle<kDim>> handles;
  handles.reserve(num_watches);
  const double side = spec.side();
  for (std::size_t w = 0; w < num_watches; ++w) {
    const double t = num_watches > 1
                         ? static_cast<double>(w) / (num_watches - 1)
                         : 0.5;
    point<kDim> at;
    for (int d = 0; d < kDim; ++d) at[d] = t * side;
    if (w % 2 == 0) {
      handles.push_back(service.watch_knn(
          at, spec.k, [](const query::watch_event<kDim>&) {}));
    } else {
      point<kDim> hi;
      for (int d = 0; d < kDim; ++d) hi[d] = at[d] + side * 0.1;
      handles.push_back(service.watch_range(
          aabb<kDim>(at, hi), [](const query::watch_event<kDim>&) {}));
    }
  }

  timer clock;
  std::vector<query::completion<kDim>> pending;
  const std::size_t bs = std::max<std::size_t>(1, spec.batch_size);
  for (std::size_t off = 0; off < reqs.size(); off += bs) {
    const std::size_t end = std::min(reqs.size(), off + bs);
    pending.push_back(
        service.submit({reqs.begin() + off, reqs.begin() + end}));
  }
  for (auto& c : pending) c.get();
  const double secs = clock.elapsed();
  service.close();

  watch_row row;
  row.stats = service.stats();
  row.ops_per_sec = secs > 0 ? static_cast<double>(reqs.size()) / secs : 0;
  return row;
}

struct replication_row {
  double read_ops_per_sec = 0;   // measured phase: concurrent readers only
  std::size_t read_requests = 0;
  std::uint64_t replica_lag = 0;  // max lag when the readers finished
  std::size_t replayed_groups = 0;
  std::size_t replayed_records = 0;
  query::router_stats router;
  query::service_stats stats;  // primary
  query::telemetry_report replica_tel;  // merged replica telemetry (replay)
};

// Read-scaling on the replicated tier: a primary with an attached op log,
// N live-tailing replicas, and a router with a staleness bound. A seed
// phase churns the index through the router (building the log and letting
// the tails trail it); the measured phase runs 4 concurrent reader
// threads issuing staleness-tolerant read batches (min_epoch 0, bound
// max_lag) while one writer keeps committing — the 90%-read serving shape.
// With 0 replicas every read lands on the primary's reader pool; each
// added replica brings its own pool, which is where the scaling comes
// from.
replication_row run_replication(query::backend b, std::size_t replicas,
                                std::uint64_t max_lag, std::size_t initial_n,
                                std::size_t num_ops) {
  constexpr int kReaders = 4;
  query::service_config cfg;
  cfg.backend = b;
  cfg.shards = 4;
  cfg.policy = query::shard_policy::hash;
  query::query_service<kDim> service(cfg);
  auto log = std::make_shared<query::op_log<kDim>>();
  service.attach_log(log);

  query::replica_set<kDim> reps(log, cfg, replicas);
  query::replica_router<kDim> router(service, reps, log, max_lag);
  query::routed_executor<kDim, query::query_service<kDim>,
                         query::replica_router<kDim>>
      exec{service, router};

  // Seed phase: run the mixed stream through the router (not timed here)
  // so the measured phase reads a churned index with a populated log.
  auto seed_spec = make_spec(initial_n, num_ops / 4, 0.90);
  query::run_workload<kDim>(exec, seed_spec, nullptr);
  const auto seed_rs = router.stats();  // measured phase reports its own

  // Measured phase: concurrent staleness-tolerant readers + one writer.
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    auto wspec = make_spec(initial_n, std::max<std::size_t>(64, num_ops / 10),
                           /*read_frac=*/0.0);
    wspec.seed = seed_spec.seed + 7;
    const auto writes = query::make_requests<kDim>(wspec);
    std::size_t off = 0;
    while (!stop_writer.load(std::memory_order_acquire) &&
           off < writes.size()) {
      const std::size_t end = std::min(writes.size(), off + 64);
      router.execute({writes.begin() + off, writes.begin() + end});
      off = end;
    }
  });

  std::atomic<std::size_t> read_requests{0};
  timer clock;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      auto rspec = make_spec(initial_n, num_ops / kReaders,
                             /*read_frac=*/1.0);
      rspec.seed = seed_spec.seed + 100 + t;
      const auto reads = query::make_requests<kDim>(rspec);
      constexpr std::size_t kBatch = 256;
      for (std::size_t off = 0; off < reads.size(); off += kBatch) {
        const std::size_t end = std::min(reads.size(), off + kBatch);
        router.execute({reads.begin() + off, reads.begin() + end},
                       /*min_epoch=*/0);
        read_requests.fetch_add(end - off, std::memory_order_relaxed);
      }
    });
  }
  for (auto& r : readers) r.join();
  const double read_secs = clock.elapsed();
  stop_writer.store(true, std::memory_order_release);
  writer.join();

  replication_row row;
  row.read_requests = read_requests.load();
  row.read_ops_per_sec =
      read_secs > 0 ? static_cast<double>(row.read_requests) / read_secs : 0;
  const std::uint64_t head = log->head();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const std::uint64_t a = reps.applied_epoch(i);
    row.replica_lag = std::max(row.replica_lag, head > a ? head - a : 0);
  }
  service.close();
  reps.close();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto rs = reps.replica(i).stats();
    row.replayed_groups += rs.replayed_groups;
    row.replayed_records += rs.replayed_records;
    row.replica_tel.merge(rs.telemetry);
  }
  row.router = router.stats();
  row.router.writes -= seed_rs.writes;
  row.router.reads_to_replicas -= seed_rs.reads_to_replicas;
  row.router.reads_to_primary -= seed_rs.reads_to_primary;
  row.router.fallbacks -= seed_rs.fallbacks;
  row.stats = service.stats();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const std::size_t initial_n = bench::base_n();
  const std::size_t num_ops = bench::base_n();
  const auto policy = query::shard_policy::hash;

  if (json) {
    // Machine-readable hardware + build context: a 1-core container
    // measures lane parallelism at parity by construction, and a
    // sanitizer build's numbers are not comparable to a clean one.
    std::printf("{\"section\":\"meta\",\"hardware_concurrency\":%u,"
                "\"base_n\":%zu,\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"sanitize\":\"%s\",\"git_sha\":\"%s\"}\n",
                std::thread::hardware_concurrency(), initial_n,
                bench::compiler_id().c_str(), bench::build_type(),
                bench::sanitize_flags(), bench::git_sha());
  } else {
    std::printf("# hardware_concurrency=%u compiler=\"%s\" build=%s "
                "sanitize=%s sha=%s\n",
                std::thread::hardware_concurrency(),
                bench::compiler_id().c_str(), bench::build_type(),
                bench::sanitize_flags(), bench::git_sha());
  }

  // Merged per-stage telemetry of the section currently running; flushed
  // (and reset) by emit_latency at each section boundary.
  query::telemetry_report section_tel;

  if (!json) {
    bench::print_header(
        "query service: throughput vs read fraction (uniform, dim=2)",
        "backend            read%  shards              ops/s");
  }
  for (const double rf : {0.50, 0.90, 0.99}) {
    const auto spec = make_spec(initial_n, num_ops, rf);
    for (auto b : {query::backend::kdtree, query::backend::zdtree,
                   query::backend::bdltree}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        const auto row = run_ops_per_sec(b, shards, policy, spec);
        section_tel.merge(row.stats.telemetry);
        if (json) {
          std::printf(
              "{\"section\":\"read_sweep\",\"backend\":\"%s\","
              "\"read_frac\":%.2f,\"shards\":%zu,\"policy\":\"%s\","
              "\"initial_n\":%zu,\"num_ops\":%zu,\"ops_per_sec\":%.0f%s}\n",
              query::backend_name(b), rf, shards,
              query::shard_policy_name(policy), initial_n, num_ops,
              row.ops_per_sec, completion_fields(row.stats).c_str());
        } else {
          std::printf("%-18s %5.0f%% %7zu %18.0f\n", query::backend_name(b),
                      rf * 100, shards, row.ops_per_sec);
        }
      }
    }
  }
  emit_latency(json, "read_sweep", section_tel);
  section_tel = query::telemetry_report{};

  if (!json) {
    bench::print_header(
        "query service: thread scaling (90% reads, bdltree, 4 shards)",
        "impl           threads              ops/s");
  }
  const auto spec = make_spec(initial_n, num_ops, 0.90);
  for (const int t : bench::thread_sweep()) {
    bench::scoped_threads guard(t);
    const auto row =
        run_ops_per_sec(query::backend::bdltree, 4, policy, spec);
    section_tel.merge(row.stats.telemetry);
    if (json) {
      std::printf(
          "{\"section\":\"thread_sweep\",\"backend\":\"bdltree\","
          "\"shards\":4,\"threads\":%d,\"initial_n\":%zu,\"num_ops\":%zu,"
          "\"ops_per_sec\":%.0f%s}\n",
          t, initial_n, num_ops, row.ops_per_sec,
          completion_fields(row.stats).c_str());
    } else {
      bench::print_throughput_row("bdltree", t, row.ops_per_sec);
    }
  }
  emit_latency(json, "thread_sweep", section_tel);
  section_tel = query::telemetry_report{};

  if (!json) {
    bench::print_header(
        "async completion pipeline: 4 producers, 90% reads, 2 shards",
        "backend             ops/s   drains  read-grp write-grp  "
        "snapshot-lag");
  }
  for (auto b : {query::backend::kdtree, query::backend::zdtree,
                 query::backend::bdltree}) {
    const auto row = run_async_producers(b, 2, initial_n, num_ops);
    section_tel.merge(row.stats.telemetry);
    if (json) {
      std::printf(
          "{\"section\":\"async_producers\",\"backend\":\"%s\","
          "\"producers\":4,\"read_frac\":0.90,\"shards\":2,"
          "\"initial_n\":%zu,\"num_ops\":%zu,\"ops_per_sec\":%.0f,"
          "\"drains\":%zu,\"read_groups\":%zu,\"write_groups\":%zu,"
          "\"snapshot_lag_drains\":%zu%s}\n",
          query::backend_name(b), initial_n, num_ops, row.ops_per_sec,
          row.stats.num_drains, row.stats.num_read_groups,
          row.stats.num_write_groups, row.stats.snapshot_lag_drains,
          completion_fields(row.stats).c_str());
    } else {
      std::printf("%-14s %12.0f %8zu %9zu %9zu %13zu\n",
                  query::backend_name(b), row.ops_per_sec,
                  row.stats.num_drains, row.stats.num_read_groups,
                  row.stats.num_write_groups, row.stats.snapshot_lag_drains);
    }
  }
  emit_latency(json, "async_producers", section_tel);
  section_tel = query::telemetry_report{};

  if (!json) {
    bench::print_header(
        "ingest scaling: lock-free ring (bdltree, 50% reads, 2 shards)",
        "producers            ops/s    spins  retired/freed  lag-drains");
  }
  // Heavier stream than the other sections on purpose: the BDL staging
  // buffer absorbs ~1024 points per shard before any vEB tree exists, and
  // the reclaimer only sees traffic once trees churn.
  const std::size_t ingest_ops = 4 * num_ops;
  for (const int producers : {1, 2, 4}) {
    const auto row = run_ingest_scaling(producers, initial_n, ingest_ops);
    section_tel.merge(row.stats.telemetry);
    if (json) {
      std::printf(
          "{\"section\":\"ingest_scaling\",\"backend\":\"bdltree\","
          "\"ingest\":\"lockfree\",\"producers\":%d,\"read_frac\":0.50,"
          "\"shards\":2,\"initial_n\":%zu,\"num_ops\":%zu,"
          "\"ops_per_sec\":%.0f,\"ingest_spins\":%llu,"
          "\"retired_snapshots\":%llu,\"reclaimed_snapshots\":%llu,"
          "\"reclaim_stalls\":%llu,\"epoch_lag\":%llu,"
          "\"limbo_snapshots\":%llu,\"snapshot_lag_drains\":%zu,"
          "\"read_groups\":%zu,\"write_groups\":%zu%s}\n",
          producers, initial_n, ingest_ops, row.ops_per_sec,
          static_cast<unsigned long long>(row.stats.ingest_spins),
          static_cast<unsigned long long>(row.stats.retired_snapshots),
          static_cast<unsigned long long>(row.stats.reclaimed_snapshots),
          static_cast<unsigned long long>(row.stats.reclaim_stalls),
          static_cast<unsigned long long>(row.stats.epoch_lag),
          static_cast<unsigned long long>(row.stats.limbo_snapshots),
          row.stats.snapshot_lag_drains, row.stats.num_read_groups,
          row.stats.num_write_groups, completion_fields(row.stats).c_str());
    } else {
      std::printf("%9d %16.0f %8llu %10llu/%-6llu %6zu\n", producers,
                  row.ops_per_sec,
                  static_cast<unsigned long long>(row.stats.ingest_spins),
                  static_cast<unsigned long long>(row.stats.retired_snapshots),
                  static_cast<unsigned long long>(
                      row.stats.reclaimed_snapshots),
                  row.stats.snapshot_lag_drains);
    }
  }
  emit_latency(json, "ingest_scaling", section_tel);
  section_tel = query::telemetry_report{};

  if (!json) {
    bench::print_header(
        "hot k-NN cache: zipf 90% reads, 2 shards, cache off vs on",
        "backend            cache            ops/s       hits     misses  "
        "hit%   evict");
  }
  for (auto b : {query::backend::kdtree, query::backend::zdtree,
                 query::backend::bdltree}) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{4096}}) {
      const auto row = run_cache_zipf(b, cap, initial_n, num_ops);
      section_tel.merge(row.stats.telemetry);
      const auto& cs = row.stats.cache;
      if (json) {
        std::printf(
            "{\"section\":\"cache_zipf\",\"backend\":\"%s\","
            "\"cache\":\"%s\",\"cache_capacity\":%zu,\"read_frac\":0.90,"
            "\"shards\":2,\"initial_n\":%zu,\"num_ops\":%zu,"
            "\"ops_per_sec\":%.0f,\"cache_hits\":%zu,\"cache_misses\":%zu,"
            "\"hit_rate\":%.3f,\"cache_evictions\":%zu,"
            "\"avg_hit_us\":%.2f,\"avg_miss_us\":%.2f%s}\n",
            query::backend_name(b), cap > 0 ? "on" : "off", cap, initial_n,
            num_ops, row.ops_per_sec, cs.hits, cs.misses, cs.hit_rate(),
            cs.evictions, cs.avg_hit_ns() / 1e3, cs.avg_miss_ns() / 1e3,
            completion_fields(row.stats).c_str());
      } else {
        std::printf("%-18s %-6s %14.0f %10zu %10zu %5.0f%% %7zu\n",
                    query::backend_name(b), cap > 0 ? "on" : "off",
                    row.ops_per_sec, cs.hits, cs.misses,
                    cs.hit_rate() * 100, cs.evictions);
      }
    }
  }
  emit_latency(json, "cache_zipf", section_tel);
  section_tel = query::telemetry_report{};

  if (!json) {
    bench::print_header(
        "skew drain: skewed writes, spatial stripes, 4 shards, rebalance "
        "off/on",
        "backend            rebal            ops/s  rebal/moved");
  }
  auto skew_spec = make_spec(initial_n, num_ops, 0.50);
  skew_spec.dist = query::distribution::skewed;
  skew_spec.skew_frac = 0.1;  // hot cube well inside one stripe of four
  // ~64 drain groups at any PARGEO_N: queue depth on the hot lane comes
  // from group count, not group size.
  skew_spec.batch_size = std::max<std::size_t>(64, num_ops / 64);
  for (auto b : {query::backend::kdtree, query::backend::zdtree,
                 query::backend::bdltree}) {
    for (const double rebal : {0.0, 1.3}) {
      const auto row = run_skew_drain(b, rebal, skew_spec);
      section_tel.merge(row.stats.telemetry);
      if (json) {
        std::printf(
            "{\"section\":\"skew_drain\",\"backend\":\"%s\","
            "\"shards\":4,\"policy\":\"spatial\","
            "\"dist\":\"skewed\",\"read_frac\":0.50,"
            "\"rebalance_threshold\":%.2f,\"initial_n\":%zu,"
            "\"num_ops\":%zu,\"ops_per_sec\":%.0f,\"rebalances\":%zu,"
            "\"rebalance_moved\":%zu,\"drains\":%zu%s}\n",
            query::backend_name(b), rebal, initial_n, num_ops,
            row.ops_per_sec, row.stats.rebalances, row.stats.rebalance_moved,
            row.stats.num_drains, completion_fields(row.stats).c_str());
      } else {
        std::printf("%-18s %5.2f %16.0f  %5zu/%zu\n", query::backend_name(b),
                    rebal, row.ops_per_sec, row.stats.rebalances,
                    row.stats.rebalance_moved);
      }
    }
  }
  emit_latency(json, "skew_drain", section_tel);
  section_tel = query::telemetry_report{};

  if (!json) {
    bench::print_header(
        "continuous queries: standing watches over a churn stream with "
        "25ms TTL, spatial stripes, 4 shards",
        "backend            watches            ops/s      fires  "
        "suppressed  sup%  expired  fire_p50us  fire_p99us");
  }
  for (auto b : {query::backend::kdtree, query::backend::zdtree,
                 query::backend::bdltree}) {
    for (const std::size_t nwatch : {std::size_t{8}, std::size_t{64}}) {
      const auto row =
          run_continuous_queries(b, nwatch, initial_n, num_ops);
      section_tel.merge(row.stats.telemetry);
      const auto fire =
          row.stats.telemetry.stage_hist(query::stage::watch_eval).summary();
      const std::size_t decisions =
          row.stats.watch_fires + row.stats.watch_suppressed;
      const double sup_ratio =
          decisions > 0
              ? static_cast<double>(row.stats.watch_suppressed) / decisions
              : 0;
      if (json) {
        std::printf(
            "{\"section\":\"continuous_queries\",\"backend\":\"%s\","
            "\"watches\":%zu,\"dist\":\"churn\",\"shards\":4,"
            "\"policy\":\"spatial\",\"ttl_ns\":25000000,"
            "\"initial_n\":%zu,\"num_ops\":%zu,\"ops_per_sec\":%.0f,"
            "\"watch_fires\":%zu,\"watch_suppressed\":%zu,"
            "\"suppression_ratio\":%.3f,\"expired_points\":%zu,"
            "\"fire_p50_us\":%.1f,\"fire_p99_us\":%.1f%s}\n",
            query::backend_name(b), nwatch, initial_n, num_ops,
            row.ops_per_sec, row.stats.watch_fires,
            row.stats.watch_suppressed, sup_ratio, row.stats.expired_points,
            fire.p50 / 1e3, fire.p99 / 1e3,
            completion_fields(row.stats).c_str());
      } else {
        std::printf(
            "%-18s %7zu %16.0f %10zu %11zu %4.0f%% %8zu %11.1f %11.1f\n",
            query::backend_name(b), nwatch, row.ops_per_sec,
            row.stats.watch_fires, row.stats.watch_suppressed,
            sup_ratio * 100, row.stats.expired_points, fire.p50 / 1e3,
            fire.p99 / 1e3);
      }
    }
  }
  emit_latency(json, "continuous_queries", section_tel);
  section_tel = query::telemetry_report{};

  // Part 8: telemetry overhead. Same zipf 90%-read serving workload at
  // telemetry off / stats / trace, best-of-3 to shave scheduler noise —
  // the stats row's delta vs off is the acceptance number recorded in
  // EXPERIMENTS.md (<3%).
  if (!json) {
    bench::print_header(
        "telemetry overhead: zipf 90% reads, bdltree, 2 shards — "
        "off vs stats vs trace (best of 3)",
        "telemetry             ops/s   vs off");
  }
  double off_ops = 0;
  for (auto tl : {query::telemetry_level::off, query::telemetry_level::stats,
                  query::telemetry_level::trace}) {
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto row =
          run_cache_zipf(query::backend::bdltree, 4096, initial_n, num_ops,
                         tl);
      best = std::max(best, row.ops_per_sec);
      if (tl != query::telemetry_level::off) {
        section_tel.merge(row.stats.telemetry);
      }
    }
    if (tl == query::telemetry_level::off) off_ops = best;
    const double delta_pct =
        off_ops > 0 ? (off_ops - best) / off_ops * 100 : 0;
    if (json) {
      std::printf(
          "{\"section\":\"telemetry_overhead\",\"backend\":\"bdltree\","
          "\"read_frac\":0.90,\"dist\":\"zipf\",\"shards\":2,"
          "\"initial_n\":%zu,\"num_ops\":%zu,\"telemetry\":\"%s\","
          "\"ops_per_sec\":%.0f,\"overhead_pct_vs_off\":%.2f}\n",
          initial_n, num_ops, query::telemetry_level_name(tl), best,
          delta_pct);
    } else {
      std::printf("%-12s %14.0f %7.2f%%\n", query::telemetry_level_name(tl),
                  best, delta_pct);
    }
  }
  emit_latency(json, "telemetry_overhead", section_tel);
  section_tel = query::telemetry_report{};

  // Part 9: read scaling on the replicated tier. The replicate/replay
  // stage histograms land in this section's latency rows.
  if (!json) {
    bench::print_header(
        "replication: 4 readers + 1 writer through the router, bdltree, "
        "4 shards, max_epoch_lag=2 — read ops/s vs replica count",
        "replicas        read_ops/s  reads(replica/primary/fallback)  "
        "replayed  lag");
  }
  for (const std::size_t nreps :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    const auto row = run_replication(query::backend::bdltree, nreps,
                                     /*max_lag=*/2, initial_n, num_ops);
    section_tel.merge(row.stats.telemetry);
    section_tel.merge(row.replica_tel);
    if (json) {
      std::printf(
          "{\"section\":\"replication\",\"backend\":\"bdltree\","
          "\"shards\":4,\"policy\":\"hash\",\"read_frac\":0.90,"
          "\"replicas\":%zu,\"max_epoch_lag\":2,\"initial_n\":%zu,"
          "\"num_ops\":%zu,\"read_ops_per_sec\":%.0f,"
          "\"read_requests\":%zu,\"reads_to_replicas\":%zu,"
          "\"reads_to_primary\":%zu,\"fallbacks\":%zu,"
          "\"replayed_groups\":%zu,\"replayed_records\":%zu,"
          "\"replica_lag\":%llu,\"log_epoch\":%llu%s}\n",
          nreps, initial_n, num_ops, row.read_ops_per_sec,
          row.read_requests, row.router.reads_to_replicas,
          row.router.reads_to_primary, row.router.fallbacks,
          row.replayed_groups, row.replayed_records,
          static_cast<unsigned long long>(row.replica_lag),
          static_cast<unsigned long long>(row.stats.log_epoch),
          completion_fields(row.stats).c_str());
    } else {
      std::printf("%8zu %17.0f %12zu/%zu/%-13zu %9zu %4llu\n", nreps,
                  row.read_ops_per_sec, row.router.reads_to_replicas,
                  row.router.reads_to_primary, row.router.fallbacks,
                  row.replayed_groups,
                  static_cast<unsigned long long>(row.replica_lag));
    }
  }
  emit_latency(json, "replication", section_tel);
  section_tel = query::telemetry_report{};

  // Part 10: durability. First the append+sync price per policy on a
  // write-heavy serving run, then recovery time vs checkpoint cadence
  // over the same write history.
  if (!json) {
    bench::print_header(
        "durability: 50%-read serving with durable op log, bdltree, "
        "2 shards — append+sync cost per policy",
        "sync_policy              ops/s      syncs      bytes");
  }
  // Smaller batches than the serving sections: the durability story is
  // per-commit (frame + fsync per write group), so the sweep needs enough
  // write groups for the cadences below to actually fire.
  auto dur_spec = make_spec(initial_n, num_ops, 0.50);
  dur_spec.batch_size = 256;
  struct sync_mode {
    const char* name;
    bool log_on;
    query::sync_policy sync;
  };
  const sync_mode modes[] = {
      {"off(no log)", false, query::sync_policy::none},
      {"none", true, query::sync_policy::none},
      {"interval", true, query::sync_policy::interval},
      {"every_commit", true, query::sync_policy::every_commit},
  };
  for (const auto& m : modes) {
    const std::string dir = m.log_on ? fresh_bench_dir() : std::string();
    const auto row = run_durable(m.log_on, m.sync, /*checkpoint_every=*/0,
                                 dur_spec, dir);
    section_tel.merge(row.stats.telemetry);
    if (json) {
      std::printf(
          "{\"section\":\"durability\",\"mode\":\"append\","
          "\"backend\":\"bdltree\",\"shards\":2,\"read_frac\":0.50,"
          "\"sync\":\"%s\",\"initial_n\":%zu,\"num_ops\":%zu,"
          "\"ops_per_sec\":%.0f,\"log_syncs\":%llu,\"log_bytes\":%llu%s}\n",
          m.name, initial_n, num_ops, row.ops_per_sec,
          static_cast<unsigned long long>(row.stats.log_syncs),
          static_cast<unsigned long long>(row.stats.log_bytes),
          completion_fields(row.stats).c_str());
    } else {
      std::printf("%-18s %10.0f %10llu %10llu\n", m.name, row.ops_per_sec,
                  static_cast<unsigned long long>(row.stats.log_syncs),
                  static_cast<unsigned long long>(row.stats.log_bytes));
    }
    remove_bench_dir(dir);
  }

  if (!json) {
    bench::print_header(
        "durability: recovery time vs checkpoint cadence (same write "
        "history, sync=interval) — recover() = newest checkpoint + "
        "salvaged log tail",
        "ck_every   recover_ms  recovered_epochs  checkpoints  resident");
  }
  for (const std::size_t ck_every :
       {std::size_t{0}, std::size_t{4}, std::size_t{16}}) {
    const std::string dir = fresh_bench_dir();
    const auto wrote = run_durable(true, query::sync_policy::interval,
                                   ck_every, dur_spec, dir);
    section_tel.merge(wrote.stats.telemetry);
    const auto rec = time_recovery(dir, ck_every);
    if (json) {
      std::printf(
          "{\"section\":\"durability\",\"mode\":\"recover\","
          "\"backend\":\"bdltree\",\"shards\":2,\"read_frac\":0.50,"
          "\"checkpoint_every\":%zu,\"initial_n\":%zu,\"num_ops\":%zu,"
          "\"recover_ms\":%.1f,\"recovered_epochs\":%llu,"
          "\"truncated_groups\":%llu,\"checkpoints\":%zu,"
          "\"resident\":%zu}\n",
          ck_every, initial_n, num_ops, rec.recover_ms,
          static_cast<unsigned long long>(rec.stats.recovered_epochs),
          static_cast<unsigned long long>(rec.stats.truncated_groups),
          wrote.stats.checkpoints, rec.resident);
    } else {
      std::printf("%8zu %12.1f %17llu %12zu %9zu\n", ck_every,
                  rec.recover_ms,
                  static_cast<unsigned long long>(rec.stats.recovered_epochs),
                  wrote.stats.checkpoints, rec.resident);
    }
    remove_bench_dir(dir);
  }
  emit_latency(json, "durability", section_tel);
  return 0;
}
