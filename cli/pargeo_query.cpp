// CLI: run a synthetic mixed read/write workload through the query service.
//
//   pargeo_query <dim 2|3> <initial_n> <num_ops>
//                [read_frac=0.9]
//                [dist uniform|clustered|zipf|skewed|drifting|churn]
//                [batch_size=2048] [seed=1] [shards=1] [policy hash|spatial]
//                [rebalance_threshold=0]
//                [--verbose] [--telemetry off|stats|trace]
//                [--trace-out <path>] [--metrics-out <path>]
//                [--ttl <ns>] [--watches <n>]
//                [--replicas <n>] [--max-lag <epochs>]
//                [--log-dir <dir>] [--sync none|interval|every_commit]
//                [--checkpoint-every <groups>] [--deadline-us <us>]
//
// Flags (anywhere on the command line, stripped before positional
// parsing):
//   --verbose             print the per-shard lane table (drains, queue
//                         high-water, per-shard execute percentiles)
//                         after the result row
//   --telemetry LEVEL     off | stats (default) | trace
//   --trace-out PATH      write sampled trace spans as Chrome
//                         chrome://tracing / Perfetto JSON; implies
//                         --telemetry trace (sample 1-in-8)
//   --metrics-out PATH    write Prometheus text exposition of the final
//                         service counters
//   --ttl NS              sliding-window TTL: every bootstrapped or
//                         inserted point is retired NS nanoseconds after
//                         it arrived (query/subscription docs in
//                         query_service.h). 0 (default) disables expiry.
//   --watches N           register N standing queries (alternating k-NN
//                         and box watches spread over the workload bbox)
//                         before the stream runs; their re-fire /
//                         suppression counters print after the result
//                         row. Pair with dist=churn or --ttl to watch a
//                         moving population.
//   --replicas N          attach an op log to the primary and host N
//                         epoch-trailing read replicas (query/replica.h),
//                         routing the stream through a replica_router:
//                         writes to the primary, reads scattered across
//                         replicas under the staleness bound, with
//                         read-your-writes floors threaded batch to
//                         batch. A replication summary line (per-replica
//                         applied epoch / lag, routed-read split,
//                         fallbacks, replayed groups) prints after the
//                         result row; --metrics-out additionally gets
//                         the replication gauges appended.
//   --max-lag EPOCHS      staleness bound for --replicas: a replica may
//                         serve reads while trailing the log head by at
//                         most this many committed write groups
//                         (default 1; 0 = fully caught-up replicas only)
//   --log-dir DIR         durable op log: every committed write group is
//                         framed+checksummed into DIR/oplog.pgol before
//                         its tickets complete; `pargeo_query` can be
//                         killed and the directory recovered with
//                         query_service::recover (query/oplog.h,
//                         query/checkpoint.h). A durability summary line
//                         (checkpoints, syncs, bytes, shed requests)
//                         prints after the result row.
//   --sync POLICY         fsync cadence for --log-dir: none (page cache
//                         only), interval (default; every 32 groups), or
//                         every_commit (power-loss safe; EXPERIMENTS.md
//                         points at the archived price per policy)
//   --checkpoint-every N  with --log-dir: write a checkpoint every N
//                         committed write groups and compact the log
//                         below it (0 = never, default). Bounds both
//                         recovery time and log size.
//   --deadline-us US      admission deadline: batches still queued US
//                         microseconds after submit are shed with
//                         timed-out completions instead of executing
//                         (0 = off). Counted in the durability summary
//                         and pargeo_deadline_expired_total.
//
// The service shards the logical index across `shards` BDL-trees by
// `policy`; reads scatter/gather-merge, writes
// route to owning shards, and write groups pipeline across one executor
// lane per shard. `rebalance_threshold` (> 1, spatial policy only)
// enables online stripe rebalancing when max/mean shard imbalance crosses
// it. A positional past it is an error, like any other malformed argument.
// `skewed`/`drifting` concentrate payload points in a (moving) corner
// cube — the adversarial stream for spatial stripes. Reads split 70%
// k-NN / 15% box range / 15% ball range; writes split evenly between
// inserts and erases. Each batch of the stream is one ticket. Prints the
// ticket count, throughput (requests over the stream's wall-clock),
// ticket-latency percentiles (each ticket's measured submit-to-complete
// `latency_seconds`; under --replicas a batch is one run per read or
// write stretch, run one after another, and its latency is their sum),
// the `hits=` checksum (rows returned, the same for every shard count and
// policy on one stream), the drain pipeline's counters (total drain groups,
// read/snapshot-path vs write groups, `lag` — read drains that retired
// after the live write epoch had already advanced past their snapshot),
// per-lane drain counts and rebalance counters, then an ingest/reclaim
// summary line (producer spins on a full ingest ring, snapshot versions
// retired / freed / in limbo, reclaim stalls, epoch lag). With telemetry
// on (the default) the result row is followed by the request-lifecycle
// stage-latency table (p50/p95/p99/p999/max per stage, from
// query/telemetry.h).
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "query/query_service.h"
#include "query/replica.h"
#include "query/workload.h"

using namespace pargeo;

namespace {

/// Flag options, stripped from argv before positional parsing.
struct cli_opts {
  bool verbose = false;        // per-shard lane table
  std::string trace_out;       // Chrome/Perfetto trace JSON path
  std::string metrics_out;     // Prometheus text exposition path
  std::uint64_t ttl_ns = 0;    // sliding-window point TTL, 0 = off
  std::size_t watches = 0;     // standing queries registered up front
  std::size_t replicas = 0;    // epoch-trailing read replicas, 0 = off
  std::uint64_t max_lag = 1;   // replica staleness bound (epochs)
  std::string log_dir;              // durable op log directory, "" = off
  query::sync_policy sync = query::sync_policy::interval;
  std::size_t checkpoint_every = 0;  // write groups per checkpoint, 0 = never
  std::uint64_t deadline_us = 0;     // admission deadline, 0 = off
};

query::workload_spec make_spec(std::size_t initial_n, std::size_t num_ops,
                               double read_frac, query::distribution dist,
                               std::size_t batch_size, uint64_t seed) {
  auto spec = query::make_read_write_spec(initial_n, num_ops, read_frac);
  spec.batch_size = batch_size;
  spec.dist = dist;
  spec.seed = seed;
  return spec;
}

/// Indented per-stage latency table for one finished run (values us).
void print_stage_table(const query::telemetry_report& rep) {
  std::printf("  %-15s %10s %10s %10s %10s %10s %10s\n", "stage", "count",
              "p50us", "p95us", "p99us", "p999us", "maxus");
  for (std::size_t i = 0; i < query::kNumStages; ++i) {
    const auto s = rep.stages[i].summary();
    if (s.count == 0) continue;
    std::printf("  %-15s %10llu %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                query::stage_name(static_cast<query::stage>(i)),
                static_cast<unsigned long long>(s.count), s.p50 / 1e3,
                s.p95 / 1e3, s.p99 / 1e3, s.p999 / 1e3, s.max / 1e3);
  }
}

template <int D>
int run(const query::workload_spec& spec,
        const query::service_config& base_cfg, const cli_opts& opts) {
  query::service_config cfg = base_cfg;
  std::printf(
      "workload: dim=%d initial=%zu ops=%zu dist=%s batch=%zu seed=%llu "
      "shards=%zu policy=%s rebalance=%.2f\n",
      D, spec.initial_points, spec.num_ops,
      query::distribution_name(spec.dist), spec.batch_size,
      static_cast<unsigned long long>(spec.seed), cfg.shards,
      query::shard_policy_name(cfg.policy), cfg.rebalance_threshold);
  if (!opts.trace_out.empty() && cfg.telemetry != query::telemetry_level::trace) {
    cfg.telemetry = query::telemetry_level::trace;
    cfg.trace_sample = 8;  // denser than the service default for a CLI run
  }
  query::query_service<D> service(cfg);

  // Replicated read tier: attach the op log before bootstrap (the build
  // must be epoch 1), then host the trailing replicas and the router the
  // workload will flow through.
  std::shared_ptr<query::op_log<D>> log;
  std::unique_ptr<query::replica_set<D>> replicas;
  std::unique_ptr<query::replica_router<D>> router;
  if (opts.replicas > 0) {
    if (!opts.log_dir.empty()) {
      // --log-dir already attached a durable log in the ctor; the
      // replicas tail that one (attaching a second would orphan the
      // durable file).
      log = service.log();
    } else {
      log = std::make_shared<query::op_log<D>>();
      service.attach_log(log);
    }
    replicas = std::make_unique<query::replica_set<D>>(log, cfg, opts.replicas);
    router = std::make_unique<query::replica_router<D>>(service, *replicas,
                                                        log, opts.max_lag);
  }

  // Standing queries: alternate k-NN and box watches spread diagonally
  // across the workload bbox, registered before the stream so every write
  // boundary exercises the re-fire path. No-op callbacks — the service
  // counters tell the story.
  std::vector<query::watch_handle<D>> watch_handles;
  watch_handles.reserve(opts.watches);
  const double side = spec.side();
  for (std::size_t w = 0; w < opts.watches; ++w) {
    const double t = opts.watches > 1
                         ? static_cast<double>(w) / (opts.watches - 1)
                         : 0.5;
    point<D> at;
    for (int d = 0; d < D; ++d) at[d] = t * side;
    if (w % 2 == 0) {
      watch_handles.push_back(service.watch_knn(
          at, spec.k, [](const query::watch_event<D>&) {}));
    } else {
      point<D> hi;
      for (int d = 0; d < D; ++d) hi[d] = at[d] + side * 0.1;
      watch_handles.push_back(service.watch_range(
          aabb<D>(at, hi), [](const query::watch_event<D>&) {}));
    }
  }

  std::vector<query::response<D>> responses;
  std::vector<double> latencies;
  double seconds = 0;
  if (router) {
    query::routed_executor<D, query::query_service<D>,
                           query::replica_router<D>>
        exec{service, *router};
    seconds = query::run_workload<D>(exec, spec, &responses, &latencies);
  } else {
    seconds = query::run_workload<D>(service, spec, &responses, &latencies);
  }

  // Result checksum: total hits returned, comparable across shard
  // counts and shard policies (identical streams yield identical hits).
  std::size_t hits = 0, reads = 0;
  for (const auto& r : responses) {
    hits += r.points.size();
    reads += query::is_read(r.kind) ? 1 : 0;
  }

  service.close();
  const auto svc = service.stats();
  std::size_t lane_drains = 0;
  for (const auto& lane : svc.per_shard) lane_drains += lane.num_drains;
  std::printf(
      "ops=%zu reads=%zu writes=%zu tickets=%zu  %10.0f ops/s  "
      "lat p50=%.3fms p90=%.3fms p99=%.3fms  hits=%zu size=%zu  "
      "drains=%zu (r=%zu w=%zu lag=%zu lane=%zu)  rebal=%zu moved=%zu\n",
      responses.size(), reads, responses.size() - reads, latencies.size(),
      seconds > 0 ? static_cast<double>(responses.size()) / seconds : 0.0,
      query::percentile(latencies, 50) * 1e3,
      query::percentile(latencies, 90) * 1e3,
      query::percentile(latencies, 99) * 1e3, hits, service.size(),
      svc.num_drains, svc.num_read_groups, svc.num_write_groups,
      svc.snapshot_lag_drains, lane_drains, svc.rebalances,
      svc.rebalance_moved);
  std::printf(
      "  ingest: spins=%llu  reclaim: retired=%llu freed=%llu limbo=%llu "
      "stalls=%llu lag=%llu\n",
      static_cast<unsigned long long>(svc.ingest_spins),
      static_cast<unsigned long long>(svc.retired_snapshots),
      static_cast<unsigned long long>(svc.reclaimed_snapshots),
      static_cast<unsigned long long>(svc.limbo_snapshots),
      static_cast<unsigned long long>(svc.reclaim_stalls),
      static_cast<unsigned long long>(svc.epoch_lag));

  if (opts.watches > 0 || cfg.point_ttl_ns > 0) {
    std::printf("  watches=%zu fires=%zu suppressed=%zu expired=%zu\n",
                svc.active_watches, svc.watch_fires, svc.watch_suppressed,
                svc.expired_points);
  }
  if (!opts.log_dir.empty() || opts.deadline_us > 0) {
    std::printf(
        "  durability: sync=%s syncs=%llu bytes=%llu checkpoints=%zu "
        "(errors=%zu) append_errors=%zu shed=%zu\n",
        query::sync_policy_name(cfg.sync),
        static_cast<unsigned long long>(svc.log_syncs),
        static_cast<unsigned long long>(svc.log_bytes), svc.checkpoints,
        svc.checkpoint_errors, svc.log_append_errors, svc.deadline_expired);
  }
  if (replicas) {
    // Let the tails drain the last committed groups so the printed lag is
    // the steady state, not a race with the final batch.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (replicas->min_applied_epoch() < log->head() &&
           !replicas->tail_failed() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto rs = router->stats();
    std::size_t replayed_groups = 0;
    for (std::size_t i = 0; i < replicas->size(); ++i) {
      replayed_groups += replicas->replica(i).stats().replayed_groups;
    }
    std::printf(
        "  replication: replicas=%zu max_lag=%llu log_epoch=%llu "
        "reads(replica=%zu primary=%zu fallbacks=%zu) writes=%zu "
        "replayed_groups=%zu\n",
        replicas->size(), static_cast<unsigned long long>(opts.max_lag),
        static_cast<unsigned long long>(log->head()), rs.reads_to_replicas,
        rs.reads_to_primary, rs.fallbacks, rs.writes, replayed_groups);
    for (std::size_t i = 0; i < replicas->size(); ++i) {
      const std::uint64_t applied = replicas->applied_epoch(i);
      const std::uint64_t head = log->head();
      std::printf("    replica %zu: applied=%llu lag=%llu\n", i,
                  static_cast<unsigned long long>(applied),
                  static_cast<unsigned long long>(head > applied
                                                      ? head - applied
                                                      : 0));
    }
    if (replicas->tail_failed()) {
      std::fprintf(stderr, "  replication: tail failed: %s\n",
                   replicas->tail_error().c_str());
    }
  }
  if (svc.telemetry.level != query::telemetry_level::off) {
    print_stage_table(svc.telemetry);
  }
  if (opts.verbose) {
    // Per-shard lane table (behind --verbose: at high shard counts this
    // is a screenful).
    std::printf("  %-6s %8s %9s %8s %7s %10s %10s\n", "shard", "drains",
                "requests", "exec_s", "maxq", "exec_p50us", "exec_p99us");
    for (std::size_t s = 0; s < svc.per_shard.size(); ++s) {
      const auto& lane = svc.per_shard[s];
      query::latency_histogram exec;  // write + read execution, merged
      if (s < svc.telemetry.shards.size()) {
        exec.merge(svc.telemetry.shards[s][query::stage_index(
            query::stage::execute_write)]);
        exec.merge(svc.telemetry.shards[s][query::stage_index(
            query::stage::execute_read)]);
      }
      const auto es = exec.summary();
      std::printf("  %-6zu %8zu %9zu %8.3f %7zu %10.1f %10.1f\n", s,
                  lane.num_drains, lane.num_requests, lane.execute_seconds,
                  lane.max_queue_depth, es.p50 / 1e3, es.p99 / 1e3);
    }
  }
  if (!opts.trace_out.empty()) {
    if (service.dump_trace(opts.trace_out)) {
      std::printf("  trace: wrote %s\n", opts.trace_out.c_str());
    } else {
      std::fprintf(stderr, "  trace: tracing disabled, nothing written\n");
    }
  }
  if (!opts.metrics_out.empty()) {
    std::string text = query::metrics_text(svc);
    if (replicas) {
      const auto rs = router->stats();
      text += query::replication_metrics_text<D>(*replicas, *log, &rs);
    }
    if (std::FILE* f = std::fopen(opts.metrics_out.c_str(), "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("  metrics: wrote %s\n", opts.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "  metrics: cannot open %s\n",
                   opts.metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}

/// Strict parse of a non-negative number: all of `s` must parse (atoll
/// and atof turn a typo into 0 and a negative count into a huge one, so
/// the run would measure a workload nobody asked for). Prints a one-line
/// error naming `what` and returns false otherwise.
template <class T>
bool parse_arg(const char* s, const char* what, T& out) {
  constexpr bool real = std::is_floating_point_v<T>;
  char* end = nullptr;
  errno = 0;
  const auto v = [&] {
    if constexpr (real) {
      return std::strtod(s, &end);
    } else {
      return std::strtoll(s, &end, 10);
    }
  }();
  if (end == s || *end != '\0' || errno == ERANGE || !(v >= 0)) {
    std::fprintf(stderr, "%s must be a non-negative %s (got '%s')\n", what,
                 real ? "number" : "integer", s);
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip flags first so they can appear anywhere; what remains is the
  // positional grammar documented in the usage string.
  cli_opts opts;
  query::telemetry_level telemetry = query::telemetry_level::stats;
  std::vector<char*> pos;
  pos.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const char* a = argv[i];
    auto value_of = [&](const char* flag) -> const char* {
      // --flag VALUE or --flag=VALUE
      const std::size_t n = std::strlen(flag);
      if (std::strncmp(a, flag, n) != 0) return nullptr;
      if (a[n] == '=') return a + n + 1;
      if (a[n] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (std::strcmp(a, "--verbose") == 0) {
      opts.verbose = true;
    } else if (const char* v = value_of("--trace-out")) {
      opts.trace_out = v;
    } else if (const char* v = value_of("--metrics-out")) {
      opts.metrics_out = v;
    } else if (const char* v = value_of("--telemetry")) {
      try {
        telemetry = query::telemetry_level_from_string(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (const char* v = value_of("--ttl")) {
      if (!parse_arg(v, "--ttl", opts.ttl_ns)) return 2;
    } else if (const char* v = value_of("--watches")) {
      if (!parse_arg(v, "--watches", opts.watches)) return 2;
    } else if (const char* v = value_of("--replicas")) {
      if (!parse_arg(v, "--replicas", opts.replicas)) return 2;
    } else if (const char* v = value_of("--max-lag")) {
      if (!parse_arg(v, "--max-lag", opts.max_lag)) return 2;
    } else if (const char* v = value_of("--log-dir")) {
      opts.log_dir = v;
    } else if (const char* v = value_of("--sync")) {
      try {
        opts.sync = query::sync_policy_from_string(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (const char* v = value_of("--checkpoint-every")) {
      if (!parse_arg(v, "--checkpoint-every", opts.checkpoint_every)) return 2;
    } else if (const char* v = value_of("--deadline-us")) {
      if (!parse_arg(v, "--deadline-us", opts.deadline_us)) return 2;
    } else if (std::strncmp(a, "--", 2) == 0 && a[2] != '\0') {
      std::fprintf(stderr, "unknown flag '%s'\n", a);
      return 2;
    } else {
      pos.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(pos.size());
  argv = pos.data();

  if (argc < 4) {
    std::fprintf(
        stderr,
        "usage: %s <dim 2|3> <initial_n> <num_ops> [read_frac=0.9] "
        "[dist uniform|clustered|zipf|skewed|drifting|churn] "
        "[batch_size=2048] "
        "[seed=1] [shards=1] [policy hash|spatial] "
        "[rebalance_threshold=0] [--verbose] "
        "[--telemetry off|stats|trace] [--trace-out path] "
        "[--metrics-out path] [--ttl ns] [--watches n] [--replicas n] "
        "[--max-lag epochs] [--log-dir dir] "
        "[--sync none|interval|every_commit] [--checkpoint-every n] "
        "[--deadline-us us]\n",
        argv[0]);
    return 2;
  }
  if (argc > 11) {
    std::fprintf(stderr,
                 "unexpected argument '%s' after rebalance_threshold\n",
                 argv[11]);
    return 2;
  }
  std::size_t dim = 0, initial_n = 0, num_ops = 0, batch_size = 2048;
  std::size_t shards = 1;
  double read_frac = 0.9;
  std::uint64_t seed = 1;
  if (!parse_arg(argv[1], "dim", dim) ||
      !parse_arg(argv[2], "initial_n", initial_n) ||
      !parse_arg(argv[3], "num_ops", num_ops) ||
      (argc > 4 && !parse_arg(argv[4], "read_frac", read_frac))) {
    return 2;
  }
  if (read_frac > 1) {
    std::fprintf(stderr, "read_frac must be in [0, 1]\n");
    return 2;
  }
  query::distribution dist = query::distribution::uniform;
  if (argc > 5) {
    try {
      dist = query::distribution_from_string(argv[5]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  if ((argc > 6 && !parse_arg(argv[6], "batch_size", batch_size)) ||
      (argc > 7 && !parse_arg(argv[7], "seed", seed)) ||
      (argc > 8 && !parse_arg(argv[8], "shards", shards))) {
    return 2;
  }
  if (shards < 1) {
    std::fprintf(stderr, "shards must be >= 1\n");
    return 2;
  }
  query::service_config cfg;
  cfg.telemetry = telemetry;
  cfg.point_ttl_ns = opts.ttl_ns;
  cfg.shards = shards;
  cfg.log_dir = opts.log_dir;
  cfg.sync = opts.sync;
  cfg.checkpoint_every = opts.checkpoint_every;
  cfg.deadline_ns = opts.deadline_us * 1000;
  if (argc > 9) {
    try {
      cfg.policy = query::shard_policy_from_string(argv[9]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  if (argc > 10 && !parse_arg(argv[10], "rebalance_threshold",
                              cfg.rebalance_threshold)) {
    return 2;
  }

  const auto spec =
      make_spec(initial_n, num_ops, read_frac, dist, batch_size, seed);
  switch (dim) {
    case 2: return run<2>(spec, cfg, opts);
    case 3: return run<3>(spec, cfg, opts);
    default:
      std::fprintf(stderr, "unsupported dim %zu (want 2 or 3)\n", dim);
      return 2;
  }
}
