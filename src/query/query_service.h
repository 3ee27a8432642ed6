// Sharded, multi-producer, asynchronous front door for the query subsystem
// (the public serving API).
//
// A `query_service<D>` owns N `spatial_index<D>` shards — one BDL-tree
// each — behind one logical index, built from a `service_config` (shard
// count, shard policy, ingest-batch window, backpressure bound).
// Every ticket takes one pipeline: lock-free MPSC ring -> drain thread ->
// one executor lane per shard -> snapshot readers.
//
//   *Sharding*. Every stored point is owned by exactly one shard —
//   `shard_policy::hash` routes by a hash of the coordinates,
//   `shard_policy::spatial` by quantile stripes along the widest dimension
//   of the first point set seen (bootstrap, or the first write group);
//   each cut is an exact order statistic of that set, found by selection.
//   Writes are routed to their owning shard and applied there as batched
//   updates. Reads scatter data-parallel across shards and gather-merge:
//   k-NN rows are re-merged by distance and truncated to k, range rows are
//   concatenated. Under the spatial policy, box and ball ranges prune
//   shards whose stripe cannot intersect the query.
//
//   *Completion pipeline*. `submit(batch)` enqueues from any thread and
//   returns a `completion<D>` handle immediately. A dedicated drain thread
//   owned by the service pulls the ingest queue continuously — tickets make
//   progress with zero waiters. The drainer groups pending batches FIFO up
//   to the configured `ingest_window` of requests (so backend write
//   batching spans ticket boundaries) and fulfils every ticket in the
//   group; each caller's responses come back in its own submission order,
//   with per-ticket latency recorded from submit to completion. Redeem a
//   handle exactly once, by blocking (`get()`), polling (`ready()`), or
//   registering an `on_complete` callback (fired exactly once, from a
//   service thread — keep callbacks light and never block on another
//   completion inside one).
//
//   *Per-shard drain pipelines*.
//   The drain thread routes each group exactly once into per-shard
//   sub-batches, then hands them to a pool of shard executors — one lane
//   (FIFO queue + worker thread) per shard — and immediately moves on to
//   the next group. Lanes apply writes and run reads concurrently across
//   shards AND across groups: shard 1 can already execute group G+1 while
//   shard 0 is still on G. Correctness holds because a sub-batch preserves
//   the combined stream's relative order restricted to its shard, and
//   every request that can affect a shard's answers is in that shard's
//   sub-batch (writes go to their owner, reads to every serving shard) —
//   so per-shard FIFO is exactly the ordering the answers depend on. The
//   last lane to finish a group gather-merges and fulfils it. Per-lane
//   counters (sub-batch drains, execute seconds, queue depths) are
//   surfaced through `service_stats::per_shard`.
//
//   *One write path*. Every shard mutation is a `log_group` (query/oplog.h)
//   of per-shard backend calls — bootstrap builds, client and TTL write
//   groups, rebalance migrations, checkpoint rebuilds, replayed groups —
//   and one function applies its records. A primary with a log appends
//   each group before anything applies it (a failed append changes no
//   shard and no stripe bound), so it executes exactly the groups it
//   logs. The drain thread cuts each shard's sub-batch once with the
//   shared phase cut (query_engine.h) into write records and read runs;
//   lanes run that step list for native groups and the records alone for
//   replayed ones. Groups applied off the lanes (bootstrap, rebalance,
//   checkpoint, replayed groups carrying stripe bounds) apply their
//   shards in parallel with the lanes quiesced.
//
//   *Online stripe rebalancing* (`rebalance_threshold`, spatial policy).
//   The drain thread tracks per-shard resident sizes as it routes writes;
//   when max/mean imbalance crosses the threshold at a drain boundary it
//   quiesces the lanes, re-derives the quantile stripe bounds from a
//   sample of the live points, and builds one `rebalance` group carrying
//   the new bounds and the migration (erases, then inserts, so
//   epochs bump on affected shards). Appended and then applied like any
//   group, it swaps the bounds only if it commits. Earlier groups execute
//   fully under the old bounds and later groups route under the new ones,
//   so write routing and read pruning never disagree.
//
//   *Epoch-snapshot reads*. A group of read-only tickets does not execute
//   on the drain pipeline: it is routed once, then each involved lane
//   stamps its shard's epoch snapshot (`spatial_index::snapshot()`) after
//   the shard's earlier writes — per-shard FIFO again — and the fully
//   stamped group executes on a pool of two snapshot-read executors.
//   A snapshot is isolated (a chunk-level COW view of the shard's
//   BDL-tree forest), so those reads run fully concurrently with the next
//   write drains on every shard.
//   Reader threads hold an epoch-reclaimer guard (query/epoch_reclaim.h)
//   while executing; structure versions superseded by writes are retired
//   onto a limbo list and destroyed at drain-boundary reclaim points once
//   every reader epoch has advanced past them, so big trees never die on
//   a reader's tail latency.
//
//   *Lock-free ingest*. submit() validates, acquires backpressure budget
//   with a CAS on the in-flight counter, stamps a ticket id from an
//   atomic, and publishes the batch onto a bounded MPSC ring
//   (query/ingest_ring.h) — no lock anywhere on the fast path; `ready()`
//   polls are a single atomic load. Producers park futex-style only when
//   the pipeline is saturated (backpressure) or the ring is full
//   (`ingest_spins` counts the spins burned first).
//
//   *Direct reads*. Every read — a read run inside a mixed group on the
//   live shard, a snapshot read, a watch re-evaluation — executes on the
//   shard's BDL-tree or its snapshot (detail::execute_read_phase_on).
//   There is no result cache: an epoch-keyed LRU of rows got no hits on
//   uniform keys, and its 11-20% hits on Zipf-hot keys did not make runs
//   measurably faster (EXPERIMENTS.md, "No result cache").
//
//   *Continuous queries* (query/subscription.h). `watch_knn(q, k, cb)` /
//   `watch_range(box, cb)` register standing queries; after every
//   committed write drain the drainer marks the shards the group routed
//   writes into and re-evaluates exactly the watches those shards serve
//   (stripe/box overlap — the same pruning reads use) on the post-drain
//   snapshots via the reader pool. Results are canonicalized and
//   delta-suppressed: a re-evaluation whose result set is byte-identical
//   to the last fire counts as `watch_suppressed` and does not invoke
//   the callback. Fire latency (commit boundary -> results delivered)
//   lands in the `watch_eval` stage histogram.
//
//   *TTL expiry* (`point_ttl_ns`). With a TTL set, every bootstrapped or
//   inserted point is retired by an internal batch_erase group once its
//   sliding window elapses — swept at write-drain boundaries and on an
//   idle-drainer timer, so the resident set stays bounded even without
//   traffic. Expiries are ordinary write groups: epochs bump and affected
//   watches re-fire through the same machinery (`expire` stage
//   histogram, `expired_points` counter).
//
//   *Replication seam* (query/oplog.h, query/replica.h). With an op log
//   attached (`attach_log`, before bootstrap/traffic), every group the
//   primary applies — client groups, TTL sweeps, stripe rebalances, and
//   the bootstrap build — is first appended as the exact per-shard
//   backend calls it is about to execute (the `replicate` stage times
//   the append). Completions carry the group's log epoch
//   (`ticket_result::commit_epoch`) as the read-your-writes floor.
//   Replica-side, `apply_replayed(group)` feeds log groups through the
//   SAME drain thread, lanes and record-apply function (the `replay`
//   stage), so replayed writes serialize with snapshot stamping exactly
//   like native writes, and `applied_epoch()` — advanced at dispatch — is
//   the position routers gate reads on. Primary and replica issue
//   identical backend-call sequences shard by shard, which is what makes
//   a replica's answers byte-identical to the primary's at every epoch
//   boundary (tree structure, and hence k-NN tie order, is a
//   deterministic function of the call sequence).
//
//   *Ingest backpressure*. `max_pending_requests` bounds admitted-but-
//   unfulfilled requests across the whole pipeline (0 = unbounded). Past
//   the bound `submit()` blocks the producer until drains fulfil enough
//   in-flight work (an over-sized batch is admitted alone rather than
//   deadlocking); `try_submit()` returns std::nullopt instead of
//   blocking. close() wakes blocked producers, which then throw like any
//   post-close submit.
//
//   *Retention*. A completed ticket's result stays with its handle until
//   the handle redeems it (get / callback) or is dropped, as a
//   `std::future`'s does; `results_retained` counts the results waiting.
//   Handles stay valid after `close()` and even after the service is
//   destroyed.
//
// `close()` (also run by the destructor) stops intake, flushes every
// in-flight ticket through the pipeline deterministically (drain thread,
// then shard lanes, then snapshot readers), and joins the service threads.
// `execute(batch)` is the single-caller synchronous convenience: submit +
// get.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kdtree/build.h"
#include "parallel/primitives.h"
#include "query/checkpoint.h"
#include "query/epoch_reclaim.h"
#include "query/fault.h"
#include "query/ingest_ring.h"
#include "query/oplog.h"
#include "query/query_engine.h"
#include "query/spatial_index.h"
#include "query/subscription.h"
#include "query/telemetry.h"

namespace pargeo::query {

enum class shard_policy { spatial, hash };

inline const char* shard_policy_name(shard_policy p) {
  switch (p) {
    case shard_policy::spatial: return "spatial";
    case shard_policy::hash: return "hash";
  }
  return "?";
}

inline shard_policy shard_policy_from_string(const std::string& s) {
  if (s == "spatial") return shard_policy::spatial;
  if (s == "hash") return shard_policy::hash;
  throw std::invalid_argument("unknown shard policy '" + s +
                              "' (want spatial|hash)");
}

struct service_config {
  /// The shard index; `bdltree` is the only value (see spatial_index.h).
  query::backend backend = query::backend::bdltree;
  std::size_t shards = 1;
  shard_policy policy = shard_policy::hash;
  /// Slot count of the lock-free ingest ring (rounded up to a power of
  /// two). A full ring blocks producers exactly like backpressure does;
  /// `ingest_spins` counts the spin iterations they burn first.
  std::size_t ingest_ring_capacity = 1024;
  /// Max requests grouped into one drain (a single over-sized batch still
  /// drains alone).
  std::size_t ingest_window = std::size_t{1} << 16;
  /// Backpressure: max admitted-but-unfulfilled requests across the whole
  /// pipeline. 0 = unbounded. Past the bound submit() blocks and
  /// try_submit() rejects; a batch larger than the bound is admitted alone
  /// once the pipeline is empty.
  std::size_t max_pending_requests = 0;
  /// Online stripe rebalancing (spatial policy only): when the largest
  /// shard's resident size exceeds `rebalance_threshold` x the mean at a
  /// drain boundary, the quantile stripe bounds are re-derived from a
  /// sample of live points and misplaced points migrate to their new
  /// owners as an internal write group (epochs bump on every affected
  /// shard).
  /// Below 256 resident points nothing re-stripes, and the bounds come from
  /// a sample of at most 4096 points. <= 1 disables (stripes are fixed
  /// once set). Meaningful values start around 1.2-2.0.
  double rebalance_threshold = 0;
  /// Sliding-window TTL for stored points, in nanoseconds: every
  /// bootstrapped or inserted point is retired by an internal
  /// batch_erase group once its TTL elapses. Sweeps run after every
  /// write drain and on an idle-drainer timer, so points expire even
  /// without traffic. 0 disables expiry.
  std::uint64_t point_ttl_ns = 0;
  /// TTL clock override, nanoseconds on any monotone (never-backwards)
  /// scale. Defaults to the process steady clock; tests inject a fake
  /// clock to drive expiry deterministically.
  std::function<std::uint64_t()> ttl_now;
  /// Request-lifecycle telemetry (query/telemetry.h). `stats` (the
  /// default) keeps per-stage and per-shard latency histograms — a few
  /// steady_clock reads and relaxed atomic adds per drain group, cheap
  /// enough to leave on; `trace` additionally samples full span chains
  /// into the trace ring (dump_trace() writes them as Chrome/Perfetto
  /// JSON); `off` disables all measurement (the overhead baseline).
  telemetry_level telemetry = telemetry_level::stats;
  /// Trace sampling rate at `trace` level: every 1-in-N ticket gets a
  /// full span chain (deterministic on the ticket id).
  std::size_t trace_sample = 64;
  /// Span ring capacity at `trace` level; the oldest spans are
  /// overwritten past it.
  std::size_t trace_capacity = 8192;
  /// Durability (query/oplog.h, query/checkpoint.h). Non-empty: the
  /// constructor creates the directory, attaches an op log, and opens
  /// `<log_dir>/oplog.pgol` for incremental durable appends — every
  /// committed write group lands on disk as one self-checksummed frame
  /// before its tickets fulfil. Rebuild a crashed service from the
  /// directory with query_service::recover().
  std::string log_dir;
  /// fsync cadence for the durable log: `none` flushes to the page
  /// cache only (survives process death), `interval` fsyncs every
  /// op_log::kSyncIntervalGroups (32) appends, `every_commit` fsyncs each
  /// append (survives power loss, at a per-commit cost the durability
  /// bench quantifies).
  sync_policy sync = sync_policy::interval;
  /// Checkpoint + compact every N committed write groups (0 disables):
  /// the drain thread quiesces the lanes, serializes per-shard resident
  /// state into log_dir, and truncates the log below the checkpoint
  /// epoch — recovery and cold replicas then start from the checkpoint
  /// instead of replaying from epoch 1. Requires log_dir.
  std::size_t checkpoint_every = 0;
  /// Default per-batch deadline, nanoseconds from submit (0 = none).
  /// The drain sheds a still-queued batch whose deadline passed instead
  /// of executing it: the ticket completes with `timed_out = true`,
  /// empty responses, and a `deadline_expired` counter bump.
  /// Per-batch override: submit_with_deadline().
  std::uint64_t deadline_ns = 0;
};

/// Per-lane drain counters: the work this shard's executor lane ran.
struct shard_drain_stats {
  std::size_t num_drains = 0;    // sub-batches executed on this shard
  std::size_t num_requests = 0;  // requests across those sub-batches
  double execute_seconds = 0;    // wall-clock spent executing this shard
  std::size_t queue_depth = 0;   // tasks waiting in the lane right now
  std::size_t max_queue_depth = 0;  // high-water mark of queue_depth
};

struct service_stats {
  std::size_t num_tickets = 0;
  std::size_t num_drains = 0;
  std::size_t num_requests = 0;
  std::size_t num_read_groups = 0;   // drains executed on the snapshot path
  std::size_t num_write_groups = 0;  // drains executed on the write path
  /// Snapshot-path read drains that retired while the live write epoch had
  /// already moved past their snapshot — i.e. reads that demonstrably
  /// overlapped a write drain.
  std::size_t snapshot_lag_drains = 0;
  std::size_t results_retained = 0;  // completed, not yet redeemed
  double execute_seconds = 0;  // total wall-clock spent executing drains
  /// Backpressure: admitted-but-unfulfilled requests right now, and how
  /// often producers hit the bound.
  std::size_t pending_requests = 0;
  std::size_t submit_waits = 0;        // submit() calls that had to block
  std::size_t try_submit_rejects = 0;  // try_submit() nullopt returns
  /// Routing scratch recycling: sub-batch buffers reused from the pool vs
  /// freshly allocated (reuse dominating == allocation churn is gone).
  std::size_t scratch_reuses = 0;
  std::size_t scratch_allocs = 0;
  /// Online stripe rebalancing (spatial policy): bound re-derivations
  /// performed, and points migrated between shards by them.
  std::size_t rebalances = 0;
  std::size_t rebalance_moved = 0;
  /// Continuous queries (query/subscription.h): standing watches alive
  /// now, callback fires delivered, re-fires skipped (stripe-pruned at
  /// the boundary or delta-suppressed on identical results), and points
  /// retired by TTL expiry.
  std::size_t active_watches = 0;
  std::size_t watch_fires = 0;
  std::size_t watch_suppressed = 0;
  std::size_t expired_points = 0;
  /// Replication (query/oplog.h). Primary side: `log_epoch` is the head
  /// of the attached op log (0 when none). Replica side: `applied_epoch`
  /// is the last log epoch replayed, `replayed_groups`/`replayed_records`
  /// count log groups applied and backend calls re-issued, and
  /// `replay_errors` counts groups whose application threw.
  std::uint64_t log_epoch = 0;
  std::uint64_t applied_epoch = 0;
  std::size_t replayed_groups = 0;
  std::size_t replayed_records = 0;
  std::size_t replay_errors = 0;
  /// Durability & robustness (query/oplog.h, query/checkpoint.h).
  /// `deadline_expired` counts requests shed past their deadline;
  /// `truncated_groups` the torn trailing log frames dropped when the
  /// attached log was salvaged from disk; `recovered_epochs` the log
  /// head this service was rebuilt to by recover() (0: not recovered);
  /// `checkpoints`/`checkpoint_errors` the checkpoint+compaction
  /// attempts; `log_append_errors` write groups failed by a durable
  /// append fault; `log_syncs`/`log_bytes` the durable file's fsync and
  /// byte traffic (the sync-policy cost the bench measures).
  std::size_t deadline_expired = 0;
  std::uint64_t truncated_groups = 0;
  std::uint64_t recovered_epochs = 0;
  std::size_t checkpoints = 0;
  std::size_t checkpoint_errors = 0;
  std::size_t log_append_errors = 0;
  std::uint64_t log_syncs = 0;
  std::uint64_t log_bytes = 0;
  /// Lock-free ingest (query/ingest_ring.h): producer spin iterations
  /// burned on a full ring before parking.
  std::uint64_t ingest_spins = 0;
  /// Epoch-based snapshot reclamation (query/epoch_reclaim.h):
  /// `retired_snapshots` structure versions handed to the limbo list,
  /// `reclaimed_snapshots` of them destroyed at reclaim points,
  /// `reclaim_stalls` reclaim passes blocked by a still-active older
  /// reader, `epoch_lag` the global-epoch distance to the slowest active
  /// reader at the last pass, `limbo_snapshots` versions awaiting
  /// reclamation right now.
  std::uint64_t retired_snapshots = 0;
  std::uint64_t reclaimed_snapshots = 0;
  std::uint64_t reclaim_stalls = 0;
  std::uint64_t epoch_lag = 0;
  std::uint64_t limbo_snapshots = 0;
  std::vector<shard_drain_stats> per_shard;  // one entry per shard lane
  /// Always zero: the service has no result cache. The three counters
  /// remain because the repository benchmark (perfbench/) reads them,
  /// like `service_config::backend`.
  struct {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
  } cache;
  /// Per-stage / per-shard latency histograms (query/telemetry.h).
  /// Empty (level `off`, zero counts) when telemetry is disabled.
  telemetry_report telemetry;
};

/// Prometheus text exposition of a service_stats snapshot: counter and
/// gauge families for the ingest/drain/rebalance counters,
/// plus one cumulative `pargeo_stage_latency_seconds` histogram per
/// lifecycle stage (merged across shards, `le` in seconds). Scrape-ready
/// — serve it from an HTTP handler or drop it in a node_exporter
/// textfile collector directory.
inline std::string metrics_text(const service_stats& s) {
  std::string out;
  out.reserve(std::size_t{1} << 15);
  char line[192];
  const auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };
  const auto family = [&](const char* name, const char* type,
                          const char* help) {
    emit("# HELP %s %s\n# TYPE %s %s\n", name, help, name, type);
  };
  const auto counter = [&](const char* name, const char* help,
                           std::uint64_t v) {
    family(name, "counter", help);
    emit("%s %llu\n", name, static_cast<unsigned long long>(v));
  };
  const auto gauge = [&](const char* name, const char* help,
                         std::uint64_t v) {
    family(name, "gauge", help);
    emit("%s %llu\n", name, static_cast<unsigned long long>(v));
  };

  counter("pargeo_tickets_total", "Batches submitted", s.num_tickets);
  counter("pargeo_requests_total", "Requests fulfilled", s.num_requests);
  family("pargeo_drains_total", "counter",
         "Drain groups executed, by pipeline path");
  emit("pargeo_drains_total{path=\"write\"} %llu\n",
       static_cast<unsigned long long>(s.num_write_groups));
  emit("pargeo_drains_total{path=\"read\"} %llu\n",
       static_cast<unsigned long long>(s.num_read_groups));
  counter("pargeo_snapshot_lag_drains_total",
          "Snapshot reads that retired behind the live epoch",
          s.snapshot_lag_drains);
  counter("pargeo_submit_waits_total",
          "submit() calls blocked on backpressure", s.submit_waits);
  counter("pargeo_try_submit_rejects_total",
          "try_submit() backpressure rejections", s.try_submit_rejects);
  gauge("pargeo_results_retained", "Completed, not yet redeemed results",
        s.results_retained);
  gauge("pargeo_pending_requests", "Admitted, not yet fulfilled requests",
        s.pending_requests);
  counter("pargeo_rebalances_total", "Stripe bound re-derivations",
          s.rebalances);
  counter("pargeo_rebalance_moved_total", "Points migrated by rebalancing",
          s.rebalance_moved);
  gauge("pargeo_active_watches", "Standing continuous queries registered",
        s.active_watches);
  counter("pargeo_watch_fires_total", "Continuous-query callback fires",
          s.watch_fires);
  counter("pargeo_watch_suppressed_total",
          "Continuous-query re-fires suppressed (pruned or identical)",
          s.watch_suppressed);
  counter("pargeo_expired_points_total", "Points retired by TTL expiry",
          s.expired_points);
  gauge("pargeo_log_epoch", "Op-log head epoch (primary with log attached)",
        s.log_epoch);
  gauge("pargeo_applied_epoch", "Last op-log epoch replayed (replica)",
        s.applied_epoch);
  counter("pargeo_replayed_groups_total", "Op-log groups replayed",
          s.replayed_groups);
  counter("pargeo_replayed_records_total",
          "Backend calls re-issued by log replay", s.replayed_records);
  counter("pargeo_replay_errors_total",
          "Log groups whose replay application threw", s.replay_errors);
  counter("pargeo_deadline_expired_total",
          "Requests shed past their deadline", s.deadline_expired);
  counter("pargeo_truncated_groups_total",
          "Torn log frames dropped at recovery", s.truncated_groups);
  gauge("pargeo_recovered_epochs",
        "Log head this service was rebuilt to by recover()",
        s.recovered_epochs);
  counter("pargeo_checkpoints_total", "Checkpoints written (with compaction)",
          s.checkpoints);
  counter("pargeo_checkpoint_errors_total",
          "Checkpoint attempts that failed (previous stays live)",
          s.checkpoint_errors);
  counter("pargeo_log_append_errors_total",
          "Write groups failed by a durable log append fault",
          s.log_append_errors);
  counter("pargeo_log_syncs_total", "Durable log fsync calls", s.log_syncs);
  counter("pargeo_log_bytes_total", "Bytes appended to the durable log",
          s.log_bytes);
  counter("pargeo_ingest_spins_total",
          "Producer spin iterations on a full ingest ring", s.ingest_spins);
  counter("pargeo_retired_snapshots_total",
          "Snapshot structure versions retired to the limbo list",
          s.retired_snapshots);
  counter("pargeo_reclaimed_snapshots_total",
          "Retired versions destroyed at epoch reclaim points",
          s.reclaimed_snapshots);
  counter("pargeo_reclaim_stalls_total",
          "Reclaim passes blocked by an active older reader epoch",
          s.reclaim_stalls);
  gauge("pargeo_epoch_lag",
        "Global epoch distance to the slowest active reader",
        s.epoch_lag);
  gauge("pargeo_limbo_snapshots", "Retired versions awaiting reclamation",
        s.limbo_snapshots);
  counter("pargeo_execute_seconds_total",
          "Wall-clock seconds spent executing drains",
          static_cast<std::uint64_t>(s.execute_seconds));

  family("pargeo_stage_latency_seconds", "histogram",
         "Request-lifecycle stage latency (merged across shards)");
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto& h = s.telemetry.stages[i];
    const char* st = stage_name(static_cast<stage>(i));
    std::uint64_t cum = 0;
    for (int b = 0; b + 1 < latency_histogram::kBuckets; ++b) {
      cum += h.bucket_count(b);
      emit("pargeo_stage_latency_seconds_bucket{stage=\"%s\",le=\"%.9g\"} "
           "%llu\n",
           st, static_cast<double>(latency_histogram::bucket_upper(b)) * 1e-9,
           static_cast<unsigned long long>(cum));
    }
    cum += h.bucket_count(latency_histogram::kBuckets - 1);
    emit("pargeo_stage_latency_seconds_bucket{stage=\"%s\",le=\"+Inf\"} "
         "%llu\n",
         st, static_cast<unsigned long long>(cum));
    emit("pargeo_stage_latency_seconds_sum{stage=\"%s\"} %.9f\n", st,
         static_cast<double>(h.sum_ns()) * 1e-9);
    emit("pargeo_stage_latency_seconds_count{stage=\"%s\"} %llu\n", st,
         static_cast<unsigned long long>(cum));
  }
  return out;
}

template <int D>
class query_service;

namespace detail {

/// Completion state shared between a query_service and its handles. Each
/// ticket gets a heap `record` co-owned by the submitter's handle and (until
/// fulfilment) the service's pending entry — no id-keyed map, so neither
/// submit nor fulfil walks shared lookup structure. The record's `state` is
/// an atomic: `completion::ready()` is one acquire load, never a lock. The
/// hub (a shared_ptr) outlives the service, so handles stay redeemable
/// after shutdown. `mu` guards result payloads, callbacks, and `done_cv`;
/// the owning service also parks backpressured producers and queues
/// replayed log groups under it. Every record state transition happens in
/// the `*_locked` members below, with mu held.
template <int D>
struct completion_hub {
  using callback_t =
      std::function<void(ticket_result<D>&&, std::exception_ptr)>;
  /// Callbacks armed on records a fulfilment completed, with their
  /// results: fired by the service after it drops mu.
  using fire_list = std::vector<std::pair<callback_t, ticket_result<D>>>;

  struct record {
    enum class state_t : std::uint8_t { pending, done, consumed };
    /// Lock-free readiness signal: transitions away from `pending` are
    /// stored with release order (under mu) after the payload is written;
    /// ready() reads it with acquire and no lock.
    std::atomic<state_t> state{state_t::pending};
    std::uint64_t id = 0;
    ticket_result<D> result;   // guarded by mu; valid when state == done
    std::exception_ptr error;  // guarded by mu
    callback_t callback;
    /// The submitter dropped its handle unredeemed: fulfil discards the
    /// result instead of retaining it (guarded by mu).
    bool handle_dropped = false;
  };
  using record_ptr = std::shared_ptr<record>;
  using state_t = typename record::state_t;

  std::mutex mu;
  std::condition_variable done_cv;  // signaled on every fulfilment
  /// Records in state done. Atomic (written under mu) so stats() reads
  /// it without contending the hub.
  std::atomic<std::size_t> retained{0};
  /// Service stopped accepting submissions. Atomic so the lock-free
  /// submit path reads it without the hub lock.
  std::atomic<bool> closed{false};

  // Fulfilment of a pending record (no-op otherwise): an armed callback
  // gets the result through `fire`, a dropped handle's result is
  // discarded, anything else is retained for redemption.
  void fulfil_locked(const record_ptr& r, ticket_result<D>&& tr,
                     std::exception_ptr error, fire_list& fire) {
    if (r->state.load(std::memory_order_relaxed) != state_t::pending) return;
    if (r->callback) {
      fire.emplace_back(std::move(r->callback), std::move(tr));
    } else if (!r->handle_dropped) {
      r->result = std::move(tr);
      r->error = std::move(error);
      r->state.store(state_t::done, std::memory_order_release);
      retained.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    r->state.store(state_t::consumed, std::memory_order_release);
  }

  // Redemption of a done record: moves the result into `out` and returns
  // the ticket's error.
  std::exception_ptr redeem_locked(record& r, ticket_result<D>& out) {
    std::exception_ptr err = std::move(r.error);
    r.error = nullptr;
    out = std::move(r.result);
    r.result = ticket_result<D>{};
    retained.fetch_sub(1, std::memory_order_relaxed);
    r.state.store(state_t::consumed, std::memory_order_release);
    return err;
  }

  // The handle was dropped unredeemed: a pending record's result will be
  // discarded at fulfilment (unless a callback is armed), a done one's is
  // released now.
  void drop_locked(record& r) {
    const state_t st = r.state.load(std::memory_order_relaxed);
    if (st == state_t::pending) {
      r.handle_dropped = true;
    } else if (st == state_t::done) {
      ticket_result<D> discarded;
      redeem_locked(r, discarded);
    }
  }
};

}  // namespace detail

/// Move-only handle for one submitted batch. Redeem exactly once: `get()`
/// blocks and returns the result (rethrowing the drain's failure, if any),
/// `on_complete(fn)` consumes the result through a callback fired exactly
/// once, `ready()` polls — one atomic load, no lock, so a poll storm never
/// contends with ingest or fulfilment. A handle dropped unredeemed
/// releases its result immediately. Handles outlive the service safely.
template <int D>
class completion {
  using hub_t = detail::completion_hub<D>;
  using state_t = typename hub_t::state_t;

 public:
  completion() = default;
  completion(completion&& o) noexcept
      : hub_(std::move(o.hub_)), rec_(std::move(o.rec_)),
        redeemed_(o.redeemed_) {
    o.redeemed_ = false;
  }
  completion& operator=(completion&& o) noexcept {
    if (this != &o) {
      release();
      hub_ = std::move(o.hub_);
      rec_ = std::move(o.rec_);
      redeemed_ = o.redeemed_;
      o.redeemed_ = false;
    }
    return *this;
  }
  completion(const completion&) = delete;
  completion& operator=(const completion&) = delete;
  ~completion() { release(); }

  /// True if this handle came from a submit() (and was not moved from).
  bool valid() const { return rec_ != nullptr; }
  std::uint64_t id() const { return rec_ ? rec_->id : 0; }

  /// True once the result is available (get() would not block). Lock-free:
  /// a single acquire load of the record's state.
  bool ready() const {
    if (!rec_) return false;
    if (redeemed_) return true;
    return rec_->state.load(std::memory_order_acquire) != state_t::pending;
  }

  /// Blocks until the ticket's drain completes and returns its result;
  /// rethrows the drain group's exception if execution failed. Throws
  /// std::logic_error on an empty handle or a second redemption. The
  /// result waits for this call however late it comes, as long as the
  /// handle lives.
  ticket_result<D> get() {
    if (!rec_) {
      throw std::logic_error("completion::get() on an empty handle "
                             "(nothing was submitted)");
    }
    if (redeemed_) {
      throw std::logic_error("completion::get() after the result was "
                             "already consumed");
    }
    std::unique_lock<std::mutex> lk(hub_->mu);
    hub_->done_cv.wait(lk, [&] {
      return rec_->state.load(std::memory_order_relaxed) != state_t::pending;
    });
    redeemed_ = true;
    ticket_result<D> r;
    const std::exception_ptr err = hub_->redeem_locked(*rec_, r);
    lk.unlock();
    if (err) std::rethrow_exception(err);
    return r;
  }

  /// Registers `fn` to consume the result: fired exactly once with
  /// (result, nullptr) on success or ({}, error) on failure —
  /// immediately on this thread if the result is already in, otherwise
  /// from the service thread that fulfils the ticket (where anything the
  /// callback throws is swallowed). Counts as the handle's one redemption.
  void on_complete(std::function<void(ticket_result<D>&&, std::exception_ptr)> fn) {
    if (!fn) throw std::invalid_argument("on_complete: empty callback");
    if (!rec_) {
      throw std::logic_error("completion::on_complete() on an empty handle");
    }
    if (redeemed_) {
      throw std::logic_error("completion::on_complete() after the result "
                             "was already consumed");
    }
    std::unique_lock<std::mutex> lk(hub_->mu);
    redeemed_ = true;
    if (rec_->state.load(std::memory_order_relaxed) == state_t::pending) {
      rec_->callback = std::move(fn);
      return;
    }
    ticket_result<D> r;
    const std::exception_ptr err = hub_->redeem_locked(*rec_, r);
    lk.unlock();
    fn(std::move(r), err);
  }

 private:
  friend class query_service<D>;
  completion(std::shared_ptr<hub_t> hub, typename hub_t::record_ptr rec)
      : hub_(std::move(hub)), rec_(std::move(rec)) {}

  // Dropping an unredeemed handle releases its (current or future) result;
  // a registered callback still fires, so fulfilment proceeds normally.
  void release() {
    if (!rec_) return;
    {
      std::lock_guard<std::mutex> lk(hub_->mu);
      hub_->drop_locked(*rec_);
    }
    hub_.reset();
    rec_.reset();
  }

  std::shared_ptr<hub_t> hub_;
  typename hub_t::record_ptr rec_;
  bool redeemed_ = false;
};

template <int D>
class query_service {
 public:
  explicit query_service(service_config cfg)
      : cfg_(std::move(cfg)),
        tel_(cfg_.telemetry, cfg_.shards, cfg_.trace_sample,
             cfg_.trace_capacity),
        ring_(cfg_.ingest_ring_capacity) {
    if (cfg_.shards == 0) {
      throw std::invalid_argument("service_config.shards must be >= 1");
    }
    if (cfg_.ingest_window == 0) {
      throw std::invalid_argument("service_config.ingest_window must be >= 1");
    }
    shards_.reserve(cfg_.shards);
    lanes_.reserve(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      shards_.push_back(make_index<D>(cfg_.backend));
      shards_.back()->set_reclaimer(&reclaim_);
      lanes_.push_back(std::make_unique<shard_lane>());
    }
    resident_est_.assign(cfg_.shards, 0);
    write_touched_.assign(cfg_.shards, 0);
    watches_ = std::make_shared<watch_registry<D>>();
    ttl_now_ = cfg_.ttl_now ? cfg_.ttl_now : [] { return monotonic_ns(); };
    hub_ = std::make_shared<detail::completion_hub<D>>();
    if (!cfg_.log_dir.empty()) {
      // Durable primary: create the directory and open the segmented log
      // for incremental appends before any thread can commit a group.
      detail::ensure_dir(cfg_.log_dir);
      log_ = std::make_shared<op_log<D>>();
      log_->open_durable(cfg_.log_dir + "/oplog.pgol", cfg_.sync);
    }
    drainer_ = std::thread([this] { drain_loop(); });
    try {
      for (std::size_t s = 0; s < cfg_.shards; ++s) {
        lanes_[s]->worker = std::thread([this, s] { shard_loop(s); });
      }
      for (auto& t : readers_) t = std::thread([this] { read_loop(); });
    } catch (...) {
      close();  // join whatever started before rethrowing
      throw;
    }
  }

  ~query_service() { close(); }
  query_service(const query_service&) = delete;
  query_service& operator=(const query_service&) = delete;

  const service_config& config() const { return cfg_; }
  std::size_t num_shards() const { return cfg_.shards; }

  /// Per-shard index, for tests and diagnostics. Quiescent callers only.
  const spatial_index<D>& shard(std::size_t s) const { return *shards_[s]; }

  /// Loads the initial point set, partitioned across shards (replacing any
  /// current contents and stripes). Not thread-safe; call before serving
  /// traffic. Throws std::invalid_argument on non-finite coordinates (they
  /// would corrupt stripe derivation and route arbitrarily, like at
  /// submit()), and whatever the log append or a shard build throws — a
  /// failed append leaves the service untouched.
  ///
  /// Every step is a parallel pass over the points: one scan checks them
  /// and takes their bounding box, the stripe cuts are selected
  /// (derive_stripes), one stable counting scatter fills the shards' build
  /// records, each shard holding its points in input order, and the log
  /// encodes each record's points as one copy (the bytes are those of the
  /// per-coordinate encoding). The append commits before any shard builds.
  void bootstrap(const std::vector<point<D>>& pts) {
    const point_scan scan = scan_points(pts);
    if (scan.first_bad < pts.size()) {
      throw std::invalid_argument(
          "query_service::bootstrap: point " +
          std::to_string(scan.first_bad) + " has a non-finite coordinate");
    }
    // The genesis group: per-shard build records (empty shards included —
    // build replaces contents) plus the stripes, so a fresh replica
    // converges from epoch 1.
    log_group<D> g;
    g.origin = log_origin::bootstrap;
    if (cfg_.policy == shard_policy::spatial) {
      derive_stripes(pts, scan.box, g);
    }
    std::vector<std::vector<point<D>>> parts(cfg_.shards);
    par::counting_scatter(
        pts.size(), [&pts](std::size_t i) { return pts[i]; },
        [&](const point<D>& p) {
          return g.has_bounds ? stripe_of(p, g.split_dim, g.cuts)
                              : owner_of(p);
        },
        parts);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      g.records.push_back({static_cast<std::uint32_t>(s), log_op::build,
                           std::move(parts[s])});
    }
    append_to_log(g);
    bounds_set_ = false;  // the group installs its own stripes, if any
    if (auto err = apply_off_lanes(g, /*replayed=*/false)) {
      std::rethrow_exception(err);
    }
    reset_residents();
  }

  /// Multi-producer entry point: enqueues `batch` for the drain pipeline
  /// and returns a completion handle immediately. Safe to call from any
  /// number of threads. With `max_pending_requests` set, blocks while the
  /// pipeline is at the bound. Throws once the service is closed (also
  /// when close() arrives while blocked), and std::invalid_argument on a
  /// request with non-finite coordinates (no ticket is created).
  ///
  /// Admission is a CAS on the budget counter and a Vyukov-ring push —
  /// producers touch no mutex unless the bound or the ring is actually
  /// full.
  completion<D> submit(std::vector<request<D>> batch) {
    validate_batch(batch);
    return *enqueue(std::move(batch), cfg_.deadline_ns, /*blocking=*/true,
                    "submit");
  }

  /// Non-blocking submit: std::nullopt when admission would block on the
  /// backpressure bound or on a full ingest ring — never waits. Throws
  /// once the service is closed, and std::invalid_argument on non-finite
  /// coordinates.
  std::optional<completion<D>> try_submit(std::vector<request<D>> batch) {
    validate_batch(batch);
    return enqueue(std::move(batch), cfg_.deadline_ns, /*blocking=*/false,
                   "try_submit");
  }

  /// submit() with an explicit per-batch deadline, `deadline_ns`
  /// nanoseconds from now (overriding service_config::deadline_ns;
  /// 0 = no deadline for this batch). A batch still queued when its
  /// deadline passes is shed by the drain without executing: the ticket
  /// completes with `ticket_result::timed_out = true` and empty
  /// responses, and `service_stats::deadline_expired` counts its
  /// requests. A batch that reaches the execution pipeline in time runs
  /// to completion normally — the deadline bounds queueing, not
  /// execution.
  completion<D> submit_with_deadline(std::vector<request<D>> batch,
                                     std::uint64_t deadline_ns) {
    validate_batch(batch);
    return *enqueue(std::move(batch), deadline_ns, /*blocking=*/true,
                    "submit_with_deadline");
  }

  /// Single-caller convenience: submit + get.
  ticket_result<D> execute(std::vector<request<D>> batch) {
    return submit(std::move(batch)).get();
  }

  /// Registers a standing k-NN query: `cb` re-fires with the fresh k
  /// nearest neighbours of `q` after every committed write drain that
  /// could have affected them — including TTL expiries — with
  /// byte-identical results suppressed (see query/subscription.h for
  /// the full delivery contract). There is no fire at registration; the
  /// first affecting drain boundary delivers the initial result.
  /// Returns the move-only handle owning the registration; dropping or
  /// cancelling it guarantees the callback never runs again. Callable
  /// from any thread. Callbacks run on service threads: keep them light
  /// and never block on a completion or another watch inside one.
  /// Throws std::invalid_argument on non-finite coordinates or an empty
  /// callback.
  watch_handle<D> watch_knn(const point<D>& q, std::size_t k,
                            typename watch_registry<D>::callback_t cb) {
    return add_watch(request<D>::make_knn(q, k), std::move(cb));
  }

  /// Registers a standing box-range query (same contract as watch_knn).
  watch_handle<D> watch_range(const aabb<D>& box,
                              typename watch_registry<D>::callback_t cb) {
    return add_watch(request<D>::make_range(box), std::move(cb));
  }

  /// Orderly shutdown: stops intake, flushes every in-flight ticket
  /// through the drain pipeline (results stay redeemable from their
  /// handles), and joins the service threads — drainer first (it finishes
  /// routing), then the shard lanes (they finish executing and stamping),
  /// then the snapshot readers. Idempotent; also run by the destructor.
  /// Submissions racing close() either enter before the cut (and are
  /// flushed) or throw; producers blocked on backpressure wake and throw.
  void close() {
    {
      std::lock_guard<std::mutex> lk(hub_->mu);
      hub_->closed.store(true, std::memory_order_seq_cst);
      space_cv_.notify_all();
    }
    // Fail producers blocked in a full-ring push and wake the parked drain
    // consumer. Items already in the ring stay poppable — the drain
    // flushes them before exiting.
    ring_.close();
    std::lock_guard<std::mutex> cg(close_mu_);
    if (threads_joined_) return;
    if (drainer_.joinable()) drainer_.join();
    for (auto& lane : lanes_) {
      {
        std::lock_guard<std::mutex> lk(lane->mu);
        lane->shutdown = true;
        lane->cv.notify_all();
      }
      if (lane->worker.joinable()) lane->worker.join();
    }
    {
      std::lock_guard<std::mutex> lk(read_mu_);
      read_shutdown_ = true;
      read_cv_.notify_all();
    }
    for (auto& t : readers_) {
      if (t.joinable()) t.join();
    }
    threads_joined_ = true;
  }

  /// Ingest/drain/retention counters. Safe to call concurrently with
  /// submitters and the drain pipeline. Never takes the hub lock: the hot
  /// counters are relaxed atomics, so a stats poll storm cannot contend
  /// with ingest or fulfilment.
  service_stats stats() const {
    service_stats s;
    s.num_tickets = ctr_.num_tickets.load(std::memory_order_relaxed);
    s.num_drains = ctr_.num_drains.load(std::memory_order_relaxed);
    s.num_requests = ctr_.num_requests.load(std::memory_order_relaxed);
    s.num_read_groups = ctr_.num_read_groups.load(std::memory_order_relaxed);
    s.num_write_groups =
        ctr_.num_write_groups.load(std::memory_order_relaxed);
    s.snapshot_lag_drains =
        ctr_.snapshot_lag_drains.load(std::memory_order_relaxed);
    s.execute_seconds =
        static_cast<double>(ctr_.execute_ns.load(std::memory_order_relaxed)) *
        1e-9;
    s.submit_waits = ctr_.submit_waits.load(std::memory_order_relaxed);
    s.try_submit_rejects =
        ctr_.try_submit_rejects.load(std::memory_order_relaxed);
    s.rebalances = ctr_.rebalances.load(std::memory_order_relaxed);
    s.rebalance_moved = ctr_.rebalance_moved.load(std::memory_order_relaxed);
    s.expired_points = ctr_.expired_points.load(std::memory_order_relaxed);
    s.replayed_groups = ctr_.replayed_groups.load(std::memory_order_relaxed);
    s.replayed_records =
        ctr_.replayed_records.load(std::memory_order_relaxed);
    s.replay_errors = ctr_.replay_errors.load(std::memory_order_relaxed);
    s.deadline_expired =
        ctr_.deadline_expired.load(std::memory_order_relaxed);
    s.recovered_epochs =
        ctr_.recovered_epochs.load(std::memory_order_relaxed);
    s.checkpoints = ctr_.checkpoints.load(std::memory_order_relaxed);
    s.checkpoint_errors =
        ctr_.checkpoint_errors.load(std::memory_order_relaxed);
    s.log_append_errors =
        ctr_.log_append_errors.load(std::memory_order_relaxed);
    s.results_retained = hub_->retained.load(std::memory_order_relaxed);
    s.pending_requests =
        in_flight_requests_.load(std::memory_order_relaxed);
    s.ingest_spins = ring_.spins();
    {
      const reclaim_counters rc = reclaim_.counters();
      s.retired_snapshots = rc.retired;
      s.reclaimed_snapshots = rc.reclaimed;
      s.reclaim_stalls = rc.reclaim_stalls;
      s.epoch_lag = rc.epoch_lag;
      s.limbo_snapshots = rc.limbo;
    }
    s.per_shard.reserve(cfg_.shards);
    for (const auto& lane : lanes_) {
      std::lock_guard<std::mutex> lk(lane->mu);
      shard_drain_stats ls = lane->stats;
      ls.queue_depth = lane->q.size();
      s.per_shard.push_back(ls);
    }
    {
      const watch_stats ws = watches_->stats();
      s.active_watches = ws.active;
      s.watch_fires = ws.fires;
      s.watch_suppressed = ws.suppressed;
    }
    {
      std::lock_guard<std::mutex> lk(scratch_mu_);
      s.scratch_reuses = scratch_reuses_;
      s.scratch_allocs = scratch_allocs_;
    }
    s.applied_epoch = applied_epoch_.load(std::memory_order_acquire);
    if (log_) {
      s.log_epoch = log_->head();
      const log_durable_stats ds = log_->durable_stats();
      s.log_syncs = ds.syncs;
      s.log_bytes = ds.bytes;
      s.truncated_groups = log_->recovery_stats().truncated_groups;
    }
    s.telemetry = tel_.report();
    return s;
  }

  /// Merged per-stage / per-shard latency histograms (the same report
  /// that rides in stats().telemetry, without the counter snapshot).
  telemetry_report telemetry_snapshot() const { return tel_.report(); }

  /// Spans currently resident in the trace ring, oldest first (empty
  /// unless the service runs at telemetry_level::trace).
  std::vector<trace_span> trace_events() const { return tel_.spans(); }

  /// Writes the sampled span ring as Chrome `chrome://tracing` /
  /// Perfetto-loadable trace JSON. Returns false (writing nothing) when
  /// the service is not at trace level; throws std::runtime_error when
  /// `path` cannot be opened. Call after the spans of interest retired
  /// (e.g. post-close()) — recording continues concurrently otherwise.
  bool dump_trace(const std::string& path) const {
    return tel_.write_trace_file(path);
  }

  /// Prometheus text exposition of this service's counters and stage
  /// histograms (see metrics_text(const service_stats&)).
  std::string metrics_text() const {
    return pargeo::query::metrics_text(stats());
  }

  /// Total points across shards. Quiescent callers only.
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& idx : shards_) n += idx->size();
    return n;
  }

  /// All stored points across shards (unordered). Quiescent callers only.
  std::vector<point<D>> gather() const {
    std::vector<point<D>> out;
    for (const auto& idx : shards_) {
      auto part = idx->gather();
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  // ---- replication (query/oplog.h) ----------------------------------------

  /// Primary side: attach the op log every committed write drain appends
  /// to. Call before bootstrap()/traffic (not thread-safe with serving);
  /// attach before bootstrap so replicas get the genesis build group.
  void attach_log(std::shared_ptr<op_log<D>> log) { log_ = std::move(log); }

  /// The attached op log (nullptr when none).
  const std::shared_ptr<op_log<D>>& log() const { return log_; }

  /// Replica side: enqueue one log group for replay. Groups must arrive
  /// in epoch order (a replica_set tail guarantees this); the drain thread
  /// applies them through the same record-apply function as the
  /// primary's own groups — on the per-shard lanes, or off them with the
  /// lanes quiesced when the group carries stripe bounds — so replayed
  /// state serializes with concurrent snapshot reads. Returns
  /// immediately; poll applied_epoch() for progress. Safe from any
  /// thread. Throws after close(), and std::invalid_argument when the
  /// group comes from a different topology: a record for a shard that
  /// does not exist here, or stripe cuts for another shard count.
  void apply_replayed(log_group<D> g) {
    for (const auto& rec : g.records) {
      if (rec.shard >= cfg_.shards) {
        throw std::invalid_argument(
            "apply_replayed: record routed to shard " +
            std::to_string(rec.shard) + " but this service has " +
            std::to_string(cfg_.shards));
      }
    }
    if (g.has_bounds && g.cuts.size() + 1 != cfg_.shards) {
      throw std::invalid_argument(
          "apply_replayed: " + std::to_string(g.cuts.size()) +
          " stripe cuts for " + std::to_string(cfg_.shards) + " shards");
    }
    {
      std::lock_guard<std::mutex> lk(hub_->mu);
      if (hub_->closed.load(std::memory_order_relaxed)) {
        throw std::runtime_error(
            "query_service::apply_replayed after close()");
      }
      replay_q_.push_back(std::move(g));
      replay_pending_.fetch_add(1, std::memory_order_release);
      replay_enqueued_.fetch_add(1, std::memory_order_acq_rel);
    }
    ring_.kick_consumer();  // the drain thread parks on the ring
  }

  /// Blocks until every group handed to apply_replayed() so far has been
  /// fully applied (drain thread processed it, lane records retired).
  /// The barrier replicas need around a checkpoint resync, where
  /// applied_epoch() cannot serve: a rebuild group legitimately moves
  /// the epoch BACKWARDS, so an epoch-target wait can pass before the
  /// queue even drains. Safe from any thread; close() flushes the
  /// replay queue, so this never wedges on shutdown.
  void wait_replay_drained() {
    const std::uint64_t target =
        replay_enqueued_.load(std::memory_order_acquire);
    while (replay_done_.load(std::memory_order_acquire) < target) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    wait_lanes_idle();
  }

  /// Replica side: the last log epoch whose replay has been dispatched to
  /// the shard lanes (reads submitted after observing an epoch here are
  /// guaranteed to see its writes — per-shard FIFO puts their snapshot
  /// stamps behind the replay tasks). 0 until the first group applies.
  std::uint64_t applied_epoch() const {
    return applied_epoch_.load(std::memory_order_acquire);
  }

  /// Blocks until every lane task dispatched so far (native or replayed)
  /// has retired. applied_epoch() advances at *dispatch* — enough for
  /// routed reads, which stamp behind the replay tasks in lane order, but
  /// NOT for direct backend inspection (size()/gather()): those need this
  /// barrier first. Pure wait; safe from any thread.
  void wait_lanes_idle() { quiesce_lanes(); }

  /// Replica side: log groups whose replay application threw (the
  /// replay_errors counter without the full stats() snapshot — cheap
  /// enough for a health poll).
  std::size_t replay_error_count() const {
    return ctr_.replay_errors.load(std::memory_order_relaxed);
  }

  // ---- durability (query/checkpoint.h) ------------------------------------

  /// Forces a checkpoint + log compaction now (the same operation the
  /// `checkpoint_every` cadence runs at drain boundaries). Requires
  /// log_dir; returns false when checkpointing is not configured or the
  /// write failed (`checkpoint_errors` counts it; the previous
  /// checkpoint stays live). Quiescent callers only — no tickets in
  /// flight (tests and the CLI call it between traffic phases; the
  /// drain thread calls the same path at boundaries).
  bool checkpoint_now() { return do_checkpoint(); }

  /// Rebuilds a service from a crashed primary's `log_dir`: loads the
  /// newest valid checkpoint (manifest fallback included), salvages the
  /// longest valid prefix of the durable log, applies the checkpoint
  /// group (checkpoint_group()), replays the log tail above the
  /// checkpoint epoch through the normal replay pipeline, and re-opens
  /// the directory for durable appends — the returned service is a
  /// serving primary, byte-identically continuing the committed history.
  /// Every recovered point restarts one full TTL window (deadlines are
  /// not persisted; erring long keeps data). `cfg` must describe the
  /// same topology (shards, policy) as the crashed service; a
  /// checkpoint or log group that does not fit its shard count throws
  /// std::invalid_argument (checkpoint_group(), apply_replayed()).
  /// `service_stats::recovered_epochs` and `::truncated_groups` record
  /// what was rebuilt and what the torn tail cost. Throws
  /// std::runtime_error when the directory holds neither a usable
  /// checkpoint nor a log that reaches back to the needed epoch (an
  /// unrecoverable gap), and on I/O failure.
  static std::unique_ptr<query_service> recover(const std::string& dir,
                                                service_config cfg) {
    const sync_policy sync = cfg.sync;
    cfg.log_dir.clear();  // rebuild first; durable appends re-attach below
    auto svc = std::make_unique<query_service>(std::move(cfg));

    checkpoint_data<D> ck;
    const bool have_ck = read_latest_checkpoint<D>(dir, ck);
    const std::uint64_t base = have_ck ? ck.epoch : 0;

    log_recovery_stats rs{};
    std::shared_ptr<op_log<D>> log;
    try {
      log = op_log<D>::read_log(dir + "/oplog.pgol",
                                std::size_t{1} << 20, &rs);
    } catch (const std::exception&) {
      // Missing or header-damaged log: recover from the checkpoint
      // alone (a fresh directory recovers to an empty service).
      log = std::make_shared<op_log<D>>();
      log->reset_base(base);
    }

    if (have_ck) {
      // Not logged: the checkpoint replaces the log prefix it summarizes.
      const auto g = checkpoint_group(std::move(ck), svc->cfg_.shards);
      if (auto err = svc->apply_off_lanes(g, /*replayed=*/false)) {
        std::rethrow_exception(err);
      }
      // With no log tail to replay, the completion floor is the
      // checkpoint epoch itself.
      svc->applied_epoch_.store(base, std::memory_order_release);
    }
    const std::uint64_t target = std::max(log->head(), base);
    if (log->head() > base) {
      // Throws on a replay gap (log starts past the checkpoint): that
      // directory cannot reproduce the committed history.
      for (auto& g : log->read_from(base)) {
        svc->apply_replayed(std::move(g));
      }
    }
    svc->wait_replay_drained();
    svc->reset_residents();

    // Re-attach durability: the salvaged log becomes the service's log
    // and the file is atomically rewritten (dropping any torn tail on
    // disk), ready for incremental appends. The service is externally
    // quiescent here — same contract as attach_log before traffic.
    log->open_durable(dir + "/oplog.pgol", sync);
    svc->log_ = std::move(log);
    svc->cfg_.log_dir = dir;
    svc->cfg_.sync = sync;
    svc->ctr_.recovered_epochs.store(target, std::memory_order_relaxed);
    return svc;
  }

 private:
  struct pending_entry {
    std::uint64_t id;
    std::vector<request<D>> batch;
    /// Telemetry-clock stamp taken at submit (tel_.now_ns()): the time
    /// base for queue_wait and the ticket's end-to-end completion
    /// latency. One monotonic clock for every stamp in the pipeline —
    /// stage spans are ordered by construction.
    std::uint64_t submit_ns = 0;
    /// Absolute telemetry-clock deadline (0 = none): the drain sheds the
    /// entry instead of executing it once now_ns() passes this.
    std::uint64_t deadline_ns = 0;
    /// The ticket's completion record, co-owned with the submitter's
    /// handle (null for the synthetic TTL-expiry ticket, id 0).
    typename detail::completion_hub<D>::record_ptr rec = nullptr;
  };

  /// A write group in flight on the shard lanes: the log group its lanes
  /// apply, plus — for a native group (write/mixed tickets or a TTL
  /// sweep) — the tickets and the read runs between its records. Routed
  /// once by the drain thread, applied per shard; the last lane to finish
  /// merges and fulfils a native group, or closes a replayed group's
  /// replay stage.
  struct shard_group {
    log_group<D> log;
    bool replayed = false;  // arrived through apply_replayed()
    std::vector<pending_entry> tickets;
    std::vector<request<D>> combined;               // group batches, FIFO
    std::vector<std::vector<std::size_t>> sub_idx;  // per shard -> combined
    std::vector<std::vector<response<D>>> shard_rows;  // per shard
    std::atomic<std::size_t> remaining{0};  // lanes still executing
    std::size_t total = 0;
    std::uint64_t exec_start_ns = 0;  // routing done -> last lane finished
    /// Log epoch this group committed as (0: no log attached / no writes
    /// logged). Threaded through to ticket_result::commit_epoch.
    std::uint64_t commit_epoch = 0;
    /// Representative sampled ticket id (0 = group untraced): lanes gate
    /// their span appends on it, so the ring mutex stays off the
    /// unsampled path entirely.
    std::uint64_t trace_ticket = 0;
    std::mutex err_mu;
    std::exception_ptr error;  // first lane failure wins
  };

  /// A read-only drain group: routed by the drain thread, epoch-stamped by
  /// each involved lane (after that shard's earlier writes), executed by a
  /// snapshot-read executor.
  struct read_group {
    std::vector<pending_entry> tickets;
    std::vector<request<D>> combined;               // group batches, FIFO
    std::vector<std::vector<request<D>>> sub;       // per-shard requests
    std::vector<std::vector<std::size_t>> sub_idx;  // -> combined index
    std::vector<std::shared_ptr<const index_snapshot<D>>> snaps;
    std::atomic<std::size_t> stamps_remaining{0};
    std::size_t total = 0;
    std::uint64_t trace_ticket = 0;  // as in shard_group
    /// Continuous-query evaluation groups ride the read_group machinery
    /// (watch_seq != 0): no tickets, one combined request per affected
    /// watch (watch_ids is parallel to combined), results canonicalized
    /// and handed to the watch registry instead of a hub record.
    /// watch_start_ns is the commit boundary — the fire-latency base.
    std::uint64_t watch_seq = 0;
    std::uint64_t watch_start_ns = 0;
    std::vector<std::uint64_t> watch_ids;
    std::mutex err_mu;
    std::exception_ptr error;  // first stamping failure wins
  };

  /// One step of a lane's share of a write group: apply record `record`
  /// of the group's log, or (record == kReadRun) run the reads
  /// sub[begin, end) against the live shard.
  struct lane_step {
    std::size_t record;
    std::size_t begin = 0, end = 0;
  };
  static constexpr std::size_t kReadRun = static_cast<std::size_t>(-1);

  /// One unit of lane work: this shard's steps of a shard_group, or a
  /// snapshot stamp for a read_group.
  struct shard_task {
    std::shared_ptr<shard_group> exec;   // set for write tasks
    std::shared_ptr<read_group> stamp;   // set for stamp tasks
    std::vector<lane_step> steps;        // write: in log order
    std::vector<request<D>> sub;         // native write: this lane's requests
    std::uint64_t enqueue_ns = 0;        // lane_wait stamp (telemetry on)
  };

  /// Per-shard executor lane: FIFO task queue + the one worker thread that
  /// runs this shard's tasks, one at a time in queue order. `mu` guards q,
  /// busy, stats, shutdown; `cv` signals new work AND task retirement.
  /// `busy` is set from pop until the task retires, so `q.empty() &&
  /// !busy` is exactly "no lane work pending" (what quiesce_lanes() waits
  /// for).
  struct shard_lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<shard_task> q;
    bool shutdown = false;
    bool busy = false;  // a popped task is executing
    shard_drain_stats stats;
    std::thread worker;
  };

  /// Snapshot-read executor threads.
  static constexpr std::size_t kReadThreads = 2;
  /// Stripe rebalancing ignores imbalance below this many resident points
  /// (tiny sets would re-stripe constantly for no win)...
  static constexpr std::size_t kRebalanceMinPoints = 256;
  /// ...and re-derives the quantile bounds from at most this many.
  static constexpr std::size_t kRebalanceSample = 4096;

  using fire_list = typename detail::completion_hub<D>::fire_list;

  static bool batch_is_read_only(const std::vector<request<D>>& batch) {
    for (const auto& r : batch) {
      if (!is_read(r.kind)) return false;
    }
    return true;
  }

  // ---- scratch recycling --------------------------------------------------

  // Routing buffers (per-shard request/index vectors, combined streams)
  // cycle through a small pool instead of being reallocated every group:
  // the drain thread takes them, the lane/reader that consumed them gives
  // them back with capacity intact.
  std::vector<request<D>> take_req_vec() {
    std::lock_guard<std::mutex> lk(scratch_mu_);
    if (!spare_req_.empty()) {
      auto v = std::move(spare_req_.back());
      spare_req_.pop_back();
      ++scratch_reuses_;
      return v;
    }
    ++scratch_allocs_;
    return {};
  }
  void give_req_vec(std::vector<request<D>>&& v) {
    v.clear();
    std::lock_guard<std::mutex> lk(scratch_mu_);
    if (spare_req_.size() < scratch_pool_cap()) {
      spare_req_.push_back(std::move(v));
    }
  }
  std::vector<std::size_t> take_idx_vec() {
    std::lock_guard<std::mutex> lk(scratch_mu_);
    if (!spare_idx_.empty()) {
      auto v = std::move(spare_idx_.back());
      spare_idx_.pop_back();
      ++scratch_reuses_;
      return v;
    }
    ++scratch_allocs_;
    return {};
  }
  void give_idx_vec(std::vector<std::size_t>&& v) {
    v.clear();
    std::lock_guard<std::mutex> lk(scratch_mu_);
    if (spare_idx_.size() < scratch_pool_cap()) {
      spare_idx_.push_back(std::move(v));
    }
  }
  std::size_t scratch_pool_cap() const {
    // Enough for the groups that can be in flight at once (one routing +
    // one per lane + the read queue) without hoarding memory.
    return 4 * cfg_.shards + 8;
  }

  // ---- drain pipeline -----------------------------------------------------

  // The dedicated drainer: moves tickets from ring_ into its thread-local
  // pending_ (so group formation needs no lock at all), pops FIFO groups
  // of same-kind tickets (read-only vs writing, bounded by ingest_window
  // requests), routes each group once, and dispatches it — write/mixed
  // groups to the shard lanes, read-only groups toward the snapshot
  // readers. Replayed log groups take priority over local tickets
  // (replicas serve reads; staying fresh is the product), one per
  // iteration so close() and TTL still interleave. Exit requires closed
  // AND no producer mid-push (submit_entrants_) AND the ring, pending_,
  // and replay queue all flushed. A TTL shortens the park, so expiry
  // sweeps run without traffic.
  void drain_loop() {
    const auto park = std::chrono::nanoseconds(
        cfg_.point_ttl_ns > 0 ? std::chrono::milliseconds(20)
                              : std::chrono::milliseconds(50));
    for (;;) {
      pending_entry e;
      while (ring_.try_pop(e)) pending_.push_back(std::move(e));
      if (replay_pending_.load(std::memory_order_acquire) > 0) {
        log_group<D> rg;
        {
          std::lock_guard<std::mutex> lk(hub_->mu);
          if (replay_q_.empty()) continue;
          rg = std::move(replay_q_.front());
          replay_q_.pop_front();
        }
        replay_pending_.fetch_sub(1, std::memory_order_acq_rel);
        process_replay(std::move(rg));
        continue;
      }
      if (pending_.empty()) {
        if (hub_->closed.load(std::memory_order_seq_cst) &&
            submit_entrants_.load(std::memory_order_seq_cst) == 0 &&
            ring_.empty() &&
            replay_pending_.load(std::memory_order_acquire) == 0) {
          advance_reclaim();  // final sweep before the thread exits
          return;
        }
        maybe_expire();
        advance_reclaim();  // idle tick: drain the limbo list
        ring_.consumer_wait(park, [&] {
          return !ring_.empty() ||
                 replay_pending_.load(std::memory_order_acquire) > 0 ||
                 (hub_->closed.load(std::memory_order_seq_cst) &&
                  submit_entrants_.load(std::memory_order_seq_cst) == 0);
        });
        continue;
      }
      dispatch_formed(form_group());
    }
  }

  /// One drain group pulled off pending_, plus the deadline-expired
  /// entries set aside while forming it.
  struct formed_group {
    std::vector<pending_entry> group;
    std::vector<pending_entry> expired;
    std::size_t total = 0;
    bool read_kind = false;
  };

  // Forms one same-kind group (read-only vs writing, bounded by
  // ingest_window requests) from the front of pending_. Deadline shedding
  // happens here: an entry whose deadline already passed is pulled aside
  // instead of joining the group (it neither breaks same-kind grouping
  // nor counts against the window). Drain thread only (pending_ is its
  // thread-local scratch).
  formed_group form_group() {
    formed_group f;
    const std::uint64_t shed_now_ns = tel_.now_ns();
    const auto entry_expired = [&](const pending_entry& e) {
      return e.deadline_ns != 0 && e.deadline_ns <= shed_now_ns;
    };
    while (!pending_.empty() && entry_expired(pending_.front())) {
      f.expired.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    if (pending_.empty()) return f;
    f.read_kind = batch_is_read_only(pending_.front().batch);
    f.group.push_back(std::move(pending_.front()));
    pending_.pop_front();
    f.total = f.group.front().batch.size();
    while (!pending_.empty()) {
      const auto& next = pending_.front();
      if (entry_expired(next)) {
        f.expired.push_back(std::move(pending_.front()));
        pending_.pop_front();
        continue;
      }
      if (f.total + next.batch.size() > cfg_.ingest_window) break;
      if (batch_is_read_only(next.batch) != f.read_kind) break;
      f.total += next.batch.size();
      f.group.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    return f;
  }

  // Dispatches one formed group (no locks held): fulfil the shed entries,
  // stamp queue_wait, route, and run the write-boundary hooks.
  void dispatch_formed(formed_group f) {
    shed_expired(std::move(f.expired));
    if (f.group.empty()) {
      maybe_expire();  // the whole window had expired
      return;
    }
    if (tel_.enabled()) {
      // One dequeue stamp covers the whole group: every ticket left the
      // ingest queue at this instant, so queue_wait = dequeue - submit
      // per ticket (both stamps on the telemetry clock).
      const std::uint64_t dq = tel_.now_ns();
      for (const auto& e : f.group) {
        const std::uint64_t wait_ns = dq - e.submit_ns;
        tel_.record(stage::queue_wait, wait_ns);
        if (tel_.sampled(e.id)) {
          tel_.add_span("queue_wait", tel_.drain_track(), e.submit_ns,
                        wait_ns, e.id);
        }
      }
    }
    if (f.read_kind) {
      route_read_group(std::move(f.group), f.total);
      // Reads are not write boundaries, but a read-heavy stream must
      // not starve expiry: the idle-timeout sweep only runs when the
      // queue stays empty for a whole bounded wait, which steady read
      // traffic prevents indefinitely.
      maybe_expire();
    } else {
      begin_write_group();
      dispatch_shard_group(std::move(f.group), f.total, log_origin::client);
      // A committed write group is a watch boundary: re-evaluate the
      // standing queries the touched shards serve, then retire points
      // whose TTL elapsed (itself another boundary). Write groups also
      // move mass between shards' resident sets, and a drain boundary
      // is the only point where stripes may be re-derived (routing and
      // pruning stay mutually consistent group to group). It is also a
      // reclaim point: the structure versions this group superseded go
      // through one epoch advance + limbo sweep.
      schedule_watch_eval();
      maybe_expire();
      maybe_rebalance();
      maybe_checkpoint();
      advance_reclaim();
    }
  }

  // One epoch advance + limbo sweep (query/epoch_reclaim.h), timed as the
  // reclaim stage. Drain thread only: deferred destruction of superseded
  // index structure lands here, off the reader tail-latency path.
  void advance_reclaim() {
    const std::uint64_t t0 = tel_.enabled() ? tel_.now_ns() : 0;
    reclaim_.advance_and_reclaim();
    if (tel_.enabled()) tel_.record(stage::reclaim, tel_.now_ns() - t0);
  }

  // ---- per-shard drain pipelines ------------------------------------------

  // Routes a native write group (client tickets, or a TTL sweep) once,
  // cuts each shard's sub-batch into its lane steps, commits the group's
  // records to the log, and fans the steps out to the lanes, then returns
  // immediately — the drain thread never executes.
  void dispatch_shard_group(std::vector<pending_entry> tickets,
                            std::size_t total, log_origin origin) {
    const std::uint64_t route_start = tel_.enabled() ? tel_.now_ns() : 0;
    auto g = std::make_shared<shard_group>();
    g->log.origin = origin;
    g->tickets = std::move(tickets);
    g->total = total;
    g->trace_ticket = pick_trace_ticket(g->tickets);
    g->exec_start_ns = route_start;  // re-stamped before the lane fan-out
    g->combined = take_req_vec();
    g->combined.reserve(total);
    for (const auto& e : g->tickets) {
      g->combined.insert(g->combined.end(), e.batch.begin(), e.batch.end());
    }
    if (cfg_.policy == shard_policy::spatial && !bounds_set_) {
      // Stripes not carved yet: this group's write payloads (the first
      // mass to ever enter the index) carve them, the group carries them,
      // and they route it and every later group — unless it fails to
      // commit. Bounds are fixed from then on, so routing and read
      // pruning stay mutually consistent.
      std::vector<point<D>> pts;
      for (const auto& r : g->combined) {
        if (!is_read(r.kind)) pts.push_back(r.p);
      }
      derive_stripes(pts, scan_points(pts).box, g->log);
      install_stripes(g->log);
    }

    g->sub_idx.resize(cfg_.shards);
    std::vector<std::vector<request<D>>> sub(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      sub[s] = take_req_vec();
      g->sub_idx[s] = take_idx_vec();
    }
    for (std::size_t i = 0; i < g->combined.size(); ++i) {
      const auto& r = g->combined[i];
      if (is_read(r.kind)) {
        for (std::size_t s = 0; s < cfg_.shards; ++s) {
          if (!shard_serves(s, r)) continue;
          sub[s].push_back(r);
          g->sub_idx[s].push_back(i);
        }
      } else {
        const std::size_t s = owner_of(r.p);
        sub[s].push_back(r);
        g->sub_idx[s].push_back(i);
        note_routed_write(s, r);
      }
    }
    // The route stage also times the cut (and its record copies).
    std::vector<std::vector<lane_step>> steps(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      steps[s] = cut_steps(s, sub[s], g->log);
    }

    if (tel_.enabled()) {
      const std::uint64_t route_end = tel_.now_ns();
      tel_.record(stage::route, route_end - route_start);
      if (g->trace_ticket) {
        tel_.add_span("route", tel_.drain_track(), route_start,
                      route_end - route_start, g->trace_ticket);
      }
    }

    // A failed append must not unwind the drain thread: the group's
    // tickets fail (their writes never committed — nothing was applied)
    // and neither do the stripes it carved.
    try {
      append_to_log(g->log);
    } catch (...) {
      if (g->log.has_bounds) bounds_set_ = false;
      for (auto& v : sub) give_req_vec(std::move(v));
      g->error = std::current_exception();
      finalize_shard_group(g);
      return;
    }
    g->commit_epoch = g->log.epoch;
    g->exec_start_ns = tel_.now_ns();
    // No lane work: every ticket in the group had an empty batch.
    if (!fan_out(g, steps, &sub)) finalize_shard_group(g);
  }

  // Cuts shard s's routed sub-batch with the shared phase cut
  // (query_engine.h) into its lane steps: each write run becomes one
  // record of `lg` — one batched backend call, its points copied here
  // once — and each read run a step the lane runs against the live shard.
  static std::vector<lane_step> cut_steps(std::size_t s,
                                          const std::vector<request<D>>& sub,
                                          log_group<D>& lg) {
    std::vector<lane_step> steps;
    for (std::size_t begin = 0, end = 0; begin < sub.size(); begin = end) {
      end = phase_end<D>(sub, begin);
      if (is_read(sub[begin].kind)) {
        steps.push_back({kReadRun, begin, end});
        continue;
      }
      log_record<D> rec{static_cast<std::uint32_t>(s),
                        sub[begin].kind == op::insert ? log_op::insert
                                                      : log_op::erase,
                        {}};
      rec.pts.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i) rec.pts.push_back(sub[i].p);
      steps.push_back({lg.records.size()});
      lg.records.push_back(std::move(rec));
    }
    return steps;
  }

  // Hands every shard with steps one lane task (native groups: with its
  // routed requests; idle shards give theirs back). Returns false, with
  // nothing enqueued, when no shard has work.
  bool fan_out(const std::shared_ptr<shard_group>& g,
               std::vector<std::vector<lane_step>>& steps,
               std::vector<std::vector<request<D>>>* sub) {
    std::size_t active = 0;
    for (const auto& st : steps) active += st.empty() ? 0 : 1;
    g->shard_rows.resize(cfg_.shards);
    g->remaining.store(active, std::memory_order_relaxed);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      if (steps[s].empty()) {
        if (sub) give_req_vec(std::move((*sub)[s]));
        continue;
      }
      shard_task task;
      task.exec = g;
      task.steps = std::move(steps[s]);
      if (sub) task.sub = std::move((*sub)[s]);
      enqueue_lane_task(s, std::move(task));
    }
    return active > 0;
  }

  void enqueue_lane_task(std::size_t s, shard_task task) {
    if (tel_.enabled()) task.enqueue_ns = tel_.now_ns();
    auto& lane = *lanes_[s];
    {
      std::lock_guard<std::mutex> lk(lane.mu);
      lane.q.push_back(std::move(task));
      lane.stats.max_queue_depth =
          std::max(lane.stats.max_queue_depth, lane.q.size());
    }
    lane.cv.notify_one();
  }

  // Lane worker: runs this shard's write tasks (native and replayed) and
  // snapshot stamps one at a time in FIFO order until shutdown (queue
  // flushed first). Clearing `busy` after each task is what wakes
  // quiesce_lanes().
  void shard_loop(std::size_t s) {
    auto& lane = *lanes_[s];
    for (;;) {
      shard_task task;
      {
        std::unique_lock<std::mutex> lk(lane.mu);
        lane.cv.wait(lk, [&] { return !lane.q.empty() || lane.shutdown; });
        if (lane.q.empty()) return;  // shutdown, queue flushed
        task = std::move(lane.q.front());
        lane.q.pop_front();
        lane.busy = true;
      }
      if (tel_.enabled() && task.enqueue_ns != 0) {
        const std::uint64_t wait_ns = tel_.now_ns() - task.enqueue_ns;
        tel_.record_shard(s, stage::lane_wait, wait_ns);
        const std::uint64_t tt = task.exec    ? task.exec->trace_ticket
                                 : task.stamp ? task.stamp->trace_ticket
                                              : 0;
        if (tt) {
          tel_.add_span("lane_wait", tel_.lane_track(s), task.enqueue_ns,
                        wait_ns, tt, static_cast<std::int32_t>(s));
        }
      }
      if (task.exec) {
        run_lane_write(s, std::move(task));
      } else {
        run_lane_stamp(s, std::move(task));
      }
      {
        std::lock_guard<std::mutex> lk(lane.mu);
        lane.busy = false;
      }
      lane.cv.notify_all();
    }
  }

  // Runs this lane's steps of a shard_group in order — records through
  // apply_record, read runs on the live index (only this lane writes this
  // shard) — records the lane's counters, and, if this lane finishes the
  // group, completes it. Writes never wait on readers: snapshots are
  // isolated, and superseded trees go through the epoch reclaimer.
  void run_lane_write(std::size_t s, shard_task task) {
    auto g = std::move(task.exec);
    // One ns delta feeds both the execute_write histogram and the lane's
    // execute_seconds counter — they cannot disagree.
    const std::uint64_t t0 = tel_.now_ns();
    auto& index = *shards_[s];
    std::vector<response<D>> rows(task.sub.size());
    std::size_t record_pts = 0;
    try {
      if (!g->replayed) fault::fire(fault::kLaneExecute);
      for (const lane_step& st : task.steps) {
        if (st.record == kReadRun) {
          detail::execute_read_phase_on<D>(index, task.sub, st.begin, st.end,
                                           rows);
        } else {
          record_pts += g->log.records[st.record].pts.size();
          apply_record(g->log.records[st.record], g->replayed);
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(g->err_mu);
      if (!g->error) g->error = std::current_exception();
    }
    const std::uint64_t dur_ns = tel_.now_ns() - t0;
    if (tel_.enabled()) {
      tel_.record_shard(s, stage::execute_write, dur_ns);
      if (g->trace_ticket) {
        tel_.add_span("execute", tel_.lane_track(s), t0, dur_ns,
                      g->trace_ticket, static_cast<std::int32_t>(s));
      }
    }
    {
      auto& lane = *lanes_[s];
      std::lock_guard<std::mutex> lk(lane.mu);
      ++lane.stats.num_drains;
      lane.stats.num_requests += g->replayed ? record_pts : task.sub.size();
      lane.stats.execute_seconds += static_cast<double>(dur_ns) * 1e-9;
    }
    g->shard_rows[s] = std::move(rows);
    if (!g->replayed) give_req_vec(std::move(task.sub));
    if (g->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finalize_shard_group(g);
    }
  }

  // Stamps this shard's epoch snapshot for a read group; the lane that
  // stamps last hands the group to the snapshot readers. A failed
  // snapshot (allocation) fails the group instead of unwinding the lane
  // thread. The epoch reclaimer covers the structure versions the
  // snapshot references.
  void run_lane_stamp(std::size_t s, shard_task task) {
    auto g = std::move(task.stamp);
    const std::uint64_t t0 = g->trace_ticket ? tel_.now_ns() : 0;
    try {
      g->snaps[s] = shards_[s]->snapshot();
    } catch (...) {
      std::lock_guard<std::mutex> lk(g->err_mu);
      if (!g->error) g->error = std::current_exception();
    }
    if (g->trace_ticket) {
      tel_.add_span("stamp", tel_.lane_track(s), t0, tel_.now_ns() - t0,
                    g->trace_ticket, static_cast<std::int32_t>(s));
    }
    if (g->stamps_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      enqueue_read_task(std::move(g));
    }
  }

  // ---- the write path: commit, apply, replay -------------------------------

  // The commit point of every group the primary applies: with a log
  // attached, appends a copy of `g` and stamps its epoch before anything
  // applies it (the `replicate` stage times the append). A group with
  // neither records nor bounds is not logged; it observes the head.
  // Throws — and the group must then not apply — when the append fails or
  // the log already has: the first failure latches log_failed_ and counts
  // log_append_errors, and every later group fails fast. For writes the
  // service then behaves like a dead process; reads keep serving what
  // was committed. Drain thread (or bootstrap, before traffic): the
  // single appender, so log order is commit order.
  void append_to_log(log_group<D>& g) {
    if (!log_) return;
    if (log_failed_) {
      throw std::runtime_error(
          "query_service: durable log failed — writes cannot commit");
    }
    if (g.records.empty() && !g.has_bounds) {
      g.epoch = log_->head();
      return;
    }
    const std::uint64_t r0 = tel_.now_ns();
    try {
      g.epoch = log_->append(g);
    } catch (...) {
      log_failed_ = true;
      ctr_.log_append_errors.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
    if (tel_.enabled()) tel_.record(stage::replicate, tel_.now_ns() - r0);
  }

  // The one function that writes a shard: re-issues one record's backend
  // call verbatim, for the primary's own groups and replayed ones alike.
  // Identical per-shard record sequences produce identical tree structure
  // (and so identical k-NN tie order) — the byte-identical convergence
  // guarantee rests here. `replica.apply` fires once per replayed record.
  void apply_record(const log_record<D>& rec, bool replayed) {
    if (replayed) fault::fire(fault::kReplicaApply);
    auto& index = *shards_[rec.shard];
    switch (rec.kind) {
      case log_op::build:
        index.build(rec.pts);
        break;
      case log_op::insert:
        index.batch_insert(rec.pts);
        break;
      case log_op::erase:
        index.batch_erase(rec.pts);
        break;
    }
  }

  // Applies a whole group off the lanes, with them quiesced: every shard's
  // records in log order, shards in parallel, then the stripes the group
  // carries. A shard's failure is caught inside the loop body (an
  // exception escaping an OpenMP region terminates the process); the
  // first one, by shard, is returned.
  std::exception_ptr apply_off_lanes(const log_group<D>& g, bool replayed) {
    quiesce_lanes();
    std::vector<std::exception_ptr> errs(cfg_.shards);
    par::parallel_for(
        0, cfg_.shards,
        [&](std::size_t s) {
          try {
            for (const auto& rec : g.records) {
              if (rec.shard == s) apply_record(rec, replayed);
            }
          } catch (...) {
            errs[s] = std::current_exception();
          }
        },
        1);
    install_stripes(g);
    for (const auto& e : errs) {
      if (e) return e;
    }
    return nullptr;
  }

  // Replica side, drain thread: applies one replayed log group. Ordinary
  // groups fan their records out per shard to the lanes (FIFO behind
  // earlier work); bounds-carrying groups (bootstrap, rebalance,
  // checkpoint) apply off the lanes like the primary's, because changing
  // routing geometry under in-flight reads would break pruning. A failed
  // group counts one replay error; the replica keeps serving what it has.
  // applied_epoch_ advances at dispatch: a read routed after that point
  // stamps behind the replay tasks on every shard it touches, which is
  // the read-your-writes guarantee routers build on.
  void process_replay(log_group<D> lg) {
    const std::uint64_t t0 = tel_.now_ns();
    const std::uint64_t epoch = lg.epoch;
    if (lg.has_bounds) {
      if (apply_off_lanes(lg, /*replayed=*/true)) {
        ctr_.replay_errors.fetch_add(1, std::memory_order_relaxed);
      }
      applied_epoch_.store(epoch, std::memory_order_release);
      finish_replay_group(lg.records.size(), t0);
    } else {
      auto g = std::make_shared<shard_group>();
      g->replayed = true;
      g->exec_start_ns = t0;  // drain-thread pickup -> last lane done
      g->log = std::move(lg);
      std::vector<std::vector<lane_step>> steps(cfg_.shards);
      for (std::size_t i = 0; i < g->log.records.size(); ++i) {
        steps[g->log.records[i].shard].push_back({i});
      }
      if (!fan_out(g, steps, nullptr)) finish_replay_group(0, t0);
      applied_epoch_.store(epoch, std::memory_order_release);
    }
    // Dispatch-complete: wait_replay_drained() pairs this with
    // wait_lanes_idle() to cover the in-lane tail.
    replay_done_.fetch_add(1, std::memory_order_acq_rel);
  }

  void finish_replay_group(std::size_t records, std::uint64_t start_ns) {
    if (tel_.enabled()) tel_.record(stage::replay, tel_.now_ns() - start_ns);
    ctr_.replayed_groups.fetch_add(1, std::memory_order_relaxed);
    ctr_.replayed_records.fetch_add(records, std::memory_order_relaxed);
  }

  // After a rebuild (bootstrap, recovery), lanes quiesced: the resident
  // estimates re-sync from the shard sizes, and every resident point
  // starts one full TTL window from now (recovery has no deadlines to
  // restore — they are not persisted, and erring long keeps data).
  void reset_residents() {
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      resident_est_[s] = shards_[s]->size();
    }
    if (cfg_.point_ttl_ns == 0) return;
    std::lock_guard<std::mutex> lk(ttl_mu_);
    ttl_q_.clear();
    const std::uint64_t deadline = ttl_now_() + cfg_.point_ttl_ns;
    for (const auto& shard : shards_) {
      for (const auto& p : shard->gather()) ttl_q_.emplace_back(deadline, p);
    }
  }

  // ---- durability: checkpoints ---------------------------------------------

  // Drain thread, after each write group: checkpoint every
  // cfg_.checkpoint_every write groups.
  void maybe_checkpoint() {
    if (cfg_.checkpoint_every == 0 || cfg_.log_dir.empty() || !log_) return;
    if (++write_groups_since_ck_ < cfg_.checkpoint_every) return;
    write_groups_since_ck_ = 0;
    do_checkpoint();
  }

  // Serializes per-shard resident state at the current log head into an
  // atomic on-disk checkpoint, then compacts the log below that epoch.
  // Quiesces the lanes first so the gather is consistent with head (a
  // single-appender invariant: nothing commits between head() and the
  // gathers). A failed write counts checkpoint_errors and leaves the
  // previous checkpoint and the full log intact.
  bool do_checkpoint() {
    if (!log_ || cfg_.log_dir.empty()) return false;
    quiesce_lanes();
    checkpoint_data<D> ck;
    ck.epoch = log_->head();
    ck.bounds_set = bounds_set_;
    ck.split_dim = split_dim_;
    ck.cuts = bounds_;
    ck.shard_points.resize(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      ck.shard_points[s] = shards_[s]->gather();
    }
    try {
      write_checkpoint<D>(cfg_.log_dir, ck);
    } catch (...) {
      ctr_.checkpoint_errors.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    log_->compact(ck.epoch);
    ctr_.checkpoints.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Completes a shard_group once every lane is done with it (or the drain
  // thread failed it before the fan-out): a replayed group closes its
  // replay stage, counting one replay error if any lane failed; a native
  // group merges per-shard rows into its responses and fulfils every
  // ticket.
  void finalize_shard_group(const std::shared_ptr<shard_group>& g) {
    if (g->replayed) {
      if (g->error) ctr_.replay_errors.fetch_add(1, std::memory_order_relaxed);
      finish_replay_group(g->log.records.size(), g->exec_start_ns);
      return;
    }
    const double secs =
        static_cast<double>(tel_.now_ns() - g->exec_start_ns) * 1e-9;
    std::exception_ptr error = g->error;  // all lanes are done; no races
    std::vector<response<D>> responses;
    if (!error) {
      const std::uint64_t m0 = tel_.enabled() ? tel_.now_ns() : 0;
      merge_shard_reads(g->combined, g->sub_idx, g->shard_rows, responses);
      if (tel_.enabled()) {
        const std::uint64_t m_ns = tel_.now_ns() - m0;
        tel_.record(stage::merge, m_ns);
        if (g->trace_ticket) {
          tel_.add_span("merge", tel_.fulfil_track(), m0, m_ns,
                        g->trace_ticket);
        }
      }
    }
    give_req_vec(std::move(g->combined));
    for (auto& idx : g->sub_idx) give_idx_vec(std::move(idx));
    fulfill_group(std::move(g->tickets), g->total, std::move(responses),
                  error, /*snapshot_epoch=*/0, /*read_group=*/false,
                  /*lagged=*/false, secs, g->commit_epoch, g->trace_ticket);
  }

  // ---- online stripe rebalancing ------------------------------------------

  // Routed-write bookkeeping, drain-thread only (like the bounds): cheap
  // per-shard resident estimates for the rebalance trigger (inserts
  // routed in minus erases routed in, clamped at zero — no-op erases
  // drift the estimate, but rebalance_stripes() re-checks against exact
  // sizes before touching anything), the touched-shard mask
  // schedule_watch_eval filters watches through, and the TTL entry every
  // insert leaves behind (deadline stamped once per group by
  // begin_write_group, so the queue stays deadline-ordered).
  void note_routed_write(std::size_t s, const request<D>& r) {
    ++writes_since_rebalance_;
    write_touched_[s] = 1;
    if (r.kind == op::insert) {
      ++resident_est_[s];
      if (cfg_.point_ttl_ns > 0) {
        std::lock_guard<std::mutex> lk(ttl_mu_);
        ttl_q_.emplace_back(ttl_batch_deadline_, r.p);
      }
    } else if (resident_est_[s] > 0) {
      --resident_est_[s];
    }
  }

  // Drain-thread prologue for one write-group dispatch: resets the
  // touched-shard mask schedule_watch_eval reads and stamps the TTL
  // deadline every insert routed in this group will carry.
  void begin_write_group() {
    std::fill(write_touched_.begin(), write_touched_.end(), 0);
    if (cfg_.point_ttl_ns > 0) {
      ttl_batch_deadline_ = ttl_now_() + cfg_.point_ttl_ns;
    }
  }

  static bool skewed_sizes(const std::vector<std::size_t>& sizes,
                           double threshold) {
    std::size_t total = 0, maxv = 0;
    for (std::size_t n : sizes) {
      total += n;
      maxv = std::max(maxv, n);
    }
    if (total == 0) return false;
    const double mean =
        static_cast<double>(total) / static_cast<double>(sizes.size());
    return static_cast<double>(maxv) > threshold * mean;
  }

  // Drain-boundary trigger: estimates crossed the configured max/mean
  // imbalance. The backoff counts writes routed since the last attempt
  // (NOT resident-total drift — a balanced insert/erase stream with a
  // drifting hot region keeps the total flat while the skew rebuilds, and
  // must still be chased): enough new writes to plausibly change the
  // balance, and a much longer leash after a futile attempt, so an
  // un-fixable skew (fewer distinct coordinates than shards, say) cannot
  // quiesce the pipeline on every group.
  void maybe_rebalance() {
    if (cfg_.policy != shard_policy::spatial || cfg_.shards < 2) return;
    if (cfg_.rebalance_threshold <= 1.0 || !bounds_set_) return;
    std::size_t total = 0;
    for (std::size_t n : resident_est_) total += n;
    if (total < kRebalanceMinPoints) return;
    if (rebalance_attempted_) {
      const std::size_t leash =
          last_rebalance_futile_ ? std::max<std::size_t>(256, total / 4)
                                 : std::max<std::size_t>(64, total / 16);
      if (writes_since_rebalance_ < leash) return;
    }
    if (!skewed_sizes(resident_est_, cfg_.rebalance_threshold)) return;
    rebalance_stripes();
  }

  // Blocks until every lane queue is empty and no task is executing.
  // Drain-thread only — nothing else enqueues lane work, so quiescence is
  // stable once reached (snapshot readers may still be in flight; their
  // isolated snapshots keep answering at their stamped epochs).
  void quiesce_lanes() {
    for (auto& lane_ptr : lanes_) {
      auto& lane = *lane_ptr;
      std::unique_lock<std::mutex> lk(lane.mu);
      lane.cv.wait(lk, [&] { return lane.q.empty() && !lane.busy; });
    }
  }

  // Re-derives the quantile stripe bounds from a sample of the live
  // points and migrates misplaced points to their new owners as one
  // `rebalance` group carrying the new bounds. Runs on the drain thread
  // with the lanes quiesced: every earlier group executed fully under the
  // old bounds, every later group is routed (and every later read pruned)
  // under the new ones, so routing and pruning never disagree. The group
  // is appended, then applied like any other: if its append fails, no
  // point moves and the old bounds stay. Migration is one erase record per
  // losing shard, then inserts, so epochs bump on every shard that gains
  // or loses points, and already-stamped snapshot readers keep answering
  // at their epochs.
  void rebalance_stripes() {
    quiesce_lanes();
    std::vector<std::size_t> sizes(cfg_.shards);
    std::size_t total = 0;
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      sizes[s] = shards_[s]->size();
      total += sizes[s];
      resident_est_[s] = sizes[s];  // re-sync the estimates
    }
    rebalance_attempted_ = true;
    writes_since_rebalance_ = 0;
    if (total == 0 || !skewed_sizes(sizes, cfg_.rebalance_threshold)) {
      last_rebalance_futile_ = false;  // estimate drift, not a failed fix
      return;  // the actual sizes are fine; nothing was materialized
    }
    std::vector<std::vector<point<D>>> held(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      held[s] = shards_[s]->gather();
    }
    // Quantile sample, strided across the whole resident multiset so
    // every shard contributes proportionally to the new bounds.
    const std::size_t target = std::max<std::size_t>(
        cfg_.shards, std::min(total, kRebalanceSample));
    const std::size_t stride = std::max<std::size_t>(1, total / target);
    std::vector<point<D>> sample;
    sample.reserve(total / stride + 1);
    std::size_t seen = 0;
    for (const auto& part : held) {
      for (const auto& p : part) {
        if (seen++ % stride == 0) sample.push_back(p);
      }
    }
    log_group<D> g;
    g.origin = log_origin::rebalance;
    derive_stripes(sample, scan_points(sample).box, g);
    // Classify against the new stripes; every shard's erase record comes
    // before any insert, so no point is counted (or gathered) twice.
    std::vector<std::vector<point<D>>> arrivals(cfg_.shards);
    std::size_t moved = 0;
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      std::vector<point<D>> leavers;
      for (const auto& p : held[s]) {
        const std::size_t t = stripe_of(p, g.split_dim, g.cuts);
        if (t == s) continue;
        leavers.push_back(p);
        arrivals[t].push_back(p);
        ++moved;
      }
      if (leavers.empty()) continue;
      g.records.push_back({static_cast<std::uint32_t>(s), log_op::erase,
                           std::move(leavers)});
    }
    for (std::size_t t = 0; t < cfg_.shards; ++t) {
      if (arrivals[t].empty()) continue;
      g.records.push_back({static_cast<std::uint32_t>(t), log_op::insert,
                           std::move(arrivals[t])});
    }
    try {
      append_to_log(g);
    } catch (...) {
      return;  // not committed: nothing moved (counted in append_to_log)
    }
    if (auto err = apply_off_lanes(g, /*replayed=*/false)) {
      std::rethrow_exception(err);
    }
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      resident_est_[s] = shards_[s]->size();
    }
    // A re-derivation that moved nothing cannot fix this skew (the mass
    // has fewer distinct coordinates than shards): back off much longer.
    last_rebalance_futile_ = moved == 0;
    ctr_.rebalances.fetch_add(1, std::memory_order_relaxed);
    ctr_.rebalance_moved.fetch_add(moved, std::memory_order_relaxed);
  }

  // ---- snapshot-read path -------------------------------------------------

  // Routes a read-only ticket group once; the lanes stamp and the readers
  // execute it (scatter_read_group).
  void route_read_group(std::vector<pending_entry> tickets,
                        std::size_t total) {
    const std::uint64_t route_start = tel_.enabled() ? tel_.now_ns() : 0;
    auto g = std::make_shared<read_group>();
    g->tickets = std::move(tickets);
    g->total = total;
    g->trace_ticket = pick_trace_ticket(g->tickets);
    g->combined = take_req_vec();
    g->combined.reserve(total);
    for (const auto& e : g->tickets) {
      g->combined.insert(g->combined.end(), e.batch.begin(), e.batch.end());
    }
    if (scatter_read_group(g, route_start)) return;
    // Every ticket in the group had an empty batch.
    recycle_read_group(*g);
    fulfill_group(std::move(g->tickets), g->total, {}, nullptr,
                  /*snapshot_epoch=*/0, /*read_group=*/true,
                  /*lagged=*/false, /*exec_seconds=*/0, /*commit_epoch=*/0,
                  g->trace_ticket);
  }

  // Scatters a read group's combined requests (tickets or watches) to
  // every shard that serves them and fans stamp tasks out to those lanes.
  // Each lane stamps its own snapshot in queue order (so it observes
  // exactly that shard's earlier writes) and the last stamp hands the
  // group to the readers. Ticket groups record the route stage from
  // `route_start` up to the fan-out. Returns false, with nothing
  // enqueued, when no shard serves any request.
  bool scatter_read_group(const std::shared_ptr<read_group>& g,
                          std::uint64_t route_start) {
    g->sub.resize(cfg_.shards);
    g->sub_idx.resize(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      g->sub[s] = take_req_vec();
      g->sub_idx[s] = take_idx_vec();
    }
    for (std::size_t i = 0; i < g->combined.size(); ++i) {
      for (std::size_t s = 0; s < cfg_.shards; ++s) {
        if (!shard_serves(s, g->combined[i])) continue;
        g->sub[s].push_back(g->combined[i]);
        g->sub_idx[s].push_back(i);
      }
    }
    g->snaps.resize(cfg_.shards);
    if (tel_.enabled() && g->watch_seq == 0) {
      const std::uint64_t route_end = tel_.now_ns();
      tel_.record(stage::route, route_end - route_start);
      if (g->trace_ticket) {
        tel_.add_span("route", tel_.drain_track(), route_start,
                      route_end - route_start, g->trace_ticket);
      }
    }
    std::size_t active = 0;
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      if (!g->sub[s].empty()) ++active;
    }
    if (active == 0) return false;
    g->stamps_remaining.store(active, std::memory_order_relaxed);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      if (g->sub[s].empty()) continue;
      shard_task task;
      task.stamp = g;
      enqueue_lane_task(s, std::move(task));
    }
    return true;
  }

  void enqueue_read_task(std::shared_ptr<read_group> g) {
    {
      std::lock_guard<std::mutex> lk(read_mu_);
      read_q_.push_back(std::move(g));
    }
    read_cv_.notify_one();
  }

  // Snapshot-read executors: drain the read queue until shutdown.
  void read_loop() {
    for (;;) {
      std::shared_ptr<read_group> g;
      {
        std::unique_lock<std::mutex> lk(read_mu_);
        read_cv_.wait(lk, [&] { return read_shutdown_ || !read_q_.empty(); });
        if (read_q_.empty()) return;  // shutdown, queue flushed
        g = std::move(read_q_.front());
        read_q_.pop_front();
      }
      if (g->watch_seq != 0) {
        run_watch_task(std::move(g));
      } else {
        run_read_task(std::move(g));
      }
    }
  }

  // Executes a stamped read group against its epoch snapshots: every
  // shard's sub-batch runs on its snapshot in parallel (the execute_read
  // stage, per shard), then rows gather-merge into `responses` in
  // combined order (the merge stage, for ticket groups). Callers hold an
  // epoch-reclaimer guard.
  void read_snapshots(const read_group& g,
                      std::vector<response<D>>& responses) {
    std::vector<std::vector<response<D>>> shard_rows(cfg_.shards);
    par::parallel_for(
        0, cfg_.shards,
        [&](std::size_t s) {
          if (g.sub[s].empty()) return;
          shard_rows[s].resize(g.sub[s].size());
          const std::uint64_t s0 = tel_.enabled() ? tel_.now_ns() : 0;
          detail::execute_read_phase_on<D>(*g.snaps[s], g.sub[s], 0,
                                           g.sub[s].size(), shard_rows[s]);
          if (tel_.enabled()) {
            const std::uint64_t s_ns = tel_.now_ns() - s0;
            tel_.record_shard(s, stage::execute_read, s_ns);
            if (g.trace_ticket) {
              tel_.add_span("execute_read", tel_.reader_track(), s0, s_ns,
                            g.trace_ticket, static_cast<std::int32_t>(s));
            }
          }
        },
        1);
    const std::uint64_t m0 = tel_.enabled() ? tel_.now_ns() : 0;
    merge_shard_reads(g.combined, g.sub_idx, shard_rows, responses);
    if (tel_.enabled() && g.watch_seq == 0) {
      const std::uint64_t m_ns = tel_.now_ns() - m0;
      tel_.record(stage::merge, m_ns);
      if (g.trace_ticket) {
        tel_.add_span("merge", tel_.fulfil_track(), m0, m_ns, g.trace_ticket);
      }
    }
  }

  // Executes one ticket read group and fulfils it. The whole execution
  // runs inside an epoch-reclaimer guard: structure versions retired
  // while this read is in flight stay on the limbo list until the guard
  // releases (query/epoch_reclaim.h).
  void run_read_task(std::shared_ptr<read_group> g) {
    epoch_reclaimer::guard eg = reclaim_.enter();
    const std::uint64_t t_start = tel_.now_ns();
    std::vector<response<D>> responses;
    std::exception_ptr error = g->error;  // all stamps retired; no race
    std::uint64_t snap_epoch = 0;
    if (!error) {
      try {
        read_snapshots(*g, responses);
        for (const auto& snap : g->snaps) {
          if (snap) snap_epoch = std::max(snap_epoch, snap->epoch());
        }
      } catch (...) {
        error = std::current_exception();
      }
    }
    const double secs = static_cast<double>(tel_.now_ns() - t_start) * 1e-9;
    // Any divergence here means a write drain advanced the live index
    // while this read was executing — the overlap snapshot reads exist
    // to allow.
    bool lagged = false;
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      if (g->snaps[s] && g->snaps[s]->epoch() != shards_[s]->epoch()) {
        lagged = true;
      }
    }
    eg.release();  // quiescent: stop holding the reclaim epoch back
    recycle_read_group(*g);
    fulfill_group(std::move(g->tickets), g->total, std::move(responses),
                  error, snap_epoch, /*read_group=*/true, lagged, secs,
                  /*commit_epoch=*/0, g->trace_ticket);
  }

  void recycle_read_group(read_group& g) {
    give_req_vec(std::move(g.combined));
    for (auto& v : g.sub) give_req_vec(std::move(v));
    for (auto& v : g.sub_idx) give_idx_vec(std::move(v));
  }

  // ---- continuous queries -------------------------------------------------

  watch_handle<D> add_watch(request<D> q,
                            typename watch_registry<D>::callback_t cb) {
    if (!cb) {
      throw std::invalid_argument("query_service::watch: empty callback");
    }
    const std::vector<request<D>> probe{q};  // front-door validation
    validate_batch(probe);
    const std::uint64_t id = watches_->add(std::move(q), std::move(cb));
    return watch_handle<D>(watches_, id);
  }

  // Drain-boundary hook: collects the standing queries the group just
  // dispatched could affect (shards the group routed writes into,
  // filtered through shard_serves — the same stripe/box pruning reads
  // use; watches no touched shard serves count as suppressed without
  // evaluating anything) and launches their re-evaluation as an internal
  // read group on the post-drain snapshots. Stamp tasks enqueue behind
  // the group's own lane tasks, so per-shard FIFO makes every snapshot
  // observe exactly the writes up to this boundary. Drain-thread only.
  void schedule_watch_eval() {
    if (watches_->active() == 0) return;
    bool any_touched = false;
    for (const unsigned char t : write_touched_) any_touched |= t != 0;
    if (!any_touched) return;
    affected_scratch_.clear();
    const std::uint64_t seq = watches_->collect_affected(
        [&](const request<D>& q) {
          for (std::size_t s = 0; s < cfg_.shards; ++s) {
            if (write_touched_[s] && shard_serves(s, q)) return true;
          }
          return false;
        },
        affected_scratch_);
    if (seq == 0) return;
    auto g = std::make_shared<read_group>();
    g->watch_seq = seq;
    g->watch_start_ns = tel_.now_ns();
    g->combined = take_req_vec();
    g->combined.reserve(affected_scratch_.size());
    g->watch_ids.reserve(affected_scratch_.size());
    for (auto& [id, q] : affected_scratch_) {
      g->watch_ids.push_back(id);
      g->combined.push_back(std::move(q));
    }
    // Full scatter over ALL serving shards (not just the touched ones):
    // a watch's fresh result must be the complete answer, so untouched
    // shards answer from their snapshots too.
    if (scatter_read_group(g, /*route_start=*/0)) return;
    // No shard serves any watch (only an inverted box can do that).
    recycle_read_group(*g);
    watches_->deliver(seq, {});
  }

  // Re-evaluates one watch group against its post-drain snapshots and
  // hands the canonicalized rows to the registry's delivery engine. The
  // watch_eval histogram records commit boundary -> results ready (the
  // fire latency). Delivery happens even on failure — an empty batch —
  // so the registry's boundary sequence never stalls.
  void run_watch_task(std::shared_ptr<read_group> g) {
    epoch_reclaimer::guard eg = reclaim_.enter();
    std::vector<std::pair<std::uint64_t, std::vector<point<D>>>> fired;
    if (!g->error) {
      try {
        std::vector<response<D>> responses;
        read_snapshots(*g, responses);
        fired.reserve(g->watch_ids.size());
        for (std::size_t i = 0; i < g->combined.size(); ++i) {
          canonicalize_row(g->combined[i], responses[i].points);
          fired.emplace_back(g->watch_ids[i],
                             std::move(responses[i].points));
        }
      } catch (...) {
        fired.clear();
      }
    }
    if (tel_.enabled()) {
      tel_.record(stage::watch_eval, tel_.now_ns() - g->watch_start_ns);
    }
    eg.release();  // quiescent before delivery (callbacks are user code)
    const std::uint64_t seq = g->watch_seq;
    recycle_read_group(*g);
    g.reset();
    watches_->deliver(seq, std::move(fired));
  }

  // Sorts one result row into its canonical order: k-NN by distance from
  // the query (coordinates lexicographic on ties), ranges lexicographic.
  // Shard merge order, rebalancing, and backend traversal order all churn
  // row order without changing content, and delta suppression must
  // compare content — an order-only difference must not re-fire a watch.
  void canonicalize_row(const request<D>& r,
                        std::vector<point<D>>& row) const {
    if (r.kind == op::knn) {
      const point<D>& q = r.p;
      std::sort(row.begin(), row.end(),
                [&](const point<D>& a, const point<D>& b) {
                  const double da = a.dist_sq(q);
                  const double db = b.dist_sq(q);
                  if (da != db) return da < db;
                  return a < b;
                });
    } else {
      std::sort(row.begin(), row.end());
    }
  }

  // ---- TTL expiry ---------------------------------------------------------

  // Retires points whose TTL elapsed: pops every due entry from the
  // arrival queue (deadline-ordered by construction), routes each under
  // the CURRENT stripes (rebalancing may have moved the point since it
  // arrived — owner_of at sweep time always finds it), and dispatches
  // the erases as an internal write group through the normal drain
  // machinery under a synthetic ticket (id 0, total 0: fulfilment skips
  // the completion bookkeeping, and the erases were never admitted
  // against the backpressure bound). Each expired arrival erases one
  // stored copy, so duplicate coordinates in one sweep retire together.
  // Drain-thread only.
  void maybe_expire() {
    if (cfg_.point_ttl_ns == 0) return;
    const std::uint64_t now = ttl_now_();
    std::vector<std::pair<std::uint64_t, point<D>>> due;
    {
      std::lock_guard<std::mutex> lk(ttl_mu_);
      while (!ttl_q_.empty() && ttl_q_.front().first <= now) {
        due.push_back(std::move(ttl_q_.front()));
        ttl_q_.pop_front();
      }
    }
    if (due.empty()) return;
    const std::uint64_t t0 = tel_.now_ns();
    std::vector<request<D>> erases;
    erases.reserve(due.size());
    for (const auto& e : due) {
      erases.push_back(request<D>::make_erase(e.second));
    }
    const std::size_t count = erases.size();
    begin_write_group();
    std::vector<pending_entry> group;
    group.push_back(pending_entry{/*id=*/0, std::move(erases), tel_.now_ns()});
    dispatch_shard_group(std::move(group), /*total=*/0, log_origin::expire);
    ctr_.expired_points.fetch_add(count, std::memory_order_relaxed);
    if (tel_.enabled()) tel_.record(stage::expire, tel_.now_ns() - t0);
    schedule_watch_eval();
  }

  // ---- fulfilment ---------------------------------------------------------

  // Completes every ticket of a finished group under one hub lock:
  // `result_for(e)` builds each ticket's result, the hub stores it (or
  // queues it for an armed callback), and the group's backpressure budget
  // (`total` requests) is released.
  // Returns the armed callbacks for fire_callbacks().
  template <class ResultFor>
  fire_list complete_tickets(const std::vector<pending_entry>& group,
                             std::size_t total, std::exception_ptr error,
                             ResultFor&& result_for) {
    fire_list fire;
    std::lock_guard<std::mutex> lk(hub_->mu);
    for (const auto& e : group) {
      ticket_result<D> tr = result_for(e);
      if (e.rec) hub_->fulfil_locked(e.rec, std::move(tr), error, fire);
    }
    in_flight_requests_.fetch_sub(total, std::memory_order_relaxed);
    space_cv_.notify_all();
    hub_->done_cv.notify_all();
    return fire;
  }

  // Runs completion callbacks outside every lock, in ticket order. A
  // throwing callback must not unwind a service thread (that would
  // std::terminate the process): it is swallowed; the ticket was
  // delivered.
  static void fire_callbacks(fire_list& fire, std::exception_ptr error) {
    for (auto& [fn, tr] : fire) {
      try {
        fn(std::move(tr), error);
      } catch (...) {
      }
    }
  }

  // Slices a drain group's combined result back into per-ticket results,
  // completes them, and updates stats.
  void fulfill_group(std::vector<pending_entry> group, std::size_t total,
                     std::vector<response<D>> responses,
                     std::exception_ptr error,
                     std::uint64_t snap_epoch, bool read_group, bool lagged,
                     double exec_seconds, std::uint64_t commit_epoch,
                     std::uint64_t trace_ticket) {
    // One fulfil stamp serves every ticket in the group: completion
    // latency is fulfil - submit on the telemetry clock (the same delta
    // reported as ticket_result::latency_seconds — folded, not parallel
    // bookkeeping).
    const std::uint64_t f0 = tel_.now_ns();
    std::size_t off = 0;
    const auto result_for = [&](const pending_entry& e) {
      ticket_result<D> tr;
      if (!error) {
        tr.responses.assign(
            std::make_move_iterator(responses.begin() + off),
            std::make_move_iterator(responses.begin() + off +
                                    e.batch.size()));
      }
      const std::uint64_t comp_ns = f0 - e.submit_ns;
      tr.latency_seconds = static_cast<double>(comp_ns) * 1e-9;
      // id 0 is the synthetic TTL-expiry ticket: no submitter, no
      // completion latency to speak of — keep it out of the histogram.
      if (tel_.enabled() && e.id != 0) {
        tel_.record(stage::completion, comp_ns);
        if (tel_.sampled(e.id)) {
          tel_.add_span("completion", tel_.completion_track(), e.submit_ns,
                        comp_ns, e.id);
        }
      }
      tr.snapshot_epoch = snap_epoch;
      tr.commit_epoch = commit_epoch;
      off += e.batch.size();
      return tr;
    };
    fire_list fire = complete_tickets(group, total, error, result_for);
    ctr_.num_drains.fetch_add(1, std::memory_order_relaxed);
    if (read_group) {
      ctr_.num_read_groups.fetch_add(1, std::memory_order_relaxed);
      if (lagged) {
        ctr_.snapshot_lag_drains.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      ctr_.num_write_groups.fetch_add(1, std::memory_order_relaxed);
    }
    ctr_.num_requests.fetch_add(total, std::memory_order_relaxed);
    ctr_.execute_ns.fetch_add(static_cast<std::uint64_t>(exec_seconds * 1e9),
                              std::memory_order_relaxed);
    if (tel_.enabled()) {
      // Result slicing + storage under the hub lock; callback bodies are
      // user code and excluded on purpose.
      const std::uint64_t f_ns = tel_.now_ns() - f0;
      tel_.record(stage::fulfil, f_ns);
      if (trace_ticket) {
        tel_.add_span("fulfil", tel_.fulfil_track(), f0, f_ns, trace_ticket);
      }
    }
    fire_callbacks(fire, error);
  }

  // Completes deadline-expired tickets without executing them: empty
  // responses, timed_out = true, no error (a shed batch is a completion
  // with a verdict, not a failure — callers inspect timed_out). Drain
  // thread.
  void shed_expired(std::vector<pending_entry> expired) {
    if (expired.empty()) return;
    const std::uint64_t f0 = tel_.now_ns();
    std::size_t total = 0;
    for (const auto& e : expired) total += e.batch.size();
    ctr_.deadline_expired.fetch_add(total, std::memory_order_relaxed);
    fire_list fire =
        complete_tickets(expired, total, nullptr, [&](const pending_entry& e) {
          ticket_result<D> tr;
          tr.timed_out = true;
          tr.latency_seconds = static_cast<double>(f0 - e.submit_ns) * 1e-9;
          return tr;
        });
    fire_callbacks(fire, nullptr);
  }

  // ---- submission ---------------------------------------------------------

  // Single-CAS admission against the backpressure bound: admit an empty
  // batch, an unbounded config, or an over-sized batch alone in an empty
  // pipeline (otherwise it could never be admitted).
  bool try_acquire_budget(std::size_t n) {
    if (n == 0 || cfg_.max_pending_requests == 0) {
      in_flight_requests_.fetch_add(n, std::memory_order_relaxed);
      return true;
    }
    std::size_t cur = in_flight_requests_.load(std::memory_order_relaxed);
    for (;;) {
      if (cur != 0 && cur + n > cfg_.max_pending_requests) return false;
      if (in_flight_requests_.compare_exchange_weak(
              cur, cur + n, std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  // Blocking admission: spin over try_acquire_budget, parking on space_cv_
  // between attempts. Returns false only when the service closes while
  // waiting. submit_waits counts blocking episodes, not park iterations.
  bool acquire_budget(std::size_t n) {
    if (try_acquire_budget(n)) return true;
    ctr_.submit_waits.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lk(hub_->mu);
    for (;;) {
      if (hub_->closed.load(std::memory_order_relaxed)) return false;
      if (try_acquire_budget(n)) return true;
      // Bounded wait: fulfill_group notifies space_cv_ under hub_->mu, but
      // the 1ms ceiling makes a lost wakeup a hiccup rather than a hang.
      space_cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
  }

  void release_budget(std::size_t n) {
    in_flight_requests_.fetch_sub(n, std::memory_order_relaxed);
    space_cv_.notify_all();
  }

  // Submit seam shared by submit / try_submit / submit_with_deadline.
  // Returns nullopt only for the non-blocking caller when admission or the
  // ring rejects; blocking callers always get a completion or an exception.
  std::optional<completion<D>> enqueue(std::vector<request<D>> batch,
                                       std::uint64_t deadline_rel_ns,
                                       bool blocking, const char* who) {
    if (blocking) {
      if (!acquire_budget(batch.size())) {
        throw std::runtime_error(std::string(who) +
                                 " on closed query_service");
      }
    } else {
      if (hub_->closed.load(std::memory_order_seq_cst)) {
        throw std::runtime_error(std::string(who) +
                                 " on closed query_service");
      }
      if (!try_acquire_budget(batch.size())) {
        ctr_.try_submit_rejects.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
    }
    const std::size_t n = batch.size();
    // Entrants window: the drain loop must not conclude "closed and ring
    // empty => done" while a producer is between the closed check and its
    // push. fetch_add is seq_cst so it orders against close()'s store.
    submit_entrants_.fetch_add(1, std::memory_order_seq_cst);
    if (hub_->closed.load(std::memory_order_seq_cst)) {
      submit_entrants_.fetch_sub(1, std::memory_order_seq_cst);
      release_budget(n);
      throw std::runtime_error(std::string(who) + " on closed query_service");
    }
    const std::uint64_t id =
        next_ticket_.fetch_add(1, std::memory_order_relaxed);
    auto rec = std::make_shared<typename detail::completion_hub<D>::record>();
    rec->id = id;
    const std::uint64_t now = tel_.now_ns();
    pending_entry e{id, std::move(batch), now};
    if (deadline_rel_ns > 0) e.deadline_ns = now + deadline_rel_ns;
    e.rec = rec;
    const auto st = blocking ? ring_.push(std::move(e)) : ring_.try_push(e);
    submit_entrants_.fetch_sub(1, std::memory_order_seq_cst);
    if (st == push_status::closed) {
      release_budget(n);
      throw std::runtime_error(std::string(who) + " on closed query_service");
    }
    if (st == push_status::full) {  // non-blocking only
      release_budget(n);
      ctr_.try_submit_rejects.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    ctr_.num_tickets.fetch_add(1, std::memory_order_relaxed);
    return completion<D>(hub_, std::move(rec));
  }

  // ---- sharded gather-merge -----------------------------------------------

  // Gather-merge into one response per request of `batch`, each stamped
  // with its request's kind: range rows concatenate; k-NN rows collect
  // candidates from every shard, then re-sort by distance and truncate to
  // k. `sub_idx` indexes `batch`; write acks stay empty.
  void merge_shard_reads(
      const std::vector<request<D>>& batch,
      const std::vector<std::vector<std::size_t>>& sub_idx,
      std::vector<std::vector<response<D>>>& shard_rows,
      std::vector<response<D>>& responses) const {
    responses.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      responses[i].kind = batch[i].kind;
    }
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      for (std::size_t j = 0; j < sub_idx[s].size(); ++j) {
        auto& dst = responses[sub_idx[s][j]].points;
        auto& src = shard_rows[s][j].points;
        if (dst.empty()) {
          dst = std::move(src);
        } else {
          dst.insert(dst.end(), src.begin(), src.end());
        }
      }
    }
    if (cfg_.shards == 1) return;  // single source: rows are already exact
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].kind != op::knn) continue;
      auto& row = responses[i].points;
      const point<D>& q = batch[i].p;
      std::stable_sort(row.begin(), row.end(),
                       [&](const point<D>& a, const point<D>& b) {
                         return a.dist_sq(q) < b.dist_sq(q);
                       });
      if (row.size() > batch[i].k) row.resize(batch[i].k);
    }
  }

  // ---- routing ------------------------------------------------------------

  // A point set's bounding box and the index of its first point with a
  // non-finite coordinate (pts.size() when there is none), from one pass:
  // on the workers above kdtree::kParallelSplitCutoff points, on the
  // calling thread below it (so a small first write group or rebalance
  // sample opens no OpenMP team on the drain thread).
  struct point_scan {
    aabb<D> box;
    std::size_t first_bad;
  };
  static point_scan scan_points(const std::vector<point<D>>& pts) {
    const auto scan = [&pts](std::size_t lo, std::size_t hi) {
      point_scan r{aabb<D>{}, pts.size()};
      for (std::size_t i = lo; i < hi; ++i) {
        bool finite = true;
        for (int d = 0; d < D; ++d) finite &= std::isfinite(pts[i][d]);
        if (!finite && r.first_bad == pts.size()) r.first_bad = i;
        r.box.extend(pts[i]);
      }
      return r;
    };
    if (pts.size() <= kdtree::kParallelSplitCutoff) return scan(0, pts.size());
    return par::fold_blocks(pts.size(), scan(0, 0), scan,
                            [](point_scan x, const point_scan& y) {
                              x.box.extend(y.box);
                              x.first_bad = std::min(x.first_bad, y.first_bad);
                              return x;
                            });
  }

  // The smallest coordinate `dim` of pts above v (+inf when none), from
  // one pass split like scan_points'.
  static double min_above(const std::vector<point<D>>& pts, int dim,
                          double v) {
    const auto scan = [&](std::size_t lo, std::size_t hi) {
      double m = std::numeric_limits<double>::infinity();
      for (std::size_t i = lo; i < hi; ++i) {
        const double c = pts[i][dim];
        if (c > v) m = std::min(m, c);
      }
      return m;
    };
    if (pts.size() <= kdtree::kParallelSplitCutoff) return scan(0, pts.size());
    return par::fold_blocks(pts.size(), scan(0, 0), scan,
                            [](double x, double y) { return std::min(x, y); });
  }

  // Quantile stripes along the widest dimension of `box`, the bounding box
  // of the finite points `pts`, carried by `g` (has_bounds stays false for
  // an empty set or a single shard): cut s-1 is the left edge of shard s,
  // so shard s owns [cuts[s-1], cuts[s]). Cut s is the coordinate of rank
  // (s+1)n/shards, selected (kdtree::order_statistic), not sorted for.
  // Duplicate coordinates would let naive quantile cuts collide into
  // zero-width stripes — shards that can never own a point while every
  // write funnels into one lane — so cuts are forced strictly increasing:
  // a cut that does not exceed the previous one (or the minimum) advances
  // to the smallest coordinate above it, and when the distinct values run
  // out the remaining cuts are +inf (those shards stay empty and range
  // pruning skips them, rather than one shard silently swallowing the
  // whole stream).
  void derive_stripes(const std::vector<point<D>>& pts, const aabb<D>& box,
                      log_group<D>& g) const {
    if (pts.empty() || cfg_.shards == 1) return;
    const std::size_t n = pts.size();
    const int dim = box.widest_dim();
    g.split_dim = dim;
    g.cuts.assign(cfg_.shards - 1, std::numeric_limits<double>::infinity());
    double prev = box.lo[dim];  // cuts must also exceed the min value
    for (std::size_t s = 0; s + 1 < cfg_.shards; ++s) {
      double cut = kdtree::order_statistic(pts.data(), n,
                                           (s + 1) * n / cfg_.shards, dim);
      if (!(cut > prev)) {
        cut = min_above(pts, dim, prev);
        if (std::isinf(cut)) break;  // no distinct value left: +inf tail
      }
      g.cuts[s] = cut;
      prev = cut;
    }
    g.has_bounds = true;
  }

  // Installs the stripes a group carries (none: a no-op). Only groups
  // that commit get here, so routing and pruning follow the log.
  void install_stripes(const log_group<D>& g) {
    if (!g.has_bounds) return;
    split_dim_ = g.split_dim;
    bounds_ = g.cuts;
    bounds_set_ = true;
  }

  // The stripe owning p under the cuts along `dim`: the number of cuts at
  // or below p[dim] (the cuts increase), counted without a branch. A
  // binary search mispredicts on about every point of a spread stream; on
  // 1M points split in two, the bootstrap's scatter took 2-3x as long.
  static std::size_t stripe_of(const point<D>& p, int dim,
                               const std::vector<double>& cuts) {
    std::size_t s = 0;
    for (const double c : cuts) s += p[dim] >= c;
    return s;
  }

  // Non-finite payload coordinates would break routing silently: every
  // stripe comparison on NaN is false, so owner_of/shard_serves would
  // dump the request into an arbitrary shard, and bit-distinct NaNs
  // defeat the canonicalization that routes equal points alike. Reject at
  // the front door instead.
  static void validate_batch(const std::vector<request<D>>& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& r = batch[i];
      bool ok = true;
      if (r.kind == op::range_box) {
        for (int d = 0; d < D; ++d) {
          ok = ok && std::isfinite(r.box.lo[d]) && std::isfinite(r.box.hi[d]);
        }
      } else {
        for (int d = 0; d < D; ++d) ok = ok && std::isfinite(r.p[d]);
        if (r.kind == op::range_ball) ok = ok && std::isfinite(r.radius);
      }
      if (!ok) {
        throw std::invalid_argument(
            "query_service: request " + std::to_string(i) + " (" +
            op_name(r.kind) + ") has a non-finite coordinate");
      }
    }
  }

  std::size_t owner_of(const point<D>& p) const {
    if (cfg_.shards == 1) return 0;
    if (cfg_.policy == shard_policy::spatial) {
      return bounds_set_ ? stripe_of(p, split_dim_, bounds_) : 0;
    }
    return hash_point(p) % cfg_.shards;
  }

  // True if shard s can hold points relevant to read request `r`. Hash
  // placement scatters reads everywhere; spatial stripes prune ranges whose
  // interval along split_dim_ misses the stripe.
  bool shard_serves(std::size_t s, const request<D>& r) const {
    if (cfg_.shards == 1) return s == 0;
    if (r.kind == op::knn) return true;
    if (cfg_.policy != shard_policy::spatial || !bounds_set_) return true;
    double lo, hi;
    if (r.kind == op::range_box) {
      lo = r.box.lo[split_dim_];
      hi = r.box.hi[split_dim_];
    } else {
      // Backends compare dist_sq <= radius^2, so a negative radius behaves
      // like its magnitude — prune with |radius| or the interval inverts.
      const double radius = std::abs(r.radius);
      lo = r.p[split_dim_] - radius;
      hi = r.p[split_dim_] + radius;
    }
    const bool left_ok = s == 0 || bounds_[s - 1] <= hi;
    const bool right_ok = s + 1 == cfg_.shards || bounds_[s] > lo;
    return left_ok && right_ok;
  }

  /// First sampled ticket in a drain group (0 = untraced): the group's
  /// spans carry one representative id so a sampled request's whole
  /// chain — queue_wait through fulfil — lands in the ring together.
  std::uint64_t pick_trace_ticket(
      const std::vector<pending_entry>& tickets) const {
    if (!tel_.tracing()) return 0;
    for (const auto& e : tickets) {
      if (tel_.sampled(e.id)) return e.id;
    }
    return 0;
  }

  // Canonical bit pattern of one point coordinate: -0.0 maps to 0.0 so
  // equal points (point::operator==) always share bits.
  static std::uint64_t canonical_coord_bits(double c) {
    const double coord = c == 0.0 ? 0.0 : c;
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(double));
    std::memcpy(&bits, &coord, sizeof(bits));
    return bits;
  }

  // FNV's 64-bit offset basis is 14695981039346656037; this one lacks
  // the last digit, and hash_point must keep it.
  static constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

  static std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
    return (h ^ v) * 1099511628211ull;
  }

  // FNV-1a over a point's canonical coordinate bits.
  static std::uint64_t point_fnv1a(const point<D>& p) {
    std::uint64_t h = kFnvOffset;
    for (int d = 0; d < D; ++d) h = fnv1a_mix(h, canonical_coord_bits(p[d]));
    return h;
  }

  // Hash routing: equal points (the routing key) always hash alike. Op
  // logs and checkpoints record which shard holds each point, so a
  // recovered service or a replica routes later writes to the right
  // shard only while this stays bit for bit the same.
  static std::size_t hash_point(const point<D>& p) {
    return static_cast<std::size_t>(point_fnv1a(p));
  }

  // Scalar service counters, each its own relaxed atomic: no tally takes
  // hub_->mu, and stats() assembles a service_stats from plain loads —
  // observability never contends with ingest. (Cross-field snapshots are
  // not atomic.)
  struct hot_counters {
    std::atomic<std::uint64_t> num_tickets{0};
    std::atomic<std::uint64_t> num_drains{0};
    std::atomic<std::uint64_t> num_requests{0};
    std::atomic<std::uint64_t> num_read_groups{0};
    std::atomic<std::uint64_t> num_write_groups{0};
    std::atomic<std::uint64_t> snapshot_lag_drains{0};
    std::atomic<std::uint64_t> submit_waits{0};
    std::atomic<std::uint64_t> try_submit_rejects{0};
    std::atomic<std::uint64_t> deadline_expired{0};
    std::atomic<std::uint64_t> expired_points{0};
    std::atomic<std::uint64_t> rebalances{0};
    std::atomic<std::uint64_t> rebalance_moved{0};
    std::atomic<std::uint64_t> replayed_groups{0};
    std::atomic<std::uint64_t> replayed_records{0};
    std::atomic<std::uint64_t> replay_errors{0};
    std::atomic<std::uint64_t> log_append_errors{0};
    std::atomic<std::uint64_t> checkpoints{0};
    std::atomic<std::uint64_t> checkpoint_errors{0};
    std::atomic<std::uint64_t> recovered_epochs{0};
    std::atomic<std::uint64_t> execute_ns{0};
  };

  service_config cfg_;
  /// Request-lifecycle telemetry hub (query/telemetry.h): all stage
  /// stamps, histograms, and the trace ring. Declared right after cfg_ —
  /// it is constructed from it and everything below may record into it.
  class telemetry tel_;
  /// Epoch-based snapshot reclamation (query/epoch_reclaim.h). Declared
  /// before shards_ on purpose: the shards hold a raw pointer to it
  /// (set_reclaimer) and their retire hooks may fire during index
  /// destruction, so the reclaimer must be destroyed after them.
  epoch_reclaimer reclaim_;
  std::vector<std::unique_ptr<spatial_index<D>>> shards_;
  /// Per-shard executor lanes, one worker thread each.
  std::vector<std::unique_ptr<shard_lane>> lanes_;

  // Spatial stripes, installed from the group that carries them
  // (install_stripes). Only touched by bootstrap, recovery or the drain
  // thread (lanes and read tasks receive routed sub-batches, never raw
  // bounds); with rebalance_threshold set they are re-derived at drain
  // boundaries by rebalance_stripes() — always with the lanes quiesced, so
  // every group routes AND executes under one consistent set of bounds.
  int split_dim_ = 0;
  std::vector<double> bounds_;
  bool bounds_set_ = false;
  // Rebalance trigger state (drain-thread only, like the bounds).
  std::vector<std::size_t> resident_est_;  // per-shard resident estimates
  std::size_t writes_since_rebalance_ = 0;
  bool rebalance_attempted_ = false;
  bool last_rebalance_futile_ = false;

  // Continuous queries (query/subscription.h). The registry is shared
  // with the handles (they stay valid after the service dies);
  // write_touched_ and affected_scratch_ are drain-thread scratch — the
  // per-group mask of shards a write group routed into, and the
  // collect_affected output buffer.
  std::shared_ptr<watch_registry<D>> watches_;
  std::vector<unsigned char> write_touched_;
  std::vector<std::pair<std::uint64_t, request<D>>> affected_scratch_;

  // TTL expiry. ttl_q_ holds (deadline, point) in nondecreasing deadline
  // order — one clock stamps the appends group by group, and a rebuild
  // clears the queue before refilling it — so the sweep only ever pops
  // the front. ttl_mu_ guards it (bootstrap runs off-thread).
  std::function<std::uint64_t()> ttl_now_;
  std::mutex ttl_mu_;
  std::deque<std::pair<std::uint64_t, point<D>>> ttl_q_;
  std::uint64_t ttl_batch_deadline_ = 0;  // drain-thread scratch

  // Ingest queue + completion state. The hub outlives the service for
  // late redemptions. Producers publish through ring_; pending_ is
  // drain-thread-local formation scratch (no lock). next_ticket_ /
  // in_flight_requests_ are atomics — submission never takes hub_->mu to
  // count.
  std::shared_ptr<detail::completion_hub<D>> hub_;
  std::condition_variable space_cv_;  // backpressure wakeup (hub_->mu)
  std::deque<pending_entry> pending_;
  std::atomic<std::uint64_t> next_ticket_{1};
  std::atomic<std::size_t> in_flight_requests_{0};  // admitted, not fulfilled
  hot_counters ctr_;
  // Lock-free ingest: bounded MPSC ring between producers and the drain
  // thread. submit_entrants_ counts producers between their closed-check
  // and push (the drain loop must not conclude "closed and empty => done"
  // across that window); replay_pending_ counts replica log groups parked
  // in replay_q_ so the drain knows to take hub_->mu and collect them.
  mpsc_ring<pending_entry> ring_;
  std::atomic<std::uint64_t> submit_entrants_{0};
  std::atomic<std::size_t> replay_pending_{0};

  // Routing scratch recycling pool.
  mutable std::mutex scratch_mu_;
  std::vector<std::vector<request<D>>> spare_req_;
  std::vector<std::vector<std::size_t>> spare_idx_;
  std::size_t scratch_reuses_ = 0;
  std::size_t scratch_allocs_ = 0;

  // Snapshot-read executor pool.
  std::mutex read_mu_;
  std::condition_variable read_cv_;
  std::deque<std::shared_ptr<read_group>> read_q_;
  bool read_shutdown_ = false;

  // Replication (query/oplog.h). log_ is attached before traffic and
  // appended to only by the drain thread (plus bootstrap, pre-traffic) —
  // log order is commit order. Replica side: replay_q_ (hub_->mu) feeds
  // the drain thread log groups in epoch order, applied_epoch_ is the
  // replay position routers gate reads on.
  std::shared_ptr<op_log<D>> log_;
  std::deque<log_group<D>> replay_q_;
  // Appender scratch: latched once a durable append fails (later groups
  // fail fast; reads keep serving). Drain-thread: the write-group counter
  // that paces maybe_checkpoint().
  bool log_failed_ = false;
  std::size_t write_groups_since_ck_ = 0;
  std::atomic<std::uint64_t> applied_epoch_{0};
  // wait_replay_drained() barrier: groups handed to apply_replayed vs
  // groups the drain thread finished processing (dispatch-complete).
  std::atomic<std::uint64_t> replay_enqueued_{0};
  std::atomic<std::uint64_t> replay_done_{0};

  std::mutex close_mu_;
  bool threads_joined_ = false;
  std::thread drainer_;
  std::array<std::thread, kReadThreads> readers_;
};

// The common dimensions are instantiated once in query_service.cpp.
extern template class query_service<2>;
extern template class query_service<3>;

}  // namespace pargeo::query
