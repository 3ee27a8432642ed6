// Request-lifecycle telemetry for the query service (query subsystem).
//
// The serving pipeline in query_service.h moves every request through the
// same stages — submit, ingest-queue wait, routing, lane queue wait,
// execution (write-apply vs snapshot-read), gather-merge, fulfilment —
// and until this layer existed the only numbers that came out were
// closed-loop throughput aggregates. This header is the measurement
// substrate: it decomposes latency by stage and by shard, cheaply enough
// to leave on in production, and captures sampled full-fidelity span
// chains for offline inspection.
//
//   *Stage timers*. All stamps come from one monotonic nanosecond clock
//   (`monotonic_ns()`, steady_clock — never wall time), relative to the
//   telemetry hub's construction. The service stamps group/request
//   boundaries and records stage durations; the same nanosecond delta
//   that feeds a histogram also feeds the legacy seconds counters
//   (`execute_seconds` et al.), so the two can never disagree.
//
//   *Histograms*. `latency_histogram` is HDR-style log-bucketed: 2
//   buckets per octave from 100 ns to ~10 s (56 buckets total, first =
//   underflow, last = overflow), so any recorded duration lands within
//   ~√2 of its bucket's reported value while the whole histogram is a
//   few hundred bytes. Histograms merge exactly (bucket-wise addition —
//   associative and commutative, unit-tested), which is what lets
//   per-lane recorders stay lock-free: each lane owns an
//   `atomic_latency_histogram` per stage (relaxed atomic increments — no
//   locks, no CAS loops on the hot path except the max tracker) and
//   readers merge relaxed snapshots on demand. Percentiles are
//   nearest-rank over buckets, reported as the bucket's upper edge
//   clamped to the exact observed max (a single-sample histogram reports
//   the sample itself).
//
//   *Trace spans*. At `telemetry_level::trace`, a 1-in-N ticket sampler
//   (deterministic on the ticket id) promotes whole drain groups to
//   traced: every stage they pass through appends a span (name, track,
//   start, duration, ticket, shard) to a fixed-capacity ring (oldest
//   overwritten; the ring mutex is only ever touched for sampled groups,
//   never on the common path). `write_trace()` emits Chrome
//   `chrome://tracing` / Perfetto-compatible JSON: one track per shard
//   lane plus tracks for the drain thread, the snapshot readers, the
//   merge/fulfil tail, and the per-ticket end-to-end completion bars.
//
//   *Export*. `telemetry_report` (merged histograms, per stage and per
//   shard) rides along in `service_stats::telemetry`; `latency_summary`
//   condenses a histogram to count/p50/p95/p99/p999/max for tables and
//   JSON; query_service.h builds a Prometheus text exposition from the
//   same report.
//
// Everything here is backend- and dimension-agnostic: no query headers
// are included, so query_service.h can build on it without cycles.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace pargeo::query {

/// How much the service measures. `stats` keeps the stage/shard
/// histograms (cheap: a handful of clock reads and relaxed atomic adds
/// per drain group — leave it on); `trace` additionally records sampled
/// span chains into the trace ring; `off` skips all of it (the
/// measurable-overhead baseline).
enum class telemetry_level { off, stats, trace };

inline const char* telemetry_level_name(telemetry_level l) {
  switch (l) {
    case telemetry_level::off: return "off";
    case telemetry_level::stats: return "stats";
    case telemetry_level::trace: return "trace";
  }
  return "?";
}

inline telemetry_level telemetry_level_from_string(const std::string& s) {
  if (s == "off") return telemetry_level::off;
  if (s == "stats") return telemetry_level::stats;
  if (s == "trace") return telemetry_level::trace;
  throw std::invalid_argument("unknown telemetry level '" + s +
                              "' (want off|stats|trace)");
}

/// The request-lifecycle stages the service attributes latency to.
/// Per-ticket stages: queue_wait (submit -> ingest dequeue) and
/// completion (submit -> fulfilled, i.e. end-to-end including every
/// queue). Per-group stages: route, merge, fulfil. Per-shard stages:
/// lane_wait (lane enqueue -> dequeue), execute_write (write/mixed
/// sub-batch on a lane, live index), execute_read (read-only slice on a
/// snapshot). Continuous-query stages: watch_eval (one watch group's
/// re-evaluation against the post-drain snapshots, i.e. the fire
/// latency), expire (one TTL sweep on the drain thread, including the
/// batch_erase dispatch). Replication stages: replicate (serializing one
/// committed write group into the op log, on the primary's drain
/// thread), replay (one log group's application on a replica: dispatch
/// until the last lane finished re-executing the recorded backend
/// calls). `reclaim` records nothing: a superseded tree dies with its
/// last owner, with no reclaim pass to time. The enumerator remains
/// because the repository benchmark (perfbench/) spells it.
enum class stage : std::uint8_t {
  queue_wait,
  route,
  lane_wait,
  execute_write,
  execute_read,
  merge,
  fulfil,
  completion,
  watch_eval,
  expire,
  replicate,
  replay,
  reclaim,
};

inline constexpr std::size_t kNumStages = 13;

inline constexpr std::size_t stage_index(stage s) {
  return static_cast<std::size_t>(s);
}

inline const char* stage_name(stage s) {
  switch (s) {
    case stage::queue_wait: return "queue_wait";
    case stage::route: return "route";
    case stage::lane_wait: return "lane_wait";
    case stage::execute_write: return "execute_write";
    case stage::execute_read: return "execute_read";
    case stage::merge: return "merge";
    case stage::fulfil: return "fulfil";
    case stage::completion: return "completion";
    case stage::watch_eval: return "watch_eval";
    case stage::expire: return "expire";
    case stage::replicate: return "replicate";
    case stage::replay: return "replay";
    case stage::reclaim: return "reclaim";
  }
  return "?";
}

/// Nanoseconds on the process-wide monotonic clock (steady_clock). THE
/// clock for every latency number in the query subsystem — wall-clock
/// (system_clock) must never enter latency math, it steps under NTP.
inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Condensed histogram view for tables and JSON rows (all values ns).
struct latency_summary {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t max = 0;
  double sum_seconds = 0;
};

/// HDR-style log-bucketed latency histogram: 2 buckets per octave from
/// 100 ns up (bucket 0 holds [0, 100ns), the last bucket overflows to
/// +inf, ~10 s falls in the final octaves). Plain integers — this is the
/// merge/report representation; live recording goes through
/// `atomic_latency_histogram`. Merging is exact bucket-wise addition.
class latency_histogram {
 public:
  static constexpr int kBuckets = 56;

  /// Lower edge (inclusive) of bucket `b`, in ns. bucket_lower(0) == 0,
  /// bucket_lower(1) == 100; successive edges grow by ~sqrt(2).
  static std::uint64_t bucket_lower(int b) { return lowers()[b]; }

  /// Upper edge (exclusive) of bucket `b`; +inf for the last bucket.
  static std::uint64_t bucket_upper(int b) {
    return b + 1 < kBuckets ? lowers()[b + 1]
                            : std::numeric_limits<std::uint64_t>::max();
  }

  /// Index of the bucket holding a duration of `ns` nanoseconds.
  static int bucket_index(std::uint64_t ns) {
    if (ns < 100) return 0;
    const std::uint64_t x = ns / 100;  // >= 1
    int log2i = 0;
    for (std::uint64_t v = x; v > 1; v >>= 1) ++log2i;
    int idx = 1 + 2 * log2i;  // lowers()[1 + 2*o] == 100 * 2^o <= ns
    if (idx + 1 < kBuckets && ns >= lowers()[idx + 1]) ++idx;
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  void record(std::uint64_t ns) {
    ++counts_[bucket_index(ns)];
    ++count_;
    sum_ns_ += ns;
    max_ns_ = std::max(max_ns_, ns);
  }

  void merge(const latency_histogram& o) {
    for (int b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    count_ += o.count_;
    sum_ns_ += o.sum_ns_;
    max_ns_ = std::max(max_ns_, o.max_ns_);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum_ns() const { return sum_ns_; }
  std::uint64_t max_ns() const { return max_ns_; }
  std::uint64_t bucket_count(int b) const { return counts_[b]; }

  /// Nearest-rank percentile (p in [0, 100]) in ns: the upper edge of
  /// the bucket holding the rank, clamped to the exact observed max —
  /// so a single-sample histogram reports the sample itself, and no
  /// percentile ever exceeds max_ns(). Empty histograms report 0.
  std::uint64_t percentile_ns(double p) const {
    if (count_ == 0) return 0;
    const double clamped = std::min(100.0, std::max(0.0, p));
    std::uint64_t rank = static_cast<std::uint64_t>(
        clamped / 100.0 * static_cast<double>(count_) + 0.9999999);
    if (rank == 0) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      cum += counts_[b];
      if (cum >= rank) {
        const std::uint64_t upper = bucket_upper(b);
        return std::min(upper == 0 ? 0 : upper - 1, max_ns_);
      }
    }
    return max_ns_;
  }

  /// Bulk-loads `n` samples into bucket `b` without touching the
  /// aggregate fields — the reconstruction half of
  /// atomic_latency_histogram::snapshot(), which supplies the exact
  /// aggregates via set_aggregates() afterwards.
  void add_bucket(int b, std::uint64_t n) {
    counts_[b] += n;
    count_ += n;
  }

  /// Overwrites the aggregate fields with exactly-recorded values (see
  /// add_bucket). `count` may trail the bucket total by in-flight
  /// relaxed recordings; keep the larger so count() never understates
  /// the bucket mass percentile walks over.
  void set_aggregates(std::uint64_t count, std::uint64_t sum,
                      std::uint64_t max) {
    count_ = std::max(count_, count);
    sum_ns_ = sum;
    max_ns_ = max;
  }

  latency_summary summary() const {
    latency_summary s;
    s.count = count_;
    s.p50 = percentile_ns(50);
    s.p95 = percentile_ns(95);
    s.p99 = percentile_ns(99);
    s.p999 = percentile_ns(99.9);
    s.max = max_ns_;
    s.sum_seconds = static_cast<double>(sum_ns_) * 1e-9;
    return s;
  }

 private:
  static const std::array<std::uint64_t, kBuckets>& lowers() {
    static const std::array<std::uint64_t, kBuckets> table = [] {
      std::array<std::uint64_t, kBuckets> t{};
      t[0] = 0;
      for (int i = 1; i < kBuckets; ++i) {
        // 100 * 2^((i-1)/2): exact powers of two on even steps, the
        // sqrt(2) midpoints between them.
        const int o = (i - 1) / 2;
        const std::uint64_t base = std::uint64_t{100} << o;
        t[i] = (i - 1) % 2 == 0
                   ? base
                   : static_cast<std::uint64_t>(
                         static_cast<double>(base) * 1.41421356237309515 +
                         0.5);
      }
      return t;
    }();
    return table;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

/// Lock-free recording twin of latency_histogram: relaxed atomic bucket
/// counters, one instance per (recorder, stage). Writers never block or
/// spin (the max tracker is the only CAS loop and almost never retries);
/// readers take relaxed snapshots — counts observed mid-record may lag
/// by the in-flight sample, which merged reporting tolerates by design.
class atomic_latency_histogram {
 public:
  void record(std::uint64_t ns) {
    counts_[latency_histogram::bucket_index(ns)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t prev = max_ns_.load(std::memory_order_relaxed);
    while (prev < ns && !max_ns_.compare_exchange_weak(
                            prev, ns, std::memory_order_relaxed)) {
    }
  }

  latency_histogram snapshot() const {
    latency_histogram h;
    for (int b = 0; b < latency_histogram::kBuckets; ++b) {
      h.add_bucket(b, counts_[b].load(std::memory_order_relaxed));
    }
    h.set_aggregates(count_.load(std::memory_order_relaxed),
                     sum_ns_.load(std::memory_order_relaxed),
                     max_ns_.load(std::memory_order_relaxed));
    return h;
  }

 private:
  std::array<std::atomic<std::uint64_t>, latency_histogram::kBuckets>
      counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// One recorded span: a named stage occurrence on a track, in ns
/// relative to the telemetry hub's construction.
struct trace_span {
  const char* name = "";
  std::uint32_t track = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t ticket = 0;  // representative ticket id (0 = none)
  std::int32_t shard = -1;   // -1 = not shard-specific
};

/// Merged histogram view of everything a telemetry hub has recorded:
/// `stages[i]` aggregates stage i across every recorder; `shards[s]`
/// holds shard s's lane-local stages (lane_wait / execute_write /
/// execute_read; the other slots stay empty). Mergeable across services
/// and bench runs — bucket-wise, exact.
struct telemetry_report {
  telemetry_level level = telemetry_level::off;
  std::array<latency_histogram, kNumStages> stages;
  std::vector<std::array<latency_histogram, kNumStages>> shards;

  const latency_histogram& stage_hist(stage s) const {
    return stages[stage_index(s)];
  }

  void merge(const telemetry_report& o) {
    if (o.level > level) level = o.level;
    for (std::size_t i = 0; i < kNumStages; ++i) {
      stages[i].merge(o.stages[i]);
    }
    if (o.shards.size() > shards.size()) shards.resize(o.shards.size());
    for (std::size_t s = 0; s < o.shards.size(); ++s) {
      for (std::size_t i = 0; i < kNumStages; ++i) {
        shards[s][i].merge(o.shards[s][i]);
      }
    }
  }
};

/// The per-service telemetry hub. Owns one lock-free stage recorder for
/// service-wide stages plus one per shard lane, the trace sampler, and
/// the span ring. All `record*` calls are safe from any thread; `report`
/// and the trace accessors are safe concurrently with recording.
class telemetry {
 public:
  telemetry(telemetry_level level, std::size_t shards,
            std::size_t trace_sample, std::size_t trace_capacity)
      : level_(level),
        epoch_ns_(monotonic_ns()),
        trace_sample_(trace_sample == 0 ? 1 : trace_sample),
        num_shards_(shards),
        service_(std::make_unique<recorder>()) {
    shard_recorders_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      shard_recorders_.push_back(std::make_unique<recorder>());
    }
    if (level_ == telemetry_level::trace) {
      ring_.resize(trace_capacity == 0 ? 1 : trace_capacity);
    }
  }

  telemetry(const telemetry&) = delete;
  telemetry& operator=(const telemetry&) = delete;

  telemetry_level level() const { return level_; }
  bool enabled() const { return level_ != telemetry_level::off; }
  bool tracing() const { return level_ == telemetry_level::trace; }

  /// Monotonic ns since this hub was constructed (the service's time
  /// base for stamps and trace timestamps).
  std::uint64_t now_ns() const { return monotonic_ns() - epoch_ns_; }

  /// Records a service-wide stage duration (queue_wait, route, merge,
  /// fulfil, completion — and execute_* under the single-drainer mode,
  /// which has no lanes). Relaxed atomics; callable from any thread.
  void record(stage st, std::uint64_t ns) {
    service_->h[stage_index(st)].record(ns);
  }

  /// Records a shard-local stage duration (lane_wait / execute_write /
  /// execute_read) into shard s's recorder.
  void record_shard(std::size_t s, stage st, std::uint64_t ns) {
    shard_recorders_[s]->h[stage_index(st)].record(ns);
  }

  /// Deterministic 1-in-N ticket sampler (ids are dense, so this is an
  /// exact 1/N rate). Only ever true at trace level.
  bool sampled(std::uint64_t ticket_id) const {
    return tracing() && ticket_id % trace_sample_ == 0;
  }

  // Track layout for the trace: one per shard lane plus dedicated
  // tracks for the drain thread, the snapshot-reader pool, the
  // merge/fulfil tail, and per-ticket end-to-end completion bars.
  std::uint32_t drain_track() const { return 0; }
  std::uint32_t lane_track(std::size_t s) const {
    return static_cast<std::uint32_t>(1 + s);
  }
  std::uint32_t reader_track() const {
    return static_cast<std::uint32_t>(1 + num_shards_);
  }
  std::uint32_t fulfil_track() const {
    return static_cast<std::uint32_t>(2 + num_shards_);
  }
  std::uint32_t completion_track() const {
    return static_cast<std::uint32_t>(3 + num_shards_);
  }

  /// Appends a span to the ring (oldest overwritten past capacity).
  /// Callers gate on a sampled ticket, so the ring mutex never appears
  /// on the unsampled path.
  void add_span(const char* name, std::uint32_t track, std::uint64_t ts_ns,
                std::uint64_t dur_ns, std::uint64_t ticket,
                std::int32_t shard = -1) {
    if (!tracing()) return;
    std::lock_guard<std::mutex> lk(trace_mu_);
    ring_[ring_head_] = trace_span{name, track, ts_ns, dur_ns, ticket, shard};
    ring_head_ = (ring_head_ + 1) % ring_.size();
    if (ring_size_ < ring_.size()) ++ring_size_;
    ++spans_total_;
  }

  /// Spans currently resident in the ring, oldest first.
  std::vector<trace_span> spans() const {
    std::lock_guard<std::mutex> lk(trace_mu_);
    std::vector<trace_span> out;
    out.reserve(ring_size_);
    // Index only inside the loop: below trace level ring_ is empty.
    for (std::size_t i = 0; i < ring_size_; ++i) {
      out.push_back(ring_[(ring_head_ + ring_.size() - ring_size_ + i) %
                          ring_.size()]);
    }
    return out;
  }

  std::uint64_t spans_recorded() const {
    std::lock_guard<std::mutex> lk(trace_mu_);
    return spans_total_;
  }

  /// Merged histograms: service-wide stages aggregate every recorder
  /// (so stages[execute_write] includes all lanes), shards[] keep the
  /// per-lane split.
  telemetry_report report() const {
    telemetry_report r;
    r.level = level_;
    for (std::size_t i = 0; i < kNumStages; ++i) {
      r.stages[i] = service_->h[i].snapshot();
    }
    r.shards.resize(shard_recorders_.size());
    for (std::size_t s = 0; s < shard_recorders_.size(); ++s) {
      for (std::size_t i = 0; i < kNumStages; ++i) {
        r.shards[s][i] = shard_recorders_[s]->h[i].snapshot();
        r.stages[i].merge(r.shards[s][i]);
      }
    }
    return r;
  }

  /// Writes the ring as Chrome trace-event JSON (load in
  /// chrome://tracing or https://ui.perfetto.dev). Timestamps in µs on
  /// the hub's time base; `M` metadata events name the tracks.
  void write_trace(std::ostream& os) const {
    const auto all = spans();
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto emit_meta = [&](std::uint32_t tid, const std::string& name) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"args\":{\"name\":\"" << name << "\"}}";
    };
    emit_meta(drain_track(), "drain");
    for (std::size_t s = 0; s < num_shards_; ++s) {
      emit_meta(lane_track(s), "lane_" + std::to_string(s));
    }
    emit_meta(reader_track(), "snapshot_readers");
    emit_meta(fulfil_track(), "merge_fulfil");
    emit_meta(completion_track(), "completion");
    char buf[256];
    for (const auto& sp : all) {
      if (!first) os << ",";
      first = false;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"ticket\":%llu,"
                    "\"shard\":%d}}",
                    sp.name, sp.track,
                    static_cast<double>(sp.ts_ns) / 1e3,
                    static_cast<double>(sp.dur_ns) / 1e3,
                    static_cast<unsigned long long>(sp.ticket), sp.shard);
      os << buf;
    }
    os << "]}\n";
  }

  /// write_trace() to a file; false (with no file) when tracing is off,
  /// throws std::runtime_error when the path cannot be opened.
  bool write_trace_file(const std::string& path) const {
    if (!tracing()) return false;
    std::ofstream os(path);
    if (!os) {
      throw std::runtime_error("telemetry: cannot open trace file '" + path +
                               "'");
    }
    write_trace(os);
    return true;
  }

 private:
  struct recorder {
    std::array<atomic_latency_histogram, kNumStages> h;
  };

  const telemetry_level level_;
  const std::uint64_t epoch_ns_;
  const std::uint64_t trace_sample_;
  const std::size_t num_shards_;

  std::unique_ptr<recorder> service_;
  std::vector<std::unique_ptr<recorder>> shard_recorders_;

  mutable std::mutex trace_mu_;
  std::vector<trace_span> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::uint64_t spans_total_ = 0;
};

}  // namespace pargeo::query
