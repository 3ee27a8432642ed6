// The repository benchmark: one process runs one workload for one seed and
// prints every metric by name with its unit, then one JSON result line.
//
//   perfbench --workload serve_point|serve_bulk --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--git-sha SHA] [--git-dirty 0|1]
//             [--src-digest HEX]
//
// Each workload has two phases that share nothing but the process:
//
//   serving  the query service (src/query) under one client pattern, for
//            --seconds. serve_point: an open-loop Poisson stream of single-request
//            tickets at kPointRate req/s, redeemed with on_complete, on
//            bdltree x 2 hash shards; latency runs from each request's due
//            time. serve_bulk: one closed-loop client keeping <= 4
//            tickets of 256 churn requests outstanding, on bdltree x 2
//            spatial shards with the durable op log (sync_policy::none).
//   kernels  the paper's kernels on fixed seeded inputs at nproc threads,
//            a fixed number of passes after a warm-up pass; serve_point uses the uniform / in-sphere / on-sphere inputs,
//            serve_bulk the clustered / on-sphere / in-sphere ones, so the
//            hull and SEB kernels see both small and large outputs.
//
// Every run checks its outputs: sampled service responses against a bare
// single-index replay of the same ordered stream, hulls against the
// sequential quickhull, the SEB radius against sequential Welzl, sampled
// k-NN rows against brute force, and the EMST against its 1-thread run.
//
// With --trace 0 the result line carries the end-to-end metrics. With
// --trace 1 the run also times each layer from outside: benchmark-side
// spans around submit() and every backend call of a replay, the service's
// own stats() / telemetry counters, getrusage, and 1-thread kernel runs;
// the result line then carries the per-layer metrics.
#include <omp.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bdltree/bdl_tree.h"
#include "datagen/datagen.h"
#include "emst/emst.h"
#include "hull/hull2d.h"
#include "hull/hull3d.h"
#include "kdtree/kdtree.h"
#include "query/query_service.h"
#include "query/spatial_index.h"
#include "query/workload.h"
#include "seb/seb.h"
#include "stats.h"

namespace {

using namespace pargeo;
using query::op;
using query::request;
using P2 = point<2>;
using P3 = point<3>;

// ---- frozen workload parameters --------------------------------------------
// Changing any of these changes what the benchmark measures; a change that
// claims a gain must not touch them.

constexpr std::size_t kInitialPoints = 1'000'000;  // resident set, > L2
constexpr double kPointRate = 1000;        // serve_point offered req/s
constexpr double kPointReadFrac = 0.9;     // 70/15/15 knn/box/ball reads
constexpr std::size_t kBulkTicket = 256;   // serve_bulk requests per ticket
constexpr std::size_t kBulkOutstanding = 4;
constexpr double kBulkRateCap = 150'000;   // stream length = cap x seconds
constexpr double kChurnArrival = 0.25;
constexpr double kChurnDeparture = 0.25;
constexpr std::size_t kSetupReps = 3;       // setup_s is their median
// Kernel times are the median over kKernelPasses passes; the first pass
// also pays first-touch page faults, which the median discards. Passes stop
// early past kKernelBudgetS, so a starved host still ends the run in time.
constexpr std::size_t kKernelPasses = 3;
constexpr double kKernelBudgetS = 60;
// A run still going after this long is stuck (see watchdog).
constexpr double kDeadlineS = 160;
constexpr std::size_t kOracleStride = 97;   // every 97th request is checked
// Throughput is the median over 1-s windows, so one stall moves one window.
constexpr std::uint64_t kWindowNs = 1'000'000'000;

// Offered-rate ladder for serve.max_rate_rps (traced serve_point runs).
constexpr double kLadderRates[] = {2000, 4000, 6000, 8000, 12000, 16000};
constexpr double kLadderSeconds = 2.0;
constexpr double kLadderP99LimitMs = 20.0;

// Kernel input sizes.
constexpr std::size_t kKdPoints = 1'000'000;
constexpr std::size_t kKnnQueries = 250'000;
constexpr std::size_t kKnnK = 8;
constexpr std::size_t kBdlBatches = 10;
constexpr std::size_t kHullPoints = 500'000;
constexpr std::size_t kSebPoints = 8'000'000;
constexpr std::size_t kEmstPoints = 200'000;
constexpr std::size_t kKnnChecks = 32;

const char* const kKernels[] = {"kdtree_build", "kdtree_knn", "bdl_insert",
                                "bdl_erase",    "bdl_knn",    "hull2d",
                                "hull3d",       "hull3d_dc",  "seb",
                                "emst"};

std::uint64_t now_ns() { return query::monotonic_ns(); }

double secs_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// ---- metric registry ---------------------------------------------------------

struct metric_def {
  std::string name;
  std::string unit;
};

// The end-to-end kernel metrics are sums of per-kernel medians over the
// two families of the paper's modules: one kernel alone swung 10-40% from
// run to run on a shared 4-core host, while each sum stayed within ~8%.
// Every kernel's own time is the per-layer <kernel>.tn_s.
const char* const kTreeKernels[] = {"kdtree_build", "kdtree_knn", "bdl_insert",
                                    "bdl_erase", "bdl_knn"};
const char* const kGeometryKernels[] = {"hull2d", "hull3d", "hull3d_dc", "seb",
                                        "emst"};

// The serving pass's p50 and throughput are per-layer (serve.*): on a
// shared 4-core host they swung 15-50% (IQR/median over 10 seeds), and a
// bounded metric must repeat within its bound.
std::vector<metric_def> e2e_metrics() {
  return {{"setup_s", "s"}, {"trees_s", "s"}, {"geometry_s", "s"}};
}

std::vector<metric_def> layer_metrics() {
  std::vector<metric_def> m = {
      {"ingest.submit_p50_us", "us"},     {"ingest.submit_p99_us", "us"},
      {"ingest.spins", "count"},          {"ingest.submit_waits", "count"},
      {"drain.groups_read", "count"},     {"drain.groups_write", "count"},
      {"drain.reqs_per_group", "req/group"},
      {"drain.queue_wait_p50_us", "us"},  {"drain.queue_wait_p99_us", "us"},
      {"drain.route_p50_us", "us"},       {"lanes.lane_wait_p50_us", "us"},
      {"lanes.lane_wait_p99_us", "us"},   {"lanes.execute_write_p50_us", "us"},
      {"lanes.execute_write_p99_us", "us"},
      {"lanes.busy_s", "s"},              {"lanes.max_queue_depth", "count"},
      {"lanes.imbalance", "ratio"},       {"read.execute_read_p50_us", "us"},
      {"read.execute_read_p99_us", "us"}, {"read.merge_p99_us", "us"},
      {"read.fulfil_p99_us", "us"},       {"read.snapshot_lag_drains", "count"},
      {"cache.hit_rate", "ratio"},        {"cache.evictions", "count"},
      {"reclaim.retired", "count"},       {"reclaim.freed", "count"},
      {"reclaim.stalls", "count"},        {"reclaim.p99_us", "us"},
      {"oplog.append_p99_us", "us"},      {"oplog.bytes_per_write", "B"},
      {"oplog.syncs", "count"},           {"backend.knn_us", "us"},
      {"backend.range_us", "us"},         {"backend.ball_us", "us"},
      {"backend.insert_us", "us"},        {"backend.erase_us", "us"},
      {"backend.snapshot_us", "us"},      {"backend.share", "ratio"},
      {"proc.cpu_s_per_kreq", "s"},       {"proc.ctx_switches_per_kreq", "count"},
      {"proc.rss_mb", "MB"},              {"gen.late_p99_ms", "ms"},
      {"gen.late_max_ms", "ms"},          {"serve.max_rate_rps", "1/s"},
      {"serve.p50_ms", "ms"},             {"serve.p99_ms", "ms"},
      {"serve.throughput_rps", "1/s"},
      {"trace.overhead", "ratio"}};
  for (const char* k : kKernels) {
    m.push_back({std::string(k) + ".tn_s", "s"});
    m.push_back({std::string(k) + ".t1_s", "s"});
    m.push_back({std::string(k) + ".speedup", "ratio"});
  }
  const std::vector<metric_def> extra = {
      {"hull2d.seq_s", "s"},           {"hull3d.seq_s", "s"},
      {"hull3d.vs_seq", "ratio"},      {"hull3d.points_touched", "count"},
      {"hull3d.facets_touched", "count"}, {"seb.scan_fraction", "ratio"},
      {"seb.welzl_s", "s"},            {"seb.seq_s", "s"},
      {"bdl.static_trees", "count"},   {"bdl.knn_vs_static", "ratio"}};
  m.insert(m.end(), extra.begin(), extra.end());
  return m;
}

struct run_state {
  std::map<std::string, double> values;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void set(const std::string& name, double v) { values[name] = v; }
  void fail(std::size_t n, const std::string& why) {
    failed += n;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  }
};

// ---- options -----------------------------------------------------------------

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  std::string src_digest = "unknown";
};

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--work-dir") o.work_dir = v;
    else if (a == "--git-sha") o.git_sha = v;
    else if (a == "--git-dirty") o.git_dirty = v;
    else if (a == "--src-digest") o.src_digest = v;
    else throw std::invalid_argument("unknown option " + a);
  }
  if (o.workload != "serve_point" && o.workload != "serve_bulk") {
    throw std::invalid_argument("--workload must be serve_point|serve_bulk");
  }
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

bool is_point(const options& o) { return o.workload == "serve_point"; }

// ---- serving phase -------------------------------------------------------------

/// Everything a serving pass needs, built by one timed set-up.
struct serve_setup {
  std::vector<P2> initial;
  std::vector<request<2>> reqs;
  std::vector<std::uint64_t> due;  // serve_point only
  std::string wal_dir;             // serve_bulk only
  std::unique_ptr<query::query_service<2>> svc;

  ~serve_setup() {
    svc.reset();  // close() joins the service threads before the WAL goes
    if (!wal_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wal_dir, ec);
    }
  }
};

query::service_config service_config_for(const options& o,
                                         const std::string& wal_dir) {
  query::service_config cfg;  // every knob not named here stays default
  cfg.backend = query::backend::bdltree;
  cfg.shards = 2;
  if (is_point(o)) {
    cfg.policy = query::shard_policy::hash;
  } else {
    cfg.policy = query::shard_policy::spatial;
    cfg.log_dir = wal_dir;
    cfg.sync = query::sync_policy::none;
  }
  return cfg;
}

std::unique_ptr<serve_setup> make_serve_setup(const options& o,
                                              double serve_seconds, int rep) {
  auto s = std::make_unique<serve_setup>();
  query::workload_spec spec;
  if (is_point(o)) {
    s->due = perfbench::poisson_schedule(o.seed, kPointRate,
                                         serve_seconds);
    spec = query::make_read_write_spec(kInitialPoints, s->due.size(),
                                       kPointReadFrac);
  } else {
    const auto n = static_cast<std::size_t>(kBulkRateCap * serve_seconds);
    spec = query::make_churn_spec(kInitialPoints, n, kChurnArrival,
                                  kChurnDeparture);
    s->wal_dir = o.work_dir + "/wal-" + std::to_string(::getpid()) + "-" +
                 std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(s->wal_dir, ec);
  }
  spec.seed = o.seed;
  s->initial = query::make_initial<2>(spec);
  s->reqs = query::make_requests<2>(spec, s->initial);
  s->svc = std::make_unique<query::query_service<2>>(
      service_config_for(o, s->wal_dir));
  s->svc->bootstrap(s->initial);
  return s;
}

/// What one serving pass observed.
struct serve_result {
  std::size_t submitted = 0;  // requests handed to submit()
  std::size_t failed = 0;     // threw, timed out, or refused
  std::vector<double> latency_ms;  // per request (point) / ticket (bulk)
  double throughput_rps = 0;  // median over the 1-s windows of the pass
  double latency_sum_s = 0;        // summed per-request completion time
  std::vector<double> late_ms;     // generator lateness (point)
  std::vector<double> submit_us;   // span durations around submit (traced)
  std::map<std::size_t, std::vector<P2>> sampled;  // request idx -> rows
  rusage ru_before{}, ru_after{};
  query::service_stats stats;
};

bool sampled_read(const std::vector<request<2>>& reqs, std::size_t i) {
  return i % kOracleStride == 0 && query::is_read(reqs[i].kind);
}

/// Open loop: submits reqs[i] alone at due[i] (sleeping, never spinning,
/// until then) and times it from due[i] to its completion callback.
serve_result run_point(serve_setup& s, double seconds,
                       perfbench::span_recorder& spans) {
  serve_result r;
  const std::size_t n = s.due.size();
  std::vector<std::atomic<std::uint64_t>> done(n);
  std::vector<std::vector<P2>> rows(n);
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  // The default 50 us timer slack would wake the generator up to 50 us
  // late for every arrival, and that lateness counts in the latency from
  // due time; 1 ns slack keeps the pacing to the clock's precision.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  getrusage(RUSAGE_SELF, &r.ru_before);
  const std::uint64_t t0 = now_ns() + 1'000'000;  // first due in >= 1 ms
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t due = t0 + s.due[i];
    const std::uint64_t before = now_ns();
    if (before < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - before));
    }
    const std::uint64_t start = now_ns();
    r.late_ms.push_back(static_cast<double>(start - due) * 1e-6);
    const std::int64_t sp = spans.open("query.submit", start);
    const bool keep = sampled_read(s.reqs, i);
    try {
      auto h = s.svc->submit({s.reqs[i]});
      h.on_complete([&, i, keep](query::ticket_result<2>&& res,
                                 std::exception_ptr err) {
        if (err || res.timed_out || res.responses.size() != 1) {
          failed.fetch_add(1, std::memory_order_relaxed);
        } else if (keep) {
          rows[i] = std::move(res.responses[0].points);
        }
        done[i].store(now_ns(), std::memory_order_relaxed);
        completed.fetch_add(1, std::memory_order_release);
      });
    } catch (const std::exception&) {
      failed.fetch_add(1, std::memory_order_relaxed);
      done[i].store(now_ns(), std::memory_order_relaxed);
      completed.fetch_add(1, std::memory_order_release);
    }
    spans.close(sp, now_ns());
  }
  prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // back to the default
  while (completed.load(std::memory_order_acquire) < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  getrusage(RUSAGE_SELF, &r.ru_after);
  r.submitted = n;
  r.failed = failed.load();
  std::vector<std::uint64_t> done_ns(n);
  r.latency_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    done_ns[i] = done[i].load(std::memory_order_relaxed);
    const double ms = static_cast<double>(done_ns[i] - (t0 + s.due[i])) * 1e-6;
    r.latency_ms.push_back(ms);
    r.latency_sum_s += ms * 1e-3;
    if (sampled_read(s.reqs, i)) r.sampled[i] = std::move(rows[i]);
  }
  r.throughput_rps = perfbench::windowed_rate(
      done_ns, 1, t0, static_cast<std::uint64_t>(seconds * 1e9), kWindowNs);
  for (double d : spans.durations("query.submit")) {
    r.submit_us.push_back(d * 1e-3);
  }
  r.stats = s.svc->stats();
  return r;
}

/// Closed loop: one client keeps <= kBulkOutstanding tickets of kBulkTicket
/// consecutive requests in flight until `seconds` pass.
serve_result run_bulk(serve_setup& s, double seconds,
                      perfbench::span_recorder& spans) {
  serve_result r;
  const std::size_t max_tickets = s.reqs.size() / kBulkTicket;
  std::vector<std::uint64_t> submit_at(max_tickets, 0);
  std::vector<std::uint64_t> done_at(max_tickets, 0);
  std::vector<std::vector<std::vector<P2>>> rows(max_tickets);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;  // guarded by mu
  std::size_t failed = 0;       // guarded by mu
  getrusage(RUSAGE_SELF, &r.ru_before);
  const std::uint64_t t0 = now_ns();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t t = 0;
  for (; t < max_tickets; ++t) {
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return outstanding < kBulkOutstanding; });
      ++outstanding;
    }
    const std::uint64_t start = now_ns();
    if (start >= end) {
      std::lock_guard<std::mutex> lk(mu);
      --outstanding;
      break;
    }
    submit_at[t] = start;
    const std::size_t off = t * kBulkTicket;
    std::vector<request<2>> batch(s.reqs.begin() + off,
                                  s.reqs.begin() + off + kBulkTicket);
    const std::int64_t sp = spans.open("query.submit", start);
    auto finish = [&, t](bool ok, query::ticket_result<2>* res) {
      const std::uint64_t d = now_ns();
      if (ok && res != nullptr) {
        for (std::size_t j = 0; j < kBulkTicket; ++j) {
          if (sampled_read(s.reqs, t * kBulkTicket + j)) {
            rows[t].push_back(std::move(res->responses[j].points));
          }
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      done_at[t] = d;
      if (!ok) failed += kBulkTicket;
      --outstanding;
      cv.notify_one();
    };
    try {
      auto h = s.svc->submit(std::move(batch));
      h.on_complete([finish](query::ticket_result<2>&& res,
                             std::exception_ptr err) {
        const bool ok = !err && !res.timed_out &&
                        res.responses.size() == kBulkTicket;
        finish(ok, &res);
      });
    } catch (const std::exception&) {
      finish(false, nullptr);
    }
    spans.close(sp, now_ns());
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return outstanding == 0; });
  }
  getrusage(RUSAGE_SELF, &r.ru_after);
  const std::size_t tickets = t;
  r.submitted = tickets * kBulkTicket;
  r.failed = failed;
  for (std::size_t i = 0; i < tickets; ++i) {
    const double ms = static_cast<double>(done_at[i] - submit_at[i]) * 1e-6;
    r.latency_ms.push_back(ms);
    r.latency_sum_s += ms * 1e-3 * static_cast<double>(kBulkTicket);
    std::size_t k = 0;
    for (std::size_t j = 0; j < kBulkTicket; ++j) {
      const std::size_t idx = i * kBulkTicket + j;
      if (sampled_read(s.reqs, idx) && k < rows[i].size()) {
        r.sampled[idx] = std::move(rows[i][k++]);
      }
    }
  }
  done_at.resize(tickets);
  r.throughput_rps = perfbench::windowed_rate(
      done_at, static_cast<double>(kBulkTicket), t0,
      static_cast<std::uint64_t>(seconds * 1e9), kWindowNs);
  for (double d : spans.durations("query.submit")) {
    r.submit_us.push_back(d * 1e-3);
  }
  r.stats = s.svc->stats();
  return r;
}

serve_result run_serving(const options& o, serve_setup& s, double seconds,
                         perfbench::span_recorder& spans) {
  return is_point(o) ? run_point(s, seconds, spans)
                     : run_bulk(s, seconds, spans);
}

// ---- replay oracle and backend attribution ------------------------------------

std::vector<double> sorted_dists(const P2& q, const std::vector<P2>& row) {
  std::vector<double> d;
  d.reserve(row.size());
  for (const auto& p : row) d.push_back(p.dist_sq(q));
  std::sort(d.begin(), d.end());
  return d;
}

bool same_rows(const request<2>& rq, std::vector<P2> a, std::vector<P2> b) {
  if (rq.kind == op::knn) return sorted_dists(rq.p, a) == sorted_dists(rq.p, b);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

struct backend_times {
  double knn_s = 0, range_s = 0, ball_s = 0, insert_s = 0, erase_s = 0,
         snapshot_s = 0;
  std::size_t knn_n = 0, range_n = 0, ball_n = 0, insert_n = 0, erase_n = 0,
              snapshot_n = 0;
  double total_s() const {
    return knn_s + range_s + ball_s + insert_s + erase_s + snapshot_s;
  }
};

/// Replays reqs[0, n) into a bare bdltree index built from `initial`, in
/// batches of `group` requests split into the engine's phases (maximal
/// runs of inserts / erases / reads, reads grouped by kind). Checks every
/// sampled service row against the replay. With `all_reads` false only
/// sampled reads execute (the cheap oracle); with it true every read runs
/// and each backend call is timed inside a span (the traced attribution).
std::size_t replay(const std::vector<P2>& initial,
                   const std::vector<request<2>>& reqs, std::size_t n,
                   std::size_t group, bool all_reads,
                   const std::map<std::size_t, std::vector<P2>>& sampled,
                   perfbench::span_recorder& spans, backend_times* bt) {
  auto idx = query::make_index<2>(query::backend::bdltree);
  idx->build(initial);
  std::size_t mismatches = 0;
  std::size_t checked = 0;
  group = std::max<std::size_t>(1, group);
  auto timed = [&](const char* name, std::int64_t parent, double& acc,
                   auto&& fn) {
    const std::uint64_t a = now_ns();
    const std::int64_t sp = spans.open(name, a, parent);
    fn();
    const std::uint64_t b = now_ns();
    spans.close(sp, b);
    acc += static_cast<double>(b - a) * 1e-9;
  };
  backend_times local;
  backend_times& t = bt ? *bt : local;
  for (std::size_t off = 0; off < n; off += group) {
    const std::size_t end = std::min(n, off + group);
    const std::int64_t gsp = spans.open("backend.group", now_ns());
    bool took_snapshot = false;
    std::size_t i = off;
    while (i < end) {
      const op k = reqs[i].kind;
      const bool read = query::is_read(k);
      std::size_t j = i + 1;
      while (j < end && (read ? query::is_read(reqs[j].kind)
                              : reqs[j].kind == k)) {
        ++j;
      }
      if (!read) {
        std::vector<P2> pts;
        pts.reserve(j - i);
        for (std::size_t x = i; x < j; ++x) pts.push_back(reqs[x].p);
        if (k == op::insert) {
          timed("backend.insert", gsp, t.insert_s,
                [&] { idx->batch_insert(pts); });
          t.insert_n += pts.size();
        } else {
          timed("backend.erase", gsp, t.erase_s,
                [&] { idx->batch_erase(pts); });
          t.erase_n += pts.size();
        }
        i = j;
        continue;
      }
      std::vector<std::size_t> knn_i, box_i, ball_i;
      for (std::size_t x = i; x < j; ++x) {
        if (!all_reads && !sampled.count(x)) continue;
        if (reqs[x].kind == op::knn) knn_i.push_back(x);
        else if (reqs[x].kind == op::range_box) box_i.push_back(x);
        else ball_i.push_back(x);
      }
      if (all_reads && !took_snapshot) {
        timed("backend.snapshot", gsp, t.snapshot_s,
              [&] { (void)idx->snapshot(); });
        ++t.snapshot_n;
        took_snapshot = true;
      }
      auto check = [&](const std::vector<std::size_t>& ids,
                       const std::vector<std::vector<P2>>& rows) {
        for (std::size_t q = 0; q < ids.size(); ++q) {
          auto it = sampled.find(ids[q]);
          if (it == sampled.end()) continue;
          ++checked;
          if (!same_rows(reqs[ids[q]], it->second, rows[q])) ++mismatches;
        }
      };
      if (!knn_i.empty()) {
        std::vector<P2> qs;
        for (auto x : knn_i) qs.push_back(reqs[x].p);
        std::vector<std::vector<P2>> rows;
        timed("backend.knn", gsp, t.knn_s,
              [&] { rows = idx->batch_knn(qs, reqs[knn_i[0]].k); });
        t.knn_n += qs.size();
        check(knn_i, rows);
      }
      if (!box_i.empty()) {
        std::vector<aabb<2>> qs;
        for (auto x : box_i) qs.push_back(reqs[x].box);
        std::vector<std::vector<P2>> rows;
        timed("backend.range", gsp, t.range_s,
              [&] { rows = idx->batch_range(qs); });
        t.range_n += qs.size();
        check(box_i, rows);
      }
      if (!ball_i.empty()) {
        std::vector<P2> cs;
        std::vector<double> rs;
        for (auto x : ball_i) {
          cs.push_back(reqs[x].p);
          rs.push_back(reqs[x].radius);
        }
        std::vector<std::vector<P2>> rows;
        timed("backend.ball", gsp, t.ball_s,
              [&] { rows = idx->batch_ball(cs, rs); });
        t.ball_n += cs.size();
        check(ball_i, rows);
      }
      i = j;
    }
    spans.close(gsp, now_ns());
  }
  if (checked != sampled.size()) {
    mismatches += sampled.size() - checked;  // a sampled row went unchecked
  }
  return mismatches;
}

// ---- kernels --------------------------------------------------------------------

struct kernel_inputs {
  std::vector<P2> kd;       // kd-tree / BDL-tree points
  std::vector<P2> queries;  // k-NN queries
  std::vector<P2> hull2;
  std::vector<P3> hull3;
  std::vector<P3> seb;
  std::vector<P2> emst;
};

/// serve_point pairs with the paper's headline inputs (uniform, in-sphere
/// hulls, on-sphere SEB); serve_bulk with their twins (points in the shell
/// of a square, on-sphere hulls with large outputs, in-sphere SEB). Both
/// families are spatially homogeneous: clustered inputs made the k-NN and
/// erase times swing 2x from seed to seed.
kernel_inputs make_kernel_inputs(const options& o) {
  kernel_inputs in;
  const std::uint64_t s = o.seed * 7919 + 17;
  if (is_point(o)) {
    in.kd = datagen::uniform<2>(kKdPoints, s);
    in.queries = datagen::uniform<2>(kKnnQueries, s + 1);
    in.hull2 = datagen::in_sphere<2>(kHullPoints, s + 2);
    in.hull3 = datagen::in_sphere<3>(kHullPoints, s + 3);
    in.seb = datagen::on_sphere<3>(kSebPoints, s + 4);
    in.emst = datagen::uniform<2>(kEmstPoints, s + 5);
  } else {
    in.kd = datagen::on_cube<2>(kKdPoints, s);
    in.queries = datagen::on_cube<2>(kKnnQueries, s + 1);
    in.hull2 = datagen::on_sphere<2>(kHullPoints, s + 2);
    in.hull3 = datagen::on_sphere<3>(kHullPoints, s + 3);
    in.seb = datagen::in_sphere<3>(kSebPoints, s + 4);
    in.emst = datagen::on_cube<2>(kEmstPoints, s + 5);
  }
  return in;
}

/// One pass over every kernel; times[k] holds kernel k's wall times.
struct kernel_pass {
  std::map<std::string, std::vector<double>> times;
  std::vector<std::vector<kdtree::knn_buffer::entry>> kd_rows;
  std::vector<std::vector<P2>> bdl_rows;
  std::size_t bdl_after_erase = 0;
  std::size_t bdl_static_trees = 0;
  std::vector<std::size_t> hull2;
  hull3d::mesh hull3, hull3_dc;
  hull3d::stats hull3_stats;
  ball<3> seb;
  double seb_scan_fraction = 0;
  std::vector<emst::edge> emst;
};

/// Kernels far shorter than a pass run several times in it, so their
/// median rests on as many samples as the long ones' spread needs; SEB
/// varies the sampling seed, whose luck sets how much of the input it scans.
constexpr std::size_t kHull2dReps = 3;
constexpr std::size_t kHull3dDcReps = 1;
constexpr std::size_t kSebReps = 5;

kernel_pass run_kernels(const kernel_inputs& in, std::size_t pass_no,
                        perfbench::span_recorder& spans) {
  kernel_pass k;
  const std::int64_t pass = spans.open("kernels.pass", now_ns());
  auto timed = [&](const char* name, auto&& fn) {
    const std::uint64_t a = now_ns();
    const std::int64_t sp = spans.open(std::string("kernel.") + name, a, pass);
    fn();
    const std::uint64_t b = now_ns();
    spans.close(sp, b);
    k.times[name].push_back(static_cast<double>(b - a) * 1e-9);
  };
  {
    std::unique_ptr<kdtree::tree<2>> t;
    timed("kdtree_build",
          [&] { t = std::make_unique<kdtree::tree<2>>(in.kd); });
    timed("kdtree_knn", [&] { k.kd_rows = t->knn_batch(in.queries, kKnnK); });
  }
  {
    bdltree::bdl_tree<2> b;
    const std::size_t per = (in.kd.size() + kBdlBatches - 1) / kBdlBatches;
    std::vector<std::vector<P2>> batches;
    for (std::size_t off = 0; off < in.kd.size(); off += per) {
      batches.emplace_back(in.kd.begin() + off,
                           in.kd.begin() + std::min(in.kd.size(), off + per));
    }
    timed("bdl_insert", [&] {
      for (const auto& bt : batches) b.insert(bt);
    });
    k.bdl_static_trees = b.num_static_trees();
    timed("bdl_knn", [&] { k.bdl_rows = b.knn(in.queries, kKnnK); });
    timed("bdl_erase", [&] {
      for (const auto& bt : batches) b.erase(bt);
    });
    k.bdl_after_erase = b.size();
  }
  for (std::size_t r = 0; r < kHull2dReps; ++r) {
    timed("hull2d", [&] { k.hull2 = hull2d::randinc(in.hull2); });
  }
  timed("hull3d", [&] {
    k.hull3_stats = hull3d::stats{};
    k.hull3 = hull3d::randinc(in.hull3, 8, 1, &k.hull3_stats);
  });
  for (std::size_t r = 0; r < kHull3dDcReps; ++r) {
    timed("hull3d_dc", [&] { k.hull3_dc = hull3d::divide_conquer(in.hull3); });
  }
  for (std::size_t r = 0; r < kSebReps; ++r) {
    timed("seb", [&] {
      k.seb = seb::sampling<3>(in.seb, pass_no * kSebReps + r + 1);
      k.seb_scan_fraction = seb::last_sampling_scan_fraction();
    });
  }
  timed("emst", [&] { k.emst = emst::emst<2>(in.emst); });
  spans.close(pass, now_ns());
  return k;
}

std::vector<double> brute_knn(const std::vector<P2>& pts, const P2& q,
                              std::size_t k) {
  std::vector<double> d(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) d[i] = pts[i].dist_sq(q);
  k = std::min(k, d.size());
  std::partial_sort(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(k),
                    d.end());
  d.resize(k);
  return d;
}

std::vector<std::size_t> sorted(std::vector<std::size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Checks one pass's outputs; returns the sequential baselines' times.
struct baselines {
  double hull2_seq_s = 0, hull3_seq_s = 0, welzl_seq_s = 0;
};

baselines check_kernels(const kernel_inputs& in, const kernel_pass& k,
                        run_state& st) {
  baselines b;
  // Sampled k-NN rows against brute force.
  std::size_t bad = 0;
  for (std::size_t c = 0; c < kKnnChecks; ++c) {
    const std::size_t qi = (c * 7919) % in.queries.size();
    const auto want = brute_knn(in.kd, in.queries[qi], kKnnK);
    std::vector<double> kd;
    for (const auto& e : k.kd_rows[qi]) kd.push_back(e.dist_sq);
    if (kd != want) ++bad;
    if (sorted_dists(in.queries[qi], k.bdl_rows[qi]) != want) ++bad;
  }
  if (bad) st.fail(bad, std::to_string(bad) + " k-NN rows differ from brute force");
  if (k.bdl_after_erase != 0) st.fail(1, "BDL-tree not empty after erasing every point");

  std::uint64_t t0 = now_ns();
  const auto h2 = hull2d::sequential_quickhull(in.hull2);
  b.hull2_seq_s = secs_since(t0);
  if (sorted(h2) != sorted(k.hull2)) st.fail(1, "hull2d vertices differ from sequential quickhull");

  t0 = now_ns();
  const auto h3 = hull3d::sequential_quickhull(in.hull3);
  b.hull3_seq_s = secs_since(t0);
  const auto want3 = hull3d::hull_vertices(h3);
  if (hull3d::hull_vertices(k.hull3) != want3) st.fail(1, "hull3d randinc vertices differ from sequential quickhull");
  if (hull3d::hull_vertices(k.hull3_dc) != want3) st.fail(1, "hull3d divide_conquer vertices differ from sequential quickhull");

  t0 = now_ns();
  const auto w = seb::welzl_seq<3>(in.seb);
  b.welzl_seq_s = secs_since(t0);
  if (std::abs(w.radius - k.seb.radius) > 1e-6 * w.radius) st.fail(1, "SEB radius differs from sequential Welzl");

  std::vector<emst::edge> e1;
  {
    const int prev = omp_get_max_threads();
    omp_set_num_threads(1);
    e1 = emst::emst<2>(in.emst);
    omp_set_num_threads(prev);
  }
  const double w1 = emst::total_weight(e1), w4 = emst::total_weight(k.emst);
  if (e1.size() != k.emst.size() || std::abs(w1 - w4) > 1e-9 * std::max(1.0, w1)) {
    st.fail(1, "EMST differs between 1 thread and all threads");
  }
  return b;
}

// ---- reporting -----------------------------------------------------------------

double us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

void serving_layers(const serve_result& r, std::size_t writes,
                    const backend_times& bt, double untraced_p50_ms,
                    run_state& st) {
  const auto& s = r.stats;
  const auto& tel = s.telemetry;
  auto pct = [&](query::stage sg, double p) {
    return us(tel.stage_hist(sg).percentile_ns(p));
  };
  st.set("ingest.submit_p50_us", perfbench::percentile(r.submit_us, 50));
  st.set("ingest.submit_p99_us", perfbench::percentile(r.submit_us, 99));
  st.set("ingest.spins", static_cast<double>(s.ingest_spins));
  st.set("ingest.submit_waits", static_cast<double>(s.submit_waits));
  st.set("drain.groups_read", static_cast<double>(s.num_read_groups));
  st.set("drain.groups_write", static_cast<double>(s.num_write_groups));
  const double rpg = s.num_drains ? static_cast<double>(s.num_requests) /
                                        static_cast<double>(s.num_drains)
                                  : 0;
  st.set("drain.reqs_per_group", rpg);
  st.set("drain.queue_wait_p50_us", pct(query::stage::queue_wait, 50));
  st.set("drain.queue_wait_p99_us", pct(query::stage::queue_wait, 99));
  st.set("drain.route_p50_us", pct(query::stage::route, 50));
  st.set("lanes.lane_wait_p50_us", pct(query::stage::lane_wait, 50));
  st.set("lanes.lane_wait_p99_us", pct(query::stage::lane_wait, 99));
  st.set("lanes.execute_write_p50_us", pct(query::stage::execute_write, 50));
  st.set("lanes.execute_write_p99_us", pct(query::stage::execute_write, 99));
  double busy = 0, qmax = 0, rmax = 0, rsum = 0;
  for (const auto& ps : s.per_shard) {
    busy += ps.execute_seconds;
    qmax = std::max(qmax, static_cast<double>(ps.max_queue_depth));
    rmax = std::max(rmax, static_cast<double>(ps.num_requests));
    rsum += static_cast<double>(ps.num_requests);
  }
  st.set("lanes.busy_s", busy);
  st.set("lanes.max_queue_depth", qmax);
  st.set("lanes.imbalance",
         rsum > 0 ? rmax / (rsum / static_cast<double>(s.per_shard.size()))
                  : 0);
  st.set("read.execute_read_p50_us", pct(query::stage::execute_read, 50));
  st.set("read.execute_read_p99_us", pct(query::stage::execute_read, 99));
  st.set("read.merge_p99_us", pct(query::stage::merge, 99));
  st.set("read.fulfil_p99_us", pct(query::stage::fulfil, 99));
  st.set("read.snapshot_lag_drains", static_cast<double>(s.snapshot_lag_drains));
  const double probes = static_cast<double>(s.cache.hits + s.cache.misses);
  st.set("cache.hit_rate", probes > 0 ? static_cast<double>(s.cache.hits) / probes : 0);
  st.set("cache.evictions", static_cast<double>(s.cache.evictions));
  st.set("reclaim.retired", static_cast<double>(s.retired_snapshots));
  st.set("reclaim.freed", static_cast<double>(s.reclaimed_snapshots));
  st.set("reclaim.stalls", static_cast<double>(s.reclaim_stalls));
  st.set("reclaim.p99_us", pct(query::stage::reclaim, 99));
  st.set("oplog.append_p99_us", pct(query::stage::replicate, 99));
  st.set("oplog.bytes_per_write",
         writes ? static_cast<double>(s.log_bytes) / static_cast<double>(writes) : 0);
  st.set("oplog.syncs", static_cast<double>(s.log_syncs));
  auto per = [](double sec, std::size_t n) {
    return n ? sec * 1e6 / static_cast<double>(n) : 0;
  };
  st.set("backend.knn_us", per(bt.knn_s, bt.knn_n));
  st.set("backend.range_us", per(bt.range_s, bt.range_n));
  st.set("backend.ball_us", per(bt.ball_s, bt.ball_n));
  st.set("backend.insert_us", per(bt.insert_s, bt.insert_n));
  st.set("backend.erase_us", per(bt.erase_s, bt.erase_n));
  st.set("backend.snapshot_us", per(bt.snapshot_s, bt.snapshot_n));
  st.set("backend.share", r.latency_sum_s > 0 ? bt.total_s() / r.latency_sum_s : 0);
  std::printf("backend.share bases: backend %.6f s / summed completion %.6f s\n",
              bt.total_s(), r.latency_sum_s);
  const double kreq = static_cast<double>(r.submitted) / 1000.0;
  auto tv = [](const timeval& v) {
    return static_cast<double>(v.tv_sec) + static_cast<double>(v.tv_usec) * 1e-6;
  };
  const double cpu = tv(r.ru_after.ru_utime) - tv(r.ru_before.ru_utime) +
                     tv(r.ru_after.ru_stime) - tv(r.ru_before.ru_stime);
  const double ctx = static_cast<double>(
      (r.ru_after.ru_nvcsw - r.ru_before.ru_nvcsw) +
      (r.ru_after.ru_nivcsw - r.ru_before.ru_nivcsw));
  st.set("proc.cpu_s_per_kreq", kreq > 0 ? cpu / kreq : 0);
  st.set("proc.ctx_switches_per_kreq", kreq > 0 ? ctx / kreq : 0);
  st.set("proc.rss_mb", static_cast<double>(r.ru_after.ru_maxrss) / 1024.0);
  st.set("gen.late_p99_ms", perfbench::percentile(r.late_ms, 99));
  st.set("gen.late_max_ms",
         r.late_ms.empty() ? 0 : *std::max_element(r.late_ms.begin(), r.late_ms.end()));
  const double traced_p50 = perfbench::percentile(r.latency_ms, 50);
  st.set("trace.overhead",
         untraced_p50_ms > 0 ? traced_p50 / untraced_p50_ms - 1.0 : 0);
  std::printf("trace.overhead bases: traced p50 %.4f ms / untraced p50 %.4f ms\n",
              traced_p50, untraced_p50_ms);
}

/// Climbs kLadderRates on a fresh service per rung; returns the knee.
double ladder(const options& o, run_state& st) {
  std::vector<perfbench::rung_result> rungs;
  perfbench::span_recorder off(false);
  for (std::size_t i = 0; i < std::size(kLadderRates); ++i) {
    const double rate = kLadderRates[i];
    auto s = std::make_unique<serve_setup>();
    query::workload_spec spec;
    spec.seed = o.seed * 131 + i;
    s->due = perfbench::poisson_schedule(spec.seed, rate, kLadderSeconds);
    spec = query::make_read_write_spec(kInitialPoints, s->due.size(),
                                       kPointReadFrac);
    spec.seed = o.seed * 131 + i;
    s->initial = query::make_initial<2>(spec);
    s->reqs = query::make_requests<2>(spec, s->initial);
    s->svc = std::make_unique<query::query_service<2>>(
        service_config_for(o, ""));
    s->svc->bootstrap(s->initial);
    const serve_result r = run_point(*s, kLadderSeconds, off);
    st.attempted += r.submitted;
    if (r.failed) st.fail(r.failed, "ladder requests failed");
    perfbench::rung_result rr;
    rr.offered_rps = rate;
    rr.achieved_rps = r.throughput_rps;
    rr.p99_ms = perfbench::percentile(r.latency_ms, 99);
    rr.samples = r.latency_ms.size();
    rungs.push_back(rr);
    std::printf("ladder rung %.0f req/s: achieved %.1f req/s  p99 %.3f ms  n=%zu  %s\n",
                rate, rr.achieved_rps, rr.p99_ms, rr.samples,
                perfbench::rung_passes(rr, kLadderP99LimitMs) ? "pass" : "FAIL");
    if (!perfbench::rung_passes(rr, kLadderP99LimitMs)) break;
  }
  return perfbench::max_rate(rungs, kLadderP99LimitMs);
}

/// Per span name: count, total and self time (total minus child spans).
void print_spans(const perfbench::span_recorder& sp) {
  std::printf("spans: %-20s %8s %12s %12s\n", "name", "count", "total_ms",
              "self_ms");
  for (const auto& name : sp.names()) {
    const auto d = sp.durations(name);
    double total = 0;
    for (double x : d) total += x;
    std::printf("spans: %-20s %8zu %12.3f %12.3f\n", name.c_str(), d.size(),
                total * 1e-6, sp.self_ns(name) * 1e-6);
  }
}

void write_spans(const std::string& path, const perfbench::span_recorder& sp) {
  std::ofstream os(path);
  if (!os) return;
  os << "{\"names\":[";
  for (std::size_t i = 0; i < sp.names().size(); ++i) {
    os << (i ? "," : "") << '"' << sp.names()[i] << '"';
  }
  os << "],\"spans\":[";
  bool first = true;
  for (const auto& s : sp.spans()) {
    os << (first ? "" : ",") << '[' << s.name << ',' << s.parent << ','
       << s.start_ns << ',' << s.end_ns << ']';
    first = false;
  }
  os << "]}\n";
}

/// Ends the process with a diagnosis when a run outlives its deadline: a
/// hung service or a starved kernel must fail loudly, naming the phase,
/// before the caller's own time limit kills the run silently.
class watchdog {
 public:
  explicit watchdog(double seconds)
      : thread_([this, seconds] { watch(seconds); }) {}
  ~watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  watchdog(const watchdog&) = delete;
  watchdog& operator=(const watchdog&) = delete;

  void phase(const char* p) { phase_.store(p); }

 private:
  void watch(double seconds) {
    std::unique_lock<std::mutex> lk(mu_);
    if (cv_.wait_for(lk, std::chrono::duration<double>(seconds),
                     [&] { return done_; })) {
      return;
    }
    std::fprintf(stderr, "perfbench: still in phase '%s' after %.0f s\n",
                 phase_.load(), seconds);
    std::_Exit(3);
  }

  std::atomic<const char*> phase_{"start"};
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;  // last: starts once the members above exist
};

int run(const options& o) {
  watchdog dog(kDeadlineS);
  run_state st;
  const int threads = omp_get_num_procs();
  omp_set_num_threads(threads);
  const double serve_seconds = o.seconds;

  std::printf(
      "{\"provenance\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"git_sha\":\"%s\",\"git_dirty\":\"%s\","
      "\"src_digest\":\"%s\",\"nproc\":%d,\"omp_threads\":%d,"
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"initial_points\":%zu,"
      "\"kd_points\":%zu,\"knn_queries\":%zu,\"hull_points\":%zu,"
      "\"seb_points\":%zu,\"emst_points\":%zu}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.git_sha.c_str(), o.git_dirty.c_str(),
      o.src_digest.c_str(), threads, omp_get_max_threads(),
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      PERFBENCH_BUILD_TYPE, kInitialPoints, kKdPoints, kKnnQueries,
      kHullPoints, kSebPoints, kEmstPoints);

  // ---- set-up: input generation + bootstrap, kSetupReps times -------------
  dog.phase("setup");
  std::vector<double> setup_s;
  std::unique_ptr<serve_setup> setup;
  kernel_inputs kin;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    kin = kernel_inputs{};
    const std::uint64_t t0 = now_ns();
    setup = make_serve_setup(o, serve_seconds, static_cast<int>(rep));
    kin = make_kernel_inputs(o);
    setup_s.push_back(secs_since(t0));
  }
  st.set("setup_s", perfbench::median(setup_s));

  // ---- serving ------------------------------------------------------------
  dog.phase("serving");
  perfbench::span_recorder no_spans(false);
  serve_result sr = run_serving(o, *setup, serve_seconds, no_spans);
  st.attempted += sr.submitted;
  if (sr.failed) st.fail(sr.failed, std::to_string(sr.failed) + " requests threw, timed out or were refused");
  st.set("serve.p50_ms", perfbench::percentile(sr.latency_ms, 50));
  st.set("serve.p99_ms", perfbench::percentile(sr.latency_ms, 99));
  st.set("serve.throughput_rps", sr.throughput_rps);
  if (!perfbench::tail_supported(sr.latency_ms.size(), 99)) {
    std::printf("note: serve.p99_ms has fewer than 10 samples beyond it\n");
  }
  const std::size_t served = sr.submitted;
  dog.phase("serving close");
  setup->svc->close();
  {
    dog.phase("replay oracle");
    const std::size_t bad = replay(setup->initial, setup->reqs, served,
                                   served, false, sr.sampled, no_spans,
                                   nullptr);
    st.attempted += sr.sampled.size();
    if (bad) st.fail(bad, std::to_string(bad) + " sampled service responses differ from the single-index replay");
  }
  std::printf("serving: %zu requests, %zu latency samples, %zu sampled responses checked\n",
              served, sr.latency_ms.size(), sr.sampled.size());

  // ---- traced serving pass: spans, service counters, backend replay ---------
  perfbench::span_recorder spans(o.trace);
  if (o.trace) {
    dog.phase("traced serving");
    const double untraced_p50 = perfbench::percentile(sr.latency_ms, 50);
    setup.reset();
    auto traced = make_serve_setup(o, serve_seconds, 99);
    serve_result tr = run_serving(o, *traced, serve_seconds, spans);
    st.attempted += tr.submitted;
    if (tr.failed) st.fail(tr.failed, "traced pass requests failed");
    traced->svc->close();
    std::size_t writes = 0;
    for (std::size_t i = 0; i < tr.submitted; ++i) {
      writes += query::is_read(traced->reqs[i].kind) ? 0 : 1;
    }
    const double rpg = tr.stats.num_drains
                           ? static_cast<double>(tr.stats.num_requests) /
                                 static_cast<double>(tr.stats.num_drains)
                           : 1;
    backend_times bt;
    const std::size_t bad = replay(
        traced->initial, traced->reqs, tr.submitted,
        static_cast<std::size_t>(rpg + 0.5), true, tr.sampled, spans, &bt);
    st.attempted += tr.sampled.size();
    if (bad) st.fail(bad, "traced pass responses differ from the replay");
    serving_layers(tr, writes, bt, untraced_p50, st);
    traced.reset();
    dog.phase("ladder");
    if (is_point(o)) st.set("serve.max_rate_rps", ladder(o, st));
  }
  setup.reset();

  // ---- kernels ----------------------------------------------------------------
  dog.phase("kernels");
  std::map<std::string, std::vector<double>> ktimes;
  kernel_pass last;
  const std::uint64_t k0 = now_ns();
  std::size_t passes = 0;
  for (; passes < kKernelPasses && (passes == 0 || secs_since(k0) < kKernelBudgetS);
       ++passes) {
    last = run_kernels(kin, passes, spans);
    for (const auto& [name, ts] : last.times) {
      st.attempted += ts.size();
      ktimes[name].insert(ktimes[name].end(), ts.begin(), ts.end());
    }
  }
  std::printf("kernels: %zu passes at %d threads (s):\n", passes, threads);
  for (const char* k : kKernels) {
    st.set(std::string(k) + ".tn_s", perfbench::median(ktimes[k]));
    std::printf("  %-14s", k);
    for (double t : ktimes[k]) std::printf(" %.4f", t);
    std::printf("\n");
  }
  auto sum_of = [&](const auto& names) {
    double t = 0;
    for (const char* k : names) t += perfbench::median(ktimes[k]);
    return t;
  };
  st.set("trees_s", sum_of(kTreeKernels));
  st.set("geometry_s", sum_of(kGeometryKernels));
  dog.phase("kernel checks");
  const baselines base = check_kernels(kin, last, st);

  if (o.trace) {
    dog.phase("1-thread kernels");
    kernel_pass t1;
    {
      omp_set_num_threads(1);
      perfbench::span_recorder off(false);
      t1 = run_kernels(kin, 0, off);
      omp_set_num_threads(threads);
    }
    for (const char* k : kKernels) {
      const double tn = perfbench::median(ktimes[k]);
      const double t1s = perfbench::median(t1.times[k]);
      st.set(std::string(k) + ".t1_s", t1s);
      st.set(std::string(k) + ".speedup", tn > 0 ? t1s / tn : 0);
    }
    st.set("hull2d.seq_s", base.hull2_seq_s);
    st.set("hull3d.seq_s", base.hull3_seq_s);
    st.set("hull3d.vs_seq", base.hull3_seq_s / perfbench::median(ktimes["hull3d"]));
    st.set("hull3d.points_touched", static_cast<double>(last.hull3_stats.points_touched));
    st.set("hull3d.facets_touched", static_cast<double>(last.hull3_stats.facets_touched));
    st.set("seb.scan_fraction", last.seb_scan_fraction);
    std::uint64_t t0 = now_ns();
    const auto wb = seb::welzl_mtf_pivot<3>(kin.seb);
    st.set("seb.welzl_s", secs_since(t0));
    if (std::abs(wb.radius - last.seb.radius) > 1e-6 * wb.radius) {
      st.fail(1, "parallel Welzl radius differs from sampling");
    }
    st.set("seb.seq_s", base.welzl_seq_s);
    st.set("bdl.static_trees", static_cast<double>(last.bdl_static_trees));
    st.set("bdl.knn_vs_static",
           perfbench::median(ktimes["bdl_knn"]) / perfbench::median(ktimes["kdtree_knn"]));
    print_spans(spans);
    std::filesystem::create_directories(o.work_dir);
    write_spans(o.work_dir + "/spans-" + o.workload + "-" +
                    std::to_string(o.seed) + ".json",
                spans);
  }

  // ---- result ------------------------------------------------------------------
  const auto defs = o.trace ? layer_metrics() : e2e_metrics();
  // Human-readable table: every metric measured in this run.
  for (const auto& group : {e2e_metrics(), layer_metrics()}) {
    for (const auto& d : group) {
      auto it = st.values.find(d.name);
      if (it != st.values.end()) {
        std::printf("%-32s %16.6f %s\n", d.name.c_str(), it->second, d.unit.c_str());
      }
    }
  }
  std::printf("failed_frac %.6f (%zu of %zu)\n",
              st.attempted ? static_cast<double>(st.failed) / static_cast<double>(st.attempted) : 0.0,
              st.failed, st.attempted);
  std::string json = "{\"correct\": ";
  json += st.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(st.attempted);
  json += ", \"failed\": " + std::to_string(st.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& d : defs) {
    auto it = st.values.find(d.name);
    // Per-layer metrics of a layer this workload does not exercise read 0.
    const double v = it == st.values.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (first ? "\"" : ", \"") + d.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return st.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
