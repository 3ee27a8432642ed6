// Crash-recovery integration suite: deterministic fault injection
// (query/fault.h) kills a durable primary at each named seam — log
// append, log file write (torn), checkpoint serialize, lane execute —
// then `query_service::recover()` rebuilds from the
// directory and must byte-identically reproduce the committed history.
// The oracle for log-only recovery is a fresh service replaying the
// salvaged log through apply_replayed(): both sides re-issue the
// identical per-shard call sequence, so resident sets AND k-NN/range/
// ball rows (tie order included) compare exactly. Checkpoint-rebuilt
// trees are structurally different from incrementally built ones, so
// checkpoint scenarios compare canonically (sorted resident multisets,
// distance sequences, range multisets) against the pre-crash primary.
// Also here: torn-tail edge cases at the service level (cut inside a
// frame, inside a checksum, zero-length tail), TTL expiry of recovered
// points, a rebalance whose append fails, recovery and resync refusing a
// directory of another shard count, replica self-healing (ring-eviction
// and replay-divergence resync from checkpoint, quarantine without a
// source), and request-deadline shedding.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>

#include "query/checkpoint.h"
#include "query/fault.h"
#include "query/replica.h"
#include "query/query_service.h"
#include "test_query_util.h"

using namespace pargeo;
using query::op;
using query::request;
using query::service_config;
using query::shard_policy;
using query::sync_policy;
namespace fault = query::fault;

namespace {

point<2> P(double x, double y) {
  point<2> p;
  p[0] = x;
  p[1] = y;
  return p;
}

double frac(double v) { return v - static_cast<long long>(v); }

// A disposable directory under the test temp root.
std::string fresh_dir() {
  std::string tmpl = std::string(::testing::TempDir()) + "pargeo_recXXXXXX";
  char* got = ::mkdtemp(tmpl.data());
  EXPECT_NE(got, nullptr);
  return tmpl;
}

void remove_dir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
    ::rmdir(dir.c_str());
  }
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<unsigned char> buf;
  unsigned char chunk[4096];
  std::size_t got;
  while (f && (got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf.insert(buf.end(), chunk, chunk + got);
  }
  if (f) std::fclose(f);
  return buf;
}

void spit(const std::string& path, const std::vector<unsigned char>& buf) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // An empty vector's data() may be null, which fwrite must not get.
  if (!buf.empty()) {
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

service_config base_cfg(const std::string& log_dir) {
  service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::spatial;
  cfg.log_dir = log_dir;
  cfg.sync = sync_policy::every_commit;  // every acked batch is durable
  return cfg;
}

std::vector<point<2>> initial_points(std::size_t n) {
  std::vector<point<2>> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(P(frac(0.137 * (i + 1)), frac(0.219 * (i + 1))));
  }
  return pts;
}

// Deterministic traffic: each batch inserts 12 fresh points and, from
// batch 2 on, erases 3 points inserted two batches earlier — the mirror
// of any acked prefix is exactly computable.
struct traffic_plan {
  std::vector<std::vector<request<2>>> batches;
  std::vector<std::vector<point<2>>> ins;
  std::vector<std::vector<point<2>>> del;
};

traffic_plan make_traffic(std::size_t nbatches) {
  traffic_plan t;
  for (std::size_t b = 0; b < nbatches; ++b) {
    std::vector<request<2>> reqs;
    std::vector<point<2>> ins;
    for (std::size_t j = 0; j < 12; ++j) {
      const point<2> p =
          P(frac(0.311 * (b * 12 + j + 1)), frac(0.477 * (b * 12 + j + 1)));
      ins.push_back(p);
      reqs.push_back(request<2>::make_insert(p));
    }
    std::vector<point<2>> del;
    if (b >= 2) {
      for (std::size_t j = 0; j < 3; ++j) {
        del.push_back(t.ins[b - 2][j]);
        reqs.push_back(request<2>::make_erase(t.ins[b - 2][j]));
      }
    }
    t.batches.push_back(std::move(reqs));
    t.ins.push_back(std::move(ins));
    t.del.push_back(std::move(del));
  }
  return t;
}

// Resident multiset after `acked` successful batches.
std::vector<point<2>> mirror_after(const traffic_plan& t, std::size_t initial,
                                   std::size_t acked) {
  std::vector<point<2>> m = initial_points(initial);
  for (std::size_t b = 0; b < acked; ++b) {
    m.insert(m.end(), t.ins[b].begin(), t.ins[b].end());
    for (const auto& p : t.del[b]) {
      const auto it = std::find(m.begin(), m.end(), p);
      EXPECT_NE(it, m.end()) << "mirror erase of absent point";
      if (it != m.end()) m.erase(it);
    }
  }
  std::sort(m.begin(), m.end());
  return m;
}

std::vector<request<2>> probe_batch() {
  std::vector<request<2>> probes;
  for (int i = 0; i < 12; ++i) {
    probes.push_back(request<2>::make_knn(
        P(frac(0.083 * (i + 1)), frac(0.291 * (i + 1))), 4));
  }
  for (int i = 0; i < 4; ++i) {
    probes.push_back(request<2>::make_range(
        aabb<2>(P(0.2 * i, 0.1), P(0.2 * i + 0.35, 0.85))));
  }
  for (int i = 0; i < 4; ++i) {
    probes.push_back(
        request<2>::make_ball(P(frac(0.31 * i + 0.2), 0.5), 0.15 + 0.05 * i));
  }
  return probes;
}

// Byte-identical oracle: same rows, same order, same coordinates.
void expect_identical_responses(const std::vector<query::response<2>>& got,
                                const std::vector<query::response<2>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].points, want[i].points) << "response " << i;
  }
}

void expect_resident(query::query_service<2>& svc,
                     const std::vector<point<2>>& want_sorted) {
  auto got = svc.gather();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want_sorted);
}

// Drives batches until one fails ("the crash"); returns how many acked.
std::size_t run_until_crash(query::query_service<2>& svc,
                            const traffic_plan& t) {
  std::size_t acked = 0;
  for (const auto& batch : t.batches) {
    try {
      svc.execute(batch);
      ++acked;
    } catch (const std::exception&) {
      break;
    }
  }
  return acked;
}

// Log-only reference: a fresh service replaying the salvaged log — the
// ground truth recover() must match byte-for-byte.
std::unique_ptr<query::query_service<2>> reference_from_log(
    const std::string& dir, service_config cfg) {
  cfg.log_dir.clear();
  auto ref = std::make_unique<query::query_service<2>>(cfg);
  const auto log = query::op_log<2>::read_log(dir + "/oplog.pgol");
  const std::uint64_t head = log->head();
  for (auto& g : log->read_from(log->start_after())) {
    ref->apply_replayed(std::move(g));
  }
  while (ref->applied_epoch() < head) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ref->wait_lanes_idle();
  return ref;
}

// One crash-matrix cell: bootstrap, run traffic with `spec` armed at
// `point`, treat the first failed batch as the crash, recover, and
// compare byte-identically against the salvaged-log reference. Returns
// the recovered service for scenario-specific assertions.
std::unique_ptr<query::query_service<2>> crash_recover_compare(
    const char* point, fault::fault_spec spec, const std::string& dir,
    std::size_t* acked_out = nullptr) {
  const service_config cfg = base_cfg(dir);
  const traffic_plan t = make_traffic(8);
  std::size_t acked = 0;
  {
    auto svc = std::make_unique<query::query_service<2>>(cfg);
    svc->bootstrap(initial_points(48));
    fault::scoped_fault f(point, spec);
    acked = run_until_crash(*svc, t);
    EXPECT_LT(acked, t.batches.size()) << "fault at " << point
                                       << " never fired";
    // Crash: drop the service with no orderly traffic wind-down.
  }
  if (acked_out) *acked_out = acked;

  auto ref = reference_from_log(dir, cfg);
  auto rec = query::query_service<2>::recover(dir, cfg);

  auto a = rec->gather();
  auto e = ref->gather();
  std::sort(a.begin(), a.end());
  std::sort(e.begin(), e.end());
  EXPECT_EQ(a, e);
  EXPECT_EQ(rec->size(), ref->size());
  EXPECT_GT(rec->stats().recovered_epochs, 0u);

  const auto probes = probe_batch();
  const auto got = rec->execute(probes);
  const auto want = ref->execute(probes);
  expect_identical_responses(got.responses, want.responses);
  ref->close();
  return rec;
}

class CrashMatrix : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

}  // namespace

TEST_F(CrashMatrix, KillAtLogAppend) {
  const std::string dir = fresh_dir();
  fault::fault_spec spec;
  spec.action = fault::fault_action::kill;
  spec.nth = 4;  // bootstrap genesis is append 1; dies on write batch 3
  std::size_t acked = 0;
  auto rec = crash_recover_compare(fault::kOplogAppend, spec, dir, &acked);
  // The fault fired before the group touched the file: with
  // sync_policy::every_commit, recovery holds exactly the acked batches.
  expect_resident(*rec, mirror_after(make_traffic(8), 48, acked));
  // The recovered service is a serving primary again.
  rec->execute(make_traffic(8).batches[acked]);
  rec->close();
  remove_dir(dir);
}

TEST_F(CrashMatrix, TornWriteAtLogFile) {
  const std::string dir = fresh_dir();
  fault::fault_spec spec;
  spec.action = fault::fault_action::torn_write;
  spec.torn_keep_bytes = 5;  // cut inside the frame length field
  spec.nth = 3;              // genesis frame + batch 1 land; batch 2 tears
  auto rec = crash_recover_compare(fault::kOplogFileWrite, spec, dir);
  // The torn trailing frame was salvaged away and counted. (The exact
  // recovered epoch depends on whether a rebalance group also landed in
  // the log before the tear; byte-identity vs the salvaged-log
  // reference above is the authoritative check.)
  EXPECT_EQ(rec->stats().truncated_groups, 1u);
  EXPECT_GE(rec->stats().recovered_epochs, 2u);  // at least genesis + batch 1
  rec->close();
  remove_dir(dir);
}

TEST_F(CrashMatrix, KillAtLaneExecute) {
  const std::string dir = fresh_dir();
  fault::fault_spec spec;
  spec.action = fault::fault_action::kill;
  spec.nth = 5;  // mid-stream lane sub-batch
  // The group was already durably logged when the lane died, so the
  // recovered state legitimately CONTAINS the failed batch — exactly
  // what the log says committed. The salvaged-log reference agrees by
  // construction; byte-identity is the whole assertion here.
  auto rec = crash_recover_compare(fault::kLaneExecute, spec, dir);
  rec->close();
  remove_dir(dir);
}

TEST_F(CrashMatrix, KillAtCheckpointSerialize) {
  const std::string dir = fresh_dir();
  service_config cfg = base_cfg(dir);
  cfg.checkpoint_every = 2;
  const traffic_plan t = make_traffic(8);
  std::vector<point<2>> pre_crash;
  std::vector<query::response<2>> want;
  const auto probes = probe_batch();
  {
    auto svc = std::make_unique<query::query_service<2>>(cfg);
    svc->bootstrap(initial_points(48));
    fault::fault_spec spec;
    spec.action = fault::fault_action::kill;
    spec.nth = 1;  // first checkpoint attempt dies
    fault::scoped_fault f(fault::kCheckpointSerialize, spec);
    // A dying checkpoint is contained: every batch still commits.
    ASSERT_EQ(run_until_crash(*svc, t), t.batches.size());
    const auto st = svc->stats();
    EXPECT_GE(st.checkpoint_errors, 1u);
    EXPECT_GE(st.checkpoints, 1u);  // later cadence points succeeded
    pre_crash = svc->gather();
    std::sort(pre_crash.begin(), pre_crash.end());
    want = svc->execute(probes).responses;
  }
  // Recovery = newest good checkpoint + log tail. The tree is rebuilt,
  // not replayed from genesis, so rows compare canonically.
  auto rec = query::query_service<2>::recover(dir, cfg);
  expect_resident(*rec, pre_crash);
  const auto got = rec->execute(probes);
  testutil::expect_same_responses<2>(probes, got.responses, want);
  EXPECT_GT(rec->stats().recovered_epochs, 0u);
  rec->close();
  remove_dir(dir);
}

namespace {

class RecoveryEdge : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

}  // namespace

// Service-level torn-tail edge cases: a clean durable run, then the file
// is cut (a) at the exact last frame boundary — zero-length tail, no
// truncated groups, (b) inside the trailing checksum, (c) inside the
// frame length field. Recovery salvages the complete-frame prefix and
// matches a replay reference of the same prefix.
TEST_F(RecoveryEdge, TornTailCutsSalvageCompletePrefix) {
  const std::string dir = fresh_dir();
  const service_config cfg = base_cfg(dir);
  const traffic_plan t = make_traffic(4);
  {
    query::query_service<2> svc(cfg);
    svc.bootstrap(initial_points(32));
    for (const auto& b : t.batches) svc.execute(b);
    svc.close();
  }
  const std::string path = dir + "/oplog.pgol";
  const auto full = slurp(path);
  constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8 + 8;
  // Walk the framing to find every frame boundary.
  std::vector<std::size_t> bounds{kHeaderSize};
  std::size_t off = kHeaderSize;
  while (off + 4 <= full.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, full.data() + off, 4);
    off += std::size_t{4} + len + 8;
    bounds.push_back(off);
  }
  ASSERT_EQ(bounds.back(), full.size());
  ASSERT_EQ(bounds.size(), 1 + 5u);  // genesis + 4 write batches

  struct cut_case {
    std::size_t keep;
    std::uint64_t want_head;
    std::uint64_t want_truncated;
    const char* what;
  };
  const cut_case cases[] = {
      {bounds[4], 4, 0, "zero-length tail at the last frame boundary"},
      {full.size() - 4, 4, 1, "cut inside the trailing checksum"},
      {bounds[3] + 2, 3, 1, "cut inside a frame length field"},
      {bounds[2] + (bounds[3] - bounds[2]) / 2, 2, 1, "cut mid-payload"},
  };
  for (const auto& c : cases) {
    spit(path, {full.begin(), full.begin() + c.keep});
    auto ref = reference_from_log(dir, cfg);
    auto rec = query::query_service<2>::recover(dir, cfg);
    EXPECT_EQ(rec->stats().recovered_epochs, c.want_head) << c.what;
    EXPECT_EQ(rec->stats().truncated_groups, c.want_truncated) << c.what;
    auto a = rec->gather();
    auto e = ref->gather();
    std::sort(a.begin(), a.end());
    std::sort(e.begin(), e.end());
    EXPECT_EQ(a, e) << c.what;
    const auto probes = probe_batch();
    expect_identical_responses(rec->execute(probes).responses,
                               ref->execute(probes).responses);
    rec->close();
    ref->close();
  }
  remove_dir(dir);
}

TEST_F(RecoveryEdge, RecoverEmptyDirectoryServesFresh) {
  const std::string dir = fresh_dir();
  const service_config cfg = base_cfg(dir);
  auto rec = query::query_service<2>::recover(dir, cfg);
  EXPECT_EQ(rec->size(), 0u);
  EXPECT_EQ(rec->stats().recovered_epochs, 0u);
  // And it is durable from here: write, drop, recover again.
  rec->bootstrap(initial_points(16));
  rec->execute(make_traffic(1).batches[0]);
  rec->close();
  rec.reset();
  auto rec2 = query::query_service<2>::recover(dir, cfg);
  EXPECT_EQ(rec2->stats().recovered_epochs, 2u);  // genesis + 1 batch
  EXPECT_EQ(rec2->size(), 16u + 12u);
  rec2->close();
  remove_dir(dir);
}

TEST_F(RecoveryEdge, RecoveredServiceContinuesDurably) {
  const std::string dir = fresh_dir();
  service_config cfg = base_cfg(dir);
  cfg.checkpoint_every = 3;
  const traffic_plan t = make_traffic(8);
  {
    query::query_service<2> svc(cfg);
    svc.bootstrap(initial_points(32));
    for (std::size_t b = 0; b < 4; ++b) svc.execute(t.batches[b]);
    svc.close();
  }
  auto rec = query::query_service<2>::recover(dir, cfg);
  const std::uint64_t first_target = rec->stats().recovered_epochs;
  EXPECT_EQ(first_target, 5u);  // genesis + 4 batches
  for (std::size_t b = 4; b < 8; ++b) rec->execute(t.batches[b]);
  // every_commit: the re-attached log fsyncs at least once per group.
  EXPECT_GE(rec->stats().log_syncs, 4u);
  const auto want = mirror_after(t, 32, 8);
  expect_resident(*rec, want);
  rec->close();
  rec.reset();
  auto rec2 = query::query_service<2>::recover(dir, cfg);
  EXPECT_EQ(rec2->stats().recovered_epochs, 9u);
  expect_resident(*rec2, want);
  rec2->close();
  remove_dir(dir);
}

// A directory written by a 2-shard spatial primary does not fit a 3-shard
// service: its stripe cuts split 2 shards, and so does its checkpoint.
// Recovery refuses the topology instead of installing 1 cut for 3
// stripes, which range pruning would read past.
TEST_F(RecoveryEdge, RecoverRejectsAnotherShardCount) {
  for (const bool checkpointed : {false, true}) {
    const std::string dir = fresh_dir();
    service_config cfg = base_cfg(dir);
    ASSERT_EQ(cfg.shards, 2u);
    {
      query::query_service<2> svc(cfg);
      svc.bootstrap(initial_points(32));
      svc.execute(make_traffic(1).batches[0]);
      if (checkpointed) {
        ASSERT_TRUE(svc.checkpoint_now());
      }
      svc.close();
    }
    cfg.shards = 3;
    EXPECT_THROW(query::query_service<2>::recover(dir, cfg),
                 std::invalid_argument)
        << (checkpointed ? "checkpoint + log" : "log only");
    remove_dir(dir);
  }
}

TEST_F(RecoveryEdge, CheckpointGroupRejectsAnotherTopology) {
  query::checkpoint_data<2> ck;
  ck.epoch = 7;
  ck.shard_points = {{P(0.1, 0.1)}, {P(0.6, 0.6)}};
  EXPECT_THROW(query::checkpoint_group(ck, 3), std::invalid_argument);
  ck.bounds_set = true;
  ck.cuts = {0.5};
  EXPECT_EQ(query::checkpoint_group(ck, 2).records.size(), 2u);
  ck.shard_points.push_back({});
  EXPECT_THROW(query::checkpoint_group(ck, 3), std::invalid_argument);
}

// A durable-log append failure is contained: the group's tickets fail,
// later writes fail fast, reads keep serving — and the service never
// acks a write the log did not commit.
TEST_F(RecoveryEdge, LogAppendFailureFailsWritesKeepsReads) {
  const std::string dir = fresh_dir();
  const service_config cfg = base_cfg(dir);
  query::query_service<2> svc(cfg);
  svc.bootstrap(initial_points(32));
  const traffic_plan t = make_traffic(3);
  svc.execute(t.batches[0]);
  {
    fault::fault_spec spec;
    spec.nth = 1;  // next append throws
    fault::scoped_fault f(fault::kOplogAppend, spec);
    EXPECT_THROW(svc.execute(t.batches[1]), std::exception);
  }
  // Latched: writes fail fast even with the fault gone (the fail-fast
  // rejection does not re-count — only the real append failure does) …
  EXPECT_THROW(svc.execute(t.batches[2]), std::exception);
  EXPECT_GE(svc.stats().log_append_errors, 1u);
  // … while reads still serve, and the resident set shows exactly the
  // acked prefix.
  const auto rows = svc.execute(probe_batch());
  EXPECT_EQ(rows.responses.size(), probe_batch().size());
  expect_resident(svc, mirror_after(t, 32, 1));
  svc.close();
  remove_dir(dir);
}

namespace {

// Polls `pred` for up to 5 s; true once it holds.
template <class Pred>
bool eventually(Pred&& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// A read batch that has completed went through the drain thread after
// every earlier group's boundary hooks (rebalance, expiry), so their
// counters and effects are settled when it returns.
void fence_drain(query::query_service<2>& svc) {
  svc.execute({request<2>::make_knn(P(0.5, 0.5), 1)});
  svc.wait_lanes_idle();
}

std::vector<std::vector<point<2>>> sorted_shards(
    const query::query_service<2>& svc) {
  std::vector<std::vector<point<2>>> out;
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    out.push_back(svc.shard(s).gather());
    std::sort(out.back().begin(), out.back().end());
  }
  return out;
}

}  // namespace

// A recovered primary expires every point it recovered, whether it came
// back from a checkpoint or through log replay: each one restarts a full
// TTL window at recovery (deadlines are not persisted).
TEST_F(RecoveryEdge, RecoveredPointsExpireWithOrWithoutCheckpoint) {
  for (const bool with_checkpoint : {false, true}) {
    SCOPED_TRACE(with_checkpoint ? "checkpoint after bootstrap" : "log only");
    const std::string dir = fresh_dir();
    auto clock = std::make_shared<std::atomic<std::uint64_t>>(1);
    service_config cfg = base_cfg(dir);
    cfg.policy = shard_policy::hash;
    cfg.point_ttl_ns = 1000;
    cfg.ttl_now = [clock] { return clock->load(); };
    {
      query::query_service<2> svc(cfg);
      svc.bootstrap(initial_points(10));
      if (with_checkpoint) ASSERT_TRUE(svc.checkpoint_now());
      std::vector<request<2>> inserts;
      for (int i = 0; i < 10; ++i) {
        inserts.push_back(request<2>::make_insert(P(0.05 + 0.09 * i, 0.5)));
      }
      svc.execute(inserts);
    }  // the clock never moved: nothing expired before the crash
    auto rec = query::query_service<2>::recover(dir, cfg);
    ASSERT_EQ(rec->size(), 20u);
    clock->store(5000);  // past every recovered point's window
    rec->execute({request<2>::make_insert(P(0.5, 0.95))});
    EXPECT_TRUE(eventually([&] { return rec->stats().expired_points >= 20; }))
        << "expired " << rec->stats().expired_points << " of 20";
    fence_drain(*rec);
    EXPECT_EQ(rec->stats().expired_points, 20u);
    EXPECT_EQ(rec->size(), 1u);  // only the fresh insert is still live
    rec->close();
    remove_dir(dir);
  }
}

// A rebalance is a logged group like any other: when the append that
// carries its migration fails, no point moves and no bound changes, so
// every shard still holds exactly what the log says it does.
TEST_F(RecoveryEdge, FailedRebalanceAppendMovesNothing) {
  const auto skew_ticket = [](std::size_t b) {
    std::vector<request<2>> t;
    for (int i = 0; i < 32; ++i) {
      t.push_back(request<2>::make_insert(
          P(0.01 + 0.001 * static_cast<double>(b), 0.01 + 0.0001 * i)));
    }
    return t;
  };
  const auto config = [](const std::string& dir) {
    service_config cfg = base_cfg(dir);
    cfg.shards = 4;
    cfg.rebalance_threshold = 1.2;
    return cfg;
  };
  std::vector<point<2>> grid;
  for (int i = 0; i < 256; ++i) {
    grid.push_back(P((i % 16) / 16.0, (i / 16) / 16.0));
  }

  // Unarmed run: which append carries the migration, after how many
  // skewed tickets.
  std::size_t tickets = 0;
  std::uint64_t migration_append = 0;
  {
    const std::string dir = fresh_dir();
    query::query_service<2> svc(config(dir));
    svc.bootstrap(grid);
    while (svc.stats().rebalances == 0 && tickets < 64) {
      svc.execute(skew_ticket(tickets++));
      fence_drain(svc);
    }
    ASSERT_GE(svc.stats().rebalances, 1u) << "skew must rebalance";
    ASSERT_GT(svc.stats().rebalance_moved, 0u);
    for (const auto& g : svc.log()->read_from(0)) {
      if (g.origin == query::log_origin::rebalance) {
        migration_append = g.epoch;  // appends are epochs 1, 2, ...
        break;
      }
    }
    ASSERT_GT(migration_append, 0u);
    svc.close();
    remove_dir(dir);
  }

  // Armed run: the same stream, with that append failing.
  const std::string dir = fresh_dir();
  std::vector<std::vector<point<2>>> primary_shards;
  {
    fault::fault_spec spec;
    spec.nth = migration_append;
    fault::scoped_fault f(fault::kOplogAppend, spec);
    query::query_service<2> svc(config(dir));
    svc.bootstrap(grid);
    for (std::size_t b = 0; b < tickets; ++b) {
      svc.execute(skew_ticket(b));
      fence_drain(svc);
    }
    const auto st = svc.stats();
    EXPECT_EQ(st.log_append_errors, 1u);
    EXPECT_EQ(st.rebalances, 0u);
    EXPECT_EQ(st.rebalance_moved, 0u);
    primary_shards = sorted_shards(svc);
    svc.close();
  }
  auto rec = query::query_service<2>::recover(dir, config(dir));
  EXPECT_EQ(sorted_shards(*rec), primary_shards);
  rec->close();
  remove_dir(dir);
}

// ---- replica self-healing --------------------------------------------------

namespace {

class ReplicaHealing : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

}  // namespace

// A replica forced off the retained ring (checkpoint compaction
// truncated the log below its position) resyncs from the checkpoint
// instead of dying with a terminal replay gap.
TEST_F(ReplicaHealing, RingEvictionResyncsFromCheckpoint) {
  const std::string dir = fresh_dir();
  const service_config cfg = base_cfg(dir);
  query::query_service<2> primary(cfg);
  primary.bootstrap(initial_points(40));
  const traffic_plan t = make_traffic(6);
  for (std::size_t b = 0; b < 3; ++b) primary.execute(t.batches[b]);
  // Checkpoint + compact: epochs 1..4 leave the ring and the file.
  ASSERT_TRUE(primary.checkpoint_now());
  for (std::size_t b = 3; b < 6; ++b) primary.execute(t.batches[b]);

  // The replica starts at epoch 0 — below the compaction point.
  query::replica_set<2> replicas(primary.log(), cfg, 1,
                                 /*start_tails=*/false, dir);
  replicas.pump();
  EXPECT_FALSE(replicas.tail_failed()) << replicas.tail_error();
  EXPECT_EQ(replicas.resyncs(0), 1u);
  EXPECT_EQ(replicas.health(0), query::replica_health::healthy);
  EXPECT_EQ(replicas.replica(0).replay_error_count(), 0u);
  EXPECT_EQ(replicas.applied_epoch(0), primary.log()->head());

  auto a = replicas.replica(0).gather();
  auto e = primary.gather();
  std::sort(a.begin(), a.end());
  std::sort(e.begin(), e.end());
  EXPECT_EQ(a, e);
  // Canonical row equality (checkpoint-rebuilt tree vs incremental).
  const auto probes = probe_batch();
  testutil::expect_same_responses<2>(
      probes, replicas.replica(0).execute(probes).responses,
      primary.execute(probes).responses);
  EXPECT_GT(replicas.total_resyncs(), 0u);
  replicas.close();
  primary.close();
  remove_dir(dir);
}

// A replay error (injected at replica.apply) diverges the replica; with
// a checkpoint source it heals by rebootstrapping and re-replaying.
TEST_F(ReplicaHealing, ReplayDivergenceHealsFromCheckpoint) {
  const std::string dir = fresh_dir();
  const service_config cfg = base_cfg(dir);
  query::query_service<2> primary(cfg);
  primary.bootstrap(initial_points(40));
  const traffic_plan t = make_traffic(4);
  for (std::size_t b = 0; b < 2; ++b) primary.execute(t.batches[b]);

  // The replica catches up while the log is still fully retained, so the
  // injected fault lands in ordinary tail replay — not in a gap resync.
  query::replica_set<2> replicas(primary.log(), cfg, 1,
                                 /*start_tails=*/false, dir);
  replicas.pump();
  ASSERT_FALSE(replicas.tail_failed()) << replicas.tail_error();
  ASSERT_EQ(replicas.resyncs(0), 0u);

  ASSERT_TRUE(primary.checkpoint_now());
  for (std::size_t b = 2; b < 4; ++b) primary.execute(t.batches[b]);
  {
    fault::fault_spec spec;
    spec.nth = 2;  // one replayed record apply throws, once
    fault::scoped_fault f(fault::kReplicaApply, spec);
    replicas.pump();
  }
  EXPECT_FALSE(replicas.tail_failed()) << replicas.tail_error();
  EXPECT_EQ(replicas.health(0), query::replica_health::healthy);
  EXPECT_GE(replicas.resyncs(0), 1u);
  auto a = replicas.replica(0).gather();
  auto e = primary.gather();
  std::sort(a.begin(), a.end());
  std::sort(e.begin(), e.end());
  EXPECT_EQ(a, e);
  replicas.close();
  primary.close();
  remove_dir(dir);
}

// Without a checkpoint source the same gap is terminal: the replica is
// quarantined and the router degrades every read to the primary.
TEST_F(ReplicaHealing, GapWithoutSourceQuarantinesAndRouterDegrades) {
  const std::string dir = fresh_dir();
  const service_config cfg = base_cfg(dir);
  query::query_service<2> primary(cfg);
  primary.bootstrap(initial_points(40));
  const traffic_plan t = make_traffic(4);
  for (std::size_t b = 0; b < 2; ++b) primary.execute(t.batches[b]);
  ASSERT_TRUE(primary.checkpoint_now());
  primary.execute(t.batches[2]);

  query::replica_set<2> replicas(primary.log(), cfg, 1,
                                 /*start_tails=*/false);  // no source
  replicas.pump();
  EXPECT_TRUE(replicas.tail_failed());
  EXPECT_EQ(replicas.health(0), query::replica_health::quarantined);
  EXPECT_EQ(replicas.quarantined(), 1u);

  query::replica_router<2> router(primary, replicas, primary.log(),
                                  /*max_epoch_lag=*/1 << 20);
  const auto res = router.execute(probe_batch());
  EXPECT_EQ(res.responses.size(), probe_batch().size());
  const auto rs = router.stats();
  EXPECT_EQ(rs.reads_to_replicas, 0u);
  EXPECT_EQ(rs.reads_to_primary, 1u);
  EXPECT_EQ(rs.fallbacks, 1u);

  const auto metrics = query::replication_metrics_text<2>(
      replicas, *primary.log(), &rs);
  EXPECT_NE(metrics.find("pargeo_replicas_quarantined 1"), std::string::npos);
  EXPECT_NE(metrics.find("pargeo_replica_health{replica=\"0\"} 3"),
            std::string::npos);
  replicas.close();
  primary.close();
  remove_dir(dir);
}

// A checkpoint from another topology cannot heal a replica: the resync
// quarantines it instead of rebuilding 3 shards from 2 shards' state.
TEST_F(ReplicaHealing, ResyncFromAnotherTopologyQuarantines) {
  const std::string dir = fresh_dir();
  const service_config cfg = base_cfg(dir);
  query::query_service<2> primary(cfg);
  primary.bootstrap(initial_points(40));
  primary.execute(make_traffic(1).batches[0]);
  ASSERT_TRUE(primary.checkpoint_now());  // compacts epochs 1..2 away

  service_config wide = cfg;
  wide.shards = 3;
  query::replica_set<2> replicas(primary.log(), wide, 1,
                                 /*start_tails=*/false, dir);
  replicas.pump();
  EXPECT_TRUE(replicas.tail_failed());
  EXPECT_EQ(replicas.health(0), query::replica_health::quarantined);
  EXPECT_NE(replicas.tail_error().find("holds 2 shards"), std::string::npos)
      << replicas.tail_error();
  EXPECT_EQ(replicas.resyncs(0), 0u);
  replicas.close();
  primary.close();
  remove_dir(dir);
}

// ---- request deadlines -----------------------------------------------------

namespace {

class Deadlines : public ::testing::Test {};

}  // namespace

TEST_F(Deadlines, ExpiredBatchShedsWithTimedOutCompletion) {
  service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;
  query::query_service<2> svc(cfg);
  svc.bootstrap(initial_points(32));

  // 1 ns relative deadline: expired long before the drain forms a group.
  auto doomed = svc.submit_with_deadline(probe_batch(), 1);
  const auto r = doomed.get();
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(r.responses.empty());
  EXPECT_EQ(svc.stats().deadline_expired, probe_batch().size());
  EXPECT_NE(svc.metrics_text().find("pargeo_deadline_expired_total"),
            std::string::npos);

  // A generous deadline executes normally.
  auto fine = svc.submit_with_deadline(probe_batch(), 5'000'000'000ull);
  const auto ok = fine.get();
  EXPECT_FALSE(ok.timed_out);
  EXPECT_EQ(ok.responses.size(), probe_batch().size());

  // Writes shed the same way — and shed writes are NOT applied.
  std::vector<request<2>> w{request<2>::make_insert(P(0.5, 0.5))};
  const auto shed = svc.submit_with_deadline(w, 1).get();
  EXPECT_TRUE(shed.timed_out);
  EXPECT_EQ(svc.size(), 32u);
  svc.close();
}

TEST_F(Deadlines, ConfigDefaultDeadlineAppliesToSubmit) {
  service_config cfg;
  cfg.shards = 1;
  cfg.policy = shard_policy::hash;
  cfg.deadline_ns = 1;  // every plain submit() inherits a 1 ns deadline
  query::query_service<2> svc(cfg);
  svc.bootstrap(initial_points(16));
  const auto r = svc.submit(probe_batch()).get();
  EXPECT_TRUE(r.timed_out);
  EXPECT_GT(svc.stats().deadline_expired, 0u);
  svc.close();
}

// Shed tickets complete through the same path as executed ones, so every
// redemption route must see the verdict: on_complete fires exactly once
// (armed before the shed, or after it), a dropped handle retains nothing,
// and the shed batches give their backpressure budget back.
TEST_F(Deadlines, ShedTicketsCompleteThroughEveryRedemptionPath) {
  service_config cfg;
  cfg.shards = 2;
  cfg.policy = shard_policy::hash;
  // Bounded, with room for every ticket below: a budget leak shows up in
  // pending_requests instead of blocking the next submit.
  cfg.max_pending_requests = 8 * probe_batch().size();
  query::query_service<2> svc(cfg);
  svc.bootstrap(initial_points(32));

  std::atomic<int> fires{0};
  std::atomic<int> bad{0};
  const auto cb = [&](query::ticket_result<2>&& r, std::exception_ptr err) {
    if (!r.timed_out || err || !r.responses.empty()) ++bad;
    ++fires;
  };
  auto armed = svc.submit_with_deadline(probe_batch(), 1);
  armed.on_complete(cb);
  auto late = svc.submit_with_deadline(probe_batch(), 1);
  while (!late.ready()) std::this_thread::yield();
  late.on_complete(cb);
  while (fires.load() < 2) std::this_thread::yield();

  { auto dropped = svc.submit_with_deadline(probe_batch(), 1); }
  // FIFO drain: this ticket completes after every shed one above.
  EXPECT_FALSE(svc.submit(probe_batch()).get().timed_out);
  EXPECT_EQ(fires.load(), 2);
  EXPECT_EQ(bad.load(), 0);
  const auto st = svc.stats();
  EXPECT_EQ(st.deadline_expired, 3 * probe_batch().size());
  EXPECT_EQ(st.results_retained, 0u);
  EXPECT_EQ(st.pending_requests, 0u);
  svc.close();
}
