// Op-log unit suite (query/oplog.h): dense epoch assignment and ring
// retention, tailer reads (replay-gap detection, wait_for_head), and the
// v2 segmented file format — durable incremental append, checkpoint
// compaction, and the salvage semantics recovery depends on: a torn or
// frame-corrupt file yields its longest valid frame prefix (counting
// truncated_groups), while header damage (bad magic/version/dim or
// header checksum) still rejects the whole file. Corrupt element counts
// must throw, not resize gigabytes — no UB under ASan. Frames and
// checkpoints, the service's genesis frame included, must match a
// per-coordinate reference encoder byte for byte.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "datagen/datagen.h"
#include "query/checkpoint.h"
#include "query/oplog.h"
#include "query/query_service.h"

using namespace pargeo;
using query::checkpoint_data;
using query::log_group;
using query::log_op;
using query::log_origin;
using query::log_record;
using query::op_log;

namespace {

point<2> pt(double x, double y) {
  point<2> p;
  p[0] = x;
  p[1] = y;
  return p;
}

log_record<2> rec(std::uint32_t shard, log_op kind,
                  std::vector<point<2>> pts) {
  log_record<2> r;
  r.shard = shard;
  r.kind = kind;
  r.pts = std::move(pts);
  return r;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<unsigned char> buf;
  unsigned char chunk[4096];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf.insert(buf.end(), chunk, chunk + got);
  }
  std::fclose(f);
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

log_group<2> sample_group(log_origin origin, double base) {
  log_group<2> g;
  g.origin = origin;
  g.records.push_back(
      rec(0, log_op::insert, {pt(base, base + 1), pt(base + 2, base + 3)}));
  g.records.push_back(rec(1, log_op::erase, {pt(base, base + 1)}));
  return g;
}

void expect_groups_equal(const log_group<2>& a, const log_group<2>& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.has_bounds, b.has_bounds);
  EXPECT_EQ(a.split_dim, b.split_dim);
  EXPECT_EQ(a.cuts, b.cuts);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].shard, b.records[i].shard);
    EXPECT_EQ(a.records[i].kind, b.records[i].kind);
    EXPECT_EQ(a.records[i].pts, b.records[i].pts);
  }
}

TEST(OpLog, AppendAssignsDenseEpochs) {
  op_log<2> log;
  EXPECT_EQ(log.head(), 0u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.first_retained(), 1u);
  for (std::uint64_t e = 1; e <= 5; ++e) {
    EXPECT_EQ(log.append(sample_group(log_origin::client, double(e))), e);
  }
  EXPECT_EQ(log.head(), 5u);
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.first_retained(), 1u);
  const auto all = log.read_from(0);
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].epoch, i + 1);
  }
}

TEST(OpLog, ReadFromRespectsAfterAndMax) {
  op_log<2> log;
  for (int i = 0; i < 10; ++i) {
    log.append(sample_group(log_origin::client, i));
  }
  const auto tail = log.read_from(7);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().epoch, 8u);
  const auto capped = log.read_from(2, 4);
  ASSERT_EQ(capped.size(), 4u);
  EXPECT_EQ(capped.front().epoch, 3u);
  EXPECT_EQ(capped.back().epoch, 6u);
  EXPECT_TRUE(log.read_from(10).empty());
}

TEST(OpLog, RingDropsOldestAndGapThrows) {
  op_log<2> log(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    log.append(sample_group(log_origin::client, i));
  }
  EXPECT_EQ(log.head(), 10u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.first_retained(), 7u);
  // A tailer at epoch 6 can continue (needs 7, retained); one at 5 lost
  // epoch 6 forever and must hear about it.
  EXPECT_EQ(log.read_from(6).size(), 4u);
  EXPECT_THROW(log.read_from(5), std::runtime_error);
  EXPECT_THROW(log.read_from(0), std::runtime_error);
}

TEST(OpLog, WaitForHeadSeesAppends) {
  op_log<2> log;
  EXPECT_FALSE(log.wait_for_head(0, std::chrono::milliseconds(1)));
  log.append(sample_group(log_origin::client, 0));
  EXPECT_TRUE(log.wait_for_head(0, std::chrono::milliseconds(1)));
  EXPECT_FALSE(log.wait_for_head(1, std::chrono::milliseconds(1)));
}

TEST(OpLog, FileRoundTripAllOriginsAndBounds) {
  op_log<2> log;
  {
    log_group<2> g;  // bootstrap: build records + stripe bounds
    g.origin = log_origin::bootstrap;
    g.has_bounds = true;
    g.split_dim = 1;
    g.cuts = {0.25, 0.75};
    g.records.push_back(rec(0, log_op::build, {pt(0, 0), pt(0.1, 0.1)}));
    g.records.push_back(rec(1, log_op::build, {}));  // empty shard build
    g.records.push_back(rec(2, log_op::build, {pt(0.9, 0.9)}));
    log.append(std::move(g));
  }
  log.append(sample_group(log_origin::client, 1.0));
  log.append(sample_group(log_origin::expire, 2.0));
  {
    log_group<2> g;  // rebalance: new bounds + migration records
    g.origin = log_origin::rebalance;
    g.has_bounds = true;
    g.split_dim = 0;
    g.cuts = {0.4, 0.6};
    g.records.push_back(rec(2, log_op::erase, {pt(0.9, 0.9)}));
    g.records.push_back(rec(1, log_op::insert, {pt(0.9, 0.9)}));
    log.append(std::move(g));
  }

  const std::string path = temp_path("oplog_roundtrip.bin");
  log.write_log(path);
  const auto loaded = op_log<2>::read_log(path);
  EXPECT_EQ(loaded->head(), log.head());
  EXPECT_EQ(loaded->size(), log.size());
  const auto want = log.read_from(0);
  const auto got = loaded->read_from(0);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_groups_equal(got[i], want[i]);
  }
  std::remove(path.c_str());
}

TEST(OpLog, EmptyLogRoundTrips) {
  op_log<2> log;
  const std::string path = temp_path("oplog_empty.bin");
  log.write_log(path);
  const auto loaded = op_log<2>::read_log(path);
  EXPECT_EQ(loaded->head(), 0u);
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_TRUE(loaded->read_from(0).empty());
  // A reloaded empty log keeps appending from epoch 1.
  EXPECT_EQ(loaded->append(sample_group(log_origin::client, 0)), 1u);
  std::remove(path.c_str());
}

TEST(OpLog, ExpiryOnlyLogRoundTrips) {
  // A service can commit nothing but TTL sweeps (pure-read traffic over
  // an expiring set); the log then holds only origin=expire erase groups.
  op_log<2> log;
  for (int i = 0; i < 3; ++i) {
    log_group<2> g;
    g.origin = log_origin::expire;
    g.records.push_back(
        rec(static_cast<std::uint32_t>(i % 2), log_op::erase,
            {pt(i, i), pt(i + 0.5, i + 0.5)}));
    log.append(std::move(g));
  }
  const std::string path = temp_path("oplog_expire_only.bin");
  log.write_log(path);
  const auto loaded = op_log<2>::read_log(path);
  const auto got = loaded->read_from(0);
  ASSERT_EQ(got.size(), 3u);
  for (const auto& g : got) {
    EXPECT_EQ(g.origin, log_origin::expire);
    for (const auto& r : g.records) EXPECT_EQ(r.kind, log_op::erase);
  }
  std::remove(path.c_str());
}

// magic + version + dim + start_after + header checksum (oplog.h v2).
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8 + 8;

TEST(OpLog, TornTailSalvagesValidPrefix) {
  op_log<2> log;
  log.append(sample_group(log_origin::client, 0));
  log.append(sample_group(log_origin::client, 1));
  const std::string path = temp_path("oplog_trunc.bin");
  log.write_log(path);
  const auto full = slurp(path);
  const auto want = log.read_from(0);

  // Cuts inside the header still reject the whole file.
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{11}, kHeaderSize - 1}) {
    spit(path, {full.begin(), full.begin() + keep});
    EXPECT_THROW(op_log<2>::read_log(path), std::runtime_error)
        << "prefix of " << keep << " bytes";
  }

  // Both groups serialize identically, so the two frames split the
  // post-header bytes evenly — walk EVERY cut point past the header
  // (zero-length tail, mid-length-field, mid-payload, mid-checksum) and
  // check the salvage is exactly the complete-frame prefix.
  const std::size_t frame = (full.size() - kHeaderSize) / 2;
  ASSERT_EQ(kHeaderSize + 2 * frame, full.size());
  for (std::size_t keep = kHeaderSize; keep <= full.size(); ++keep) {
    spit(path, {full.begin(), full.begin() + keep});
    const std::size_t whole = (keep - kHeaderSize) / frame;
    const bool partial = (keep - kHeaderSize) % frame != 0;
    query::log_recovery_stats rs;
    std::shared_ptr<op_log<2>> loaded;
    ASSERT_NO_THROW(loaded = op_log<2>::read_log(path, 1 << 20, &rs))
        << "prefix of " << keep << " bytes";
    EXPECT_EQ(rs.groups, whole) << "prefix of " << keep << " bytes";
    EXPECT_EQ(rs.truncated_groups, partial ? 1u : 0u)
        << "prefix of " << keep << " bytes";
    EXPECT_EQ(loaded->head(), whole);
    const auto got = loaded->read_from(0);
    ASSERT_EQ(got.size(), whole);
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_groups_equal(got[i], want[i]);
    }
    // Appends continue from the salvaged head, not the torn tail.
    EXPECT_EQ(loaded->append(sample_group(log_origin::client, 7)), whole + 1);
  }
  std::remove(path.c_str());
}

TEST(OpLog, CorruptHeaderRejectsCorruptFrameSalvages) {
  op_log<2> log;
  log.append(sample_group(log_origin::client, 0));
  log.append(sample_group(log_origin::client, 1));
  const std::string path = temp_path("oplog_corrupt.bin");
  log.write_log(path);
  const auto buf = slurp(path);
  const std::size_t frame = (buf.size() - kHeaderSize) / 2;

  // A flipped header byte rejects the whole file (no epoch base to
  // trust frames against).
  for (std::size_t at :
       {std::size_t{0}, std::size_t{5}, std::size_t{14}, kHeaderSize - 1}) {
    auto bad = buf;
    bad[at] ^= 0x40;
    spit(path, bad);
    EXPECT_THROW(op_log<2>::read_log(path), std::runtime_error)
        << "flipped byte " << at;
  }

  // A flipped byte inside frame 2 drops only frame 2.
  {
    auto bad = buf;
    bad[kHeaderSize + frame + frame / 2] ^= 0x40;
    spit(path, bad);
    query::log_recovery_stats rs;
    const auto loaded = op_log<2>::read_log(path, 1 << 20, &rs);
    EXPECT_EQ(rs.groups, 1u);
    EXPECT_EQ(rs.truncated_groups, 1u);
    EXPECT_EQ(loaded->head(), 1u);
  }

  // A flipped byte inside frame 1's payload drops everything after it —
  // the structural walk still counts both dropped frames exactly,
  // because the framing (length fields) survived.
  {
    auto bad = buf;
    bad[kHeaderSize + frame / 2] ^= 0x40;
    spit(path, bad);
    query::log_recovery_stats rs;
    const auto loaded = op_log<2>::read_log(path, 1 << 20, &rs);
    EXPECT_EQ(rs.groups, 0u);
    EXPECT_EQ(rs.truncated_groups, 2u);
    EXPECT_EQ(loaded->head(), 0u);
    EXPECT_EQ(loaded->size(), 0u);
  }
  std::remove(path.c_str());
}

TEST(OpLog, DurableAppendPersistsIncrementally) {
  const std::string path = temp_path("oplog_durable.bin");
  op_log<2> log;
  log.append(sample_group(log_origin::client, 0));  // pre-attach history
  log.open_durable(path, query::sync_policy::every_commit);
  for (int i = 1; i < 5; ++i) {
    log.append(sample_group(log_origin::client, i));
  }
  const auto ds = log.durable_stats();
  EXPECT_EQ(ds.frames, 4u);  // appended after attach
  EXPECT_GE(ds.syncs, 5u);   // rewrite + one per commit
  EXPECT_FALSE(ds.failed);
  // No close_durable(): the file must already be complete on disk.
  query::log_recovery_stats rs;
  const auto loaded = op_log<2>::read_log(path, 1 << 20, &rs);
  EXPECT_EQ(rs.groups, 5u);  // attach rewrote the pre-attach group too
  EXPECT_EQ(rs.truncated_groups, 0u);
  EXPECT_EQ(loaded->head(), 5u);
  const auto want = log.read_from(0);
  const auto got = loaded->read_from(0);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_groups_equal(got[i], want[i]);
  }
  std::remove(path.c_str());
}

TEST(OpLog, CompactTruncatesRingAndFile) {
  const std::string path = temp_path("oplog_compact.bin");
  op_log<2> log;
  log.open_durable(path, query::sync_policy::none);
  for (int i = 0; i < 10; ++i) {
    log.append(sample_group(log_origin::client, i));
  }
  EXPECT_EQ(log.compact(6), 6u);
  EXPECT_EQ(log.first_retained(), 7u);
  EXPECT_EQ(log.head(), 10u);
  EXPECT_EQ(log.start_after(), 6u);
  // One more durable append after compaction, then reload.
  log.append(sample_group(log_origin::client, 10));
  const auto loaded = op_log<2>::read_log(path);
  EXPECT_EQ(loaded->head(), 11u);
  EXPECT_EQ(loaded->first_retained(), 7u);
  EXPECT_EQ(loaded->recovery_stats().start_after, 6u);
  EXPECT_EQ(loaded->read_from(6).size(), 5u);
  // A tailer below the compaction point now gaps — checkpoint resync
  // territory, not silent data loss.
  EXPECT_THROW(loaded->read_from(5), std::runtime_error);
  std::remove(path.c_str());
}

TEST(OpLog, ResetBaseContinuesFromCheckpointEpoch) {
  op_log<2> log;
  log.reset_base(41);
  EXPECT_EQ(log.head(), 41u);
  EXPECT_EQ(log.append(sample_group(log_origin::client, 0)), 42u);
  EXPECT_THROW(log.reset_base(7), std::logic_error);  // non-empty now
}

TEST(OpLog, TornWriteFaultLatchesFailedState) {
  const std::string path = temp_path("oplog_torn_fault.bin");
  op_log<2> log;
  log.open_durable(path, query::sync_policy::every_commit);
  log.append(sample_group(log_origin::client, 0));
  log.append(sample_group(log_origin::client, 1));
  {
    query::fault::fault_spec spec;
    spec.action = query::fault::fault_action::torn_write;
    spec.nth = 1;
    spec.torn_keep_bytes = 10;
    query::fault::scoped_fault f(query::fault::kOplogFileWrite, spec);
    EXPECT_THROW(log.append(sample_group(log_origin::client, 2)),
                 std::runtime_error);
  }
  // The failed append never published: head unchanged, state latched,
  // later appends fail fast.
  EXPECT_EQ(log.head(), 2u);
  EXPECT_TRUE(log.durable_stats().failed);
  EXPECT_THROW(log.append(sample_group(log_origin::client, 3)),
               std::runtime_error);
  // On disk: the two whole frames salvage; the 10 torn bytes count as
  // one truncated group.
  query::log_recovery_stats rs;
  const auto loaded = op_log<2>::read_log(path, 1 << 20, &rs);
  EXPECT_EQ(rs.groups, 2u);
  EXPECT_EQ(rs.truncated_groups, 1u);
  EXPECT_EQ(loaded->head(), 2u);
  std::remove(path.c_str());
}

TEST(OpLog, WrongDimensionRejected) {
  op_log<2> log;
  log.append(sample_group(log_origin::client, 0));
  const std::string path = temp_path("oplog_dim.bin");
  log.write_log(path);
  EXPECT_THROW(op_log<3>::read_log(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(OpLog, MissingFileRejected) {
  EXPECT_THROW(op_log<2>::read_log(temp_path("oplog_nonexistent.bin")),
               std::runtime_error);
}

TEST(OpLog, ReloadedLogContinuesEpochs) {
  op_log<2> log;
  for (int i = 0; i < 4; ++i) {
    log.append(sample_group(log_origin::client, i));
  }
  const std::string path = temp_path("oplog_continue.bin");
  log.write_log(path);
  const auto loaded = op_log<2>::read_log(path);
  EXPECT_EQ(loaded->append(sample_group(log_origin::client, 9)), 5u);
  EXPECT_EQ(loaded->head(), 5u);
  std::remove(path.c_str());
}

// ---- golden bytes: the codec against a per-coordinate reference encoder ---

// The encoder the op log and checkpoints used before runs of points were
// copied whole, kept as the oracle: every field appended on its own, every
// point one coordinate at a time.
struct reference_bytes {
  std::vector<unsigned char> b;
  void raw(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    b.insert(b.end(), c, c + n);
  }
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  template <int D>
  void points(const std::vector<point<D>>& pts) {
    u64(pts.size());
    for (const auto& p : pts) {
      for (int d = 0; d < D; ++d) f64(p[d]);
    }
  }
};

std::uint64_t reference_fnv1a(const std::vector<unsigned char>& b) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : b) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

template <int D>
std::vector<unsigned char> reference_log_header(std::uint64_t start_after) {
  reference_bytes h;
  h.raw("PGOL", 4);
  h.u32(2);
  h.u32(D);
  h.u64(start_after);
  h.u64(reference_fnv1a(h.b));
  return h.b;
}

template <int D>
std::vector<unsigned char> reference_frame(const log_group<D>& g) {
  reference_bytes body;
  body.u64(g.epoch);
  body.u8(static_cast<std::uint8_t>(g.origin));
  body.u8(g.has_bounds ? 1 : 0);
  body.u32(static_cast<std::uint32_t>(g.split_dim));
  body.u64(g.cuts.size());
  for (const double c : g.cuts) body.f64(c);
  body.u64(g.records.size());
  for (const auto& r : g.records) {
    body.u32(r.shard);
    body.u8(static_cast<std::uint8_t>(r.kind));
    body.points(r.pts);
  }
  reference_bytes f;
  f.u32(static_cast<std::uint32_t>(body.b.size()));
  f.raw(body.b.data(), body.b.size());
  f.u64(reference_fnv1a(body.b));
  return f.b;
}

template <int D>
std::vector<unsigned char> reference_checkpoint(
    const checkpoint_data<D>& ck) {
  reference_bytes c;
  c.raw("PGCK", 4);
  c.u32(1);
  c.u32(D);
  c.u64(ck.epoch);
  c.u8(ck.bounds_set ? 1 : 0);
  c.u32(static_cast<std::uint32_t>(ck.split_dim));
  c.u64(ck.cuts.size());
  for (const double x : ck.cuts) c.f64(x);
  c.u64(ck.shard_points.size());
  for (const auto& shard : ck.shard_points) c.points(shard);
  c.u64(reference_fnv1a(c.b));
  return c.b;
}

// n points whose coordinates include awkward bit patterns: negative zero,
// a subnormal, huge and negative values.
template <int D>
std::vector<point<D>> golden_points(std::size_t n, double base) {
  const double odd[] = {-0.0, 4.9e-320, 1e300, -7.25, 0.1};
  std::vector<point<D>> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < D; ++d) {
      pts[i][d] = i % 7 == 3 ? odd[(i + d) % 5]
                             : base + 0.37 * static_cast<double>(i) + d;
    }
  }
  return pts;
}

template <int D>
log_record<D> golden_record(std::uint32_t shard, log_op kind,
                            std::vector<point<D>> pts) {
  log_record<D> r;
  r.shard = shard;
  r.kind = kind;
  r.pts = std::move(pts);
  return r;
}

// One group of every origin, with empty records, and one run past the
// 1 MiB at which the writer copies on the workers.
template <int D>
std::vector<log_group<D>> golden_groups() {
  std::vector<log_group<D>> gs(4);
  gs[0].origin = log_origin::bootstrap;
  gs[0].has_bounds = true;
  gs[0].split_dim = D - 1;
  gs[0].cuts = {-0.5, 3.0, std::numeric_limits<double>::infinity()};
  gs[0].records.push_back(
      golden_record(0, log_op::build, golden_points<D>(5, 1)));
  gs[0].records.push_back(golden_record<D>(1, log_op::build, {}));
  gs[0].records.push_back(
      golden_record(2, log_op::build, golden_points<D>(70000, 2)));
  gs[0].records.push_back(golden_record<D>(3, log_op::build, {}));
  gs[1].origin = log_origin::client;
  gs[1].records.push_back(
      golden_record(1, log_op::insert, golden_points<D>(9, 3)));
  gs[1].records.push_back(
      golden_record(1, log_op::erase, golden_points<D>(2, 3)));
  gs[1].records.push_back(golden_record<D>(3, log_op::insert, {}));
  gs[2].origin = log_origin::expire;
  gs[2].records.push_back(
      golden_record(0, log_op::erase, golden_points<D>(4, 4)));
  gs[3].origin = log_origin::rebalance;
  gs[3].has_bounds = true;
  gs[3].split_dim = 0;
  gs[3].cuts = {0.0, 2.5, 9.0};
  gs[3].records.push_back(
      golden_record(2, log_op::erase, golden_points<D>(6, 5)));
  gs[3].records.push_back(
      golden_record(0, log_op::insert, golden_points<D>(6, 5)));
  return gs;
}

// Bitwise, so that -0.0 must come back as -0.0.
template <int D>
bool same_bits(const std::vector<point<D>>& a,
               const std::vector<point<D>>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(point<D>)) == 0);
}

template <int D>
void expect_same_group(const log_group<D>& a, const log_group<D>& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.has_bounds, b.has_bounds);
  EXPECT_EQ(a.split_dim, b.split_dim);
  EXPECT_EQ(a.cuts, b.cuts);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].shard, b.records[i].shard);
    EXPECT_EQ(a.records[i].kind, b.records[i].kind);
    EXPECT_TRUE(same_bits(a.records[i].pts, b.records[i].pts));
  }
}

// Durable appends, a one-shot dump and a compaction rewrite all write the
// reference bytes, and reading them back returns the groups.
template <int D>
void expect_log_matches_reference_encoder() {
  const auto groups = golden_groups<D>();
  op_log<D> log;
  const std::string durable = temp_path("oplog_golden_durable.bin");
  log.open_durable(durable, query::sync_policy::none);
  std::vector<unsigned char> want = reference_log_header<D>(0);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    log.append(groups[i]);
    auto g = groups[i];
    g.epoch = i + 1;
    const auto frame = reference_frame(g);
    want.insert(want.end(), frame.begin(), frame.end());
  }
  log.close_durable();
  EXPECT_TRUE(slurp(durable) == want);

  const std::string dump = temp_path("oplog_golden_dump.bin");
  log.write_log(dump);
  EXPECT_TRUE(slurp(dump) == want);

  const auto loaded = op_log<D>::read_log(dump);
  const auto got = loaded->read_from(0);
  ASSERT_EQ(got.size(), groups.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    auto g = groups[i];
    g.epoch = i + 1;
    expect_same_group(got[i], g);
  }

  // Compaction rewrites the file from the first retained group on.
  log.open_durable(durable, query::sync_policy::none);
  log.compact(2);
  std::vector<unsigned char> tail = reference_log_header<D>(2);
  for (std::size_t i = 2; i < groups.size(); ++i) {
    auto g = groups[i];
    g.epoch = i + 1;
    const auto frame = reference_frame(g);
    tail.insert(tail.end(), frame.begin(), frame.end());
  }
  log.close_durable();
  EXPECT_TRUE(slurp(durable) == tail);
  std::remove(durable.c_str());
  std::remove(dump.c_str());
}

template <int D>
void expect_checkpoint_matches_reference_encoder() {
  checkpoint_data<D> ck;
  ck.epoch = 17;
  ck.bounds_set = true;
  ck.split_dim = D - 1;
  ck.cuts = {0.5, std::numeric_limits<double>::infinity()};
  ck.shard_points = {golden_points<D>(70000, 6), {}, golden_points<D>(3, 7)};
  const std::string dir = temp_path("ck_golden_") + std::to_string(D);
  query::write_checkpoint<D>(dir, ck);
  const std::string file = dir + "/ck-17.pgck";
  EXPECT_TRUE(slurp(file) == reference_checkpoint(ck));
  checkpoint_data<D> back;
  ASSERT_TRUE(query::read_latest_checkpoint<D>(dir, back));
  EXPECT_EQ(back.epoch, ck.epoch);
  EXPECT_EQ(back.bounds_set, ck.bounds_set);
  EXPECT_EQ(back.split_dim, ck.split_dim);
  EXPECT_EQ(back.cuts, ck.cuts);
  ASSERT_EQ(back.shard_points.size(), ck.shard_points.size());
  for (std::size_t s = 0; s < ck.shard_points.size(); ++s) {
    EXPECT_TRUE(same_bits(back.shard_points[s], ck.shard_points[s]));
  }
  std::remove(file.c_str());
  std::remove((dir + "/CURRENT").c_str());
  ::rmdir(dir.c_str());
}

TEST(OpLogCodec, FramesMatchThePerCoordinateEncoder2D) {
  expect_log_matches_reference_encoder<2>();
}

TEST(OpLogCodec, FramesMatchThePerCoordinateEncoder3D) {
  expect_log_matches_reference_encoder<3>();
}

TEST(OpLogCodec, CheckpointsMatchThePerCoordinateEncoder) {
  expect_checkpoint_matches_reference_encoder<2>();
  expect_checkpoint_matches_reference_encoder<3>();
}

// The service's own genesis frame: 1-shard hash, 3-shard spatial with an
// empty shard, and 2 spatial shards large enough that every step runs on
// the workers.
template <int D>
void expect_service_genesis_matches_reference_encoder(
    std::size_t shards, query::shard_policy policy,
    const std::vector<point<D>>& pts) {
  const std::string dir = temp_path("svc_golden_") + std::to_string(D) +
                          "_" + std::to_string(shards);
  query::service_config cfg;
  cfg.shards = shards;
  cfg.policy = policy;
  cfg.log_dir = dir;
  cfg.sync = query::sync_policy::none;
  std::vector<log_group<D>> groups;
  {
    query::query_service<D> service(cfg);
    service.bootstrap(pts);
    service.execute({query::request<D>::make_insert(pts.front()),
                     query::request<D>::make_erase(pts.back())});
    groups = service.log()->read_from(0);
  }
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].origin, log_origin::bootstrap);
  EXPECT_EQ(groups[0].num_points(), pts.size());
  std::vector<unsigned char> want = reference_log_header<D>(0);
  for (const auto& g : groups) {
    const auto frame = reference_frame(g);
    want.insert(want.end(), frame.begin(), frame.end());
  }
  const std::string file = dir + "/oplog.pgol";
  EXPECT_TRUE(slurp(file) == want);
  std::remove(file.c_str());
  ::rmdir(dir.c_str());
}

TEST(OpLogCodec, ServiceGenesisFramesMatchThePerCoordinateEncoder) {
  std::vector<point<2>> lopsided = golden_points<2>(40, 8);
  for (auto& p : lopsided) p[0] = 1.0;  // one x value: stripes past 1 empty
  expect_service_genesis_matches_reference_encoder<2>(
      1, query::shard_policy::hash, golden_points<2>(50, 9));
  expect_service_genesis_matches_reference_encoder<2>(
      3, query::shard_policy::spatial, lopsided);
  expect_service_genesis_matches_reference_encoder<2>(
      2, query::shard_policy::spatial, datagen::uniform<2>(200000, 10));
  expect_service_genesis_matches_reference_encoder<3>(
      4, query::shard_policy::hash, datagen::uniform<3>(30000, 11));
}

}  // namespace
