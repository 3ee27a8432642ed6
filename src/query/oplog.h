// Replayable write-op log (query subsystem) — the scale-out seam.
//
// A `log_group<D>` is the unit every shard mutation of a
// `query_service<D>` takes: the *exact ordered backend calls*, per shard,
// not the raw client ops. A primary with a log appends each group here
// before it applies it, then executes exactly the records it logged, and
// a replica applies the same records with the same function. That is
// what makes replay byte-identical: the BDL-tree is a deterministic
// function of its call sequence (its insert cascade and below-half
// rebuilds depend on how the stream was cut into
// `batch_insert`/`batch_erase` calls), so
// a replica that re-issues the same per-shard call sequence converges to
// the same structure — and hence the same k-NN tie order — as the
// primary, without ever re-deriving the cuts itself.
//
//   *Groups and epochs*. `append()` assigns dense epochs (1, 2, ...)
//   under the log mutex; the primary's drain thread is the only
//   appender, so log order == commit order. A group records its origin
//   (`bootstrap` | `client` | `expire` | `rebalance`), the spatial
//   stripe geometry when the group (re)defines it, and the ordered
//   per-shard records `{shard, build|insert|erase, points}`.
//
//   *Ring retention*. The in-memory deque keeps the most recent
//   `capacity` groups (drop-oldest); `first_retained()` names the oldest
//   epoch still present. `read_from(after)` throws when the ring has
//   already dropped groups a tailer still needs — a replay gap is not
//   papered over here; replicas recover from it via checkpoint resync.
//   `compact(below)` drops retained groups at or below an epoch (the
//   checkpoint's) and rewrites the durable file so cold recovery stops
//   replaying from epoch 1.
//
//   *Durable segmented format (v2)*. The file is a self-checksummed
//   header followed by independent frames, one per group:
//
//     header:  "PGOL" | u32 version=2 | u32 dim | u64 start_after
//              | u64 fnv1a(header bytes)
//     frame:   u32 len | group payload (len bytes) | u64 fnv1a(payload)
//
//   `start_after` is the epoch base: the first frame holds epoch
//   start_after + 1 and frames are dense from there. Because every
//   frame carries its own checksum, `open_durable()` can append
//   incrementally (with `sync_policy::{none, interval, every_commit}`
//   controlling fsync cadence) and `read_log()` can *salvage* the
//   longest valid frame prefix of a torn file — a crash mid-append
//   costs only the trailing partial frame, counted in
//   `log_recovery_stats::truncated_groups`, instead of rejecting the
//   whole file. Whole-file rejection remains only for header damage
//   (bad magic / version / dim / header checksum).
//
// Thread-safety: all members are safe from any thread (one mutex; the
// hot path is the drain thread's append vs the tail threads' read_from /
// wait_for_head). Note an fsync under `every_commit` runs inside the
// mutex and briefly blocks concurrent readers.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "core/point.h"
#include "parallel/scheduler.h"
#include "query/fault.h"

namespace pargeo::query {

/// The backend call a log record replays. `build` replaces the shard's
/// contents (bootstrap); `insert`/`erase` are the batch-dynamic entry
/// points.
enum class log_op : std::uint8_t { build = 0, insert = 1, erase = 2 };

inline const char* log_op_name(log_op o) {
  switch (o) {
    case log_op::build: return "build";
    case log_op::insert: return "insert";
    case log_op::erase: return "erase";
  }
  return "?";
}

/// Why the primary committed this group.
enum class log_origin : std::uint8_t {
  bootstrap = 0,  // initial build (all shards, possibly empty)
  client = 1,     // a drained client write group
  expire = 2,     // a TTL-expiry sweep
  rebalance = 3,  // a stripe-rebalance migration (new bounds + moves)
};

inline const char* log_origin_name(log_origin o) {
  switch (o) {
    case log_origin::bootstrap: return "bootstrap";
    case log_origin::client: return "client";
    case log_origin::expire: return "expire";
    case log_origin::rebalance: return "rebalance";
  }
  return "?";
}

/// When to fsync the durable log file.
enum class sync_policy : std::uint8_t {
  none = 0,          // flush to page cache only (survives process death)
  interval = 1,      // fsync every op_log::kSyncIntervalGroups appends
  every_commit = 2,  // fsync after every append (survives power loss)
};

inline const char* sync_policy_name(sync_policy s) {
  switch (s) {
    case sync_policy::none: return "none";
    case sync_policy::interval: return "interval";
    case sync_policy::every_commit: return "every_commit";
  }
  return "?";
}

inline sync_policy sync_policy_from_string(const std::string& s) {
  if (s == "none") return sync_policy::none;
  if (s == "interval") return sync_policy::interval;
  if (s == "every_commit") return sync_policy::every_commit;
  throw std::invalid_argument("unknown sync policy '" + s +
                              "' (want none|interval|every_commit)");
}

/// What read_log() salvaged from a durable file.
struct log_recovery_stats {
  std::uint64_t groups = 0;            // frames accepted
  std::uint64_t truncated_groups = 0;  // trailing frames dropped as torn/corrupt
  std::uint64_t start_after = 0;       // epoch base from the file header
};

/// Durable-append counters (bench + metrics export).
struct log_durable_stats {
  std::uint64_t frames = 0;  // frames appended since open_durable()
  std::uint64_t syncs = 0;   // fsync calls issued
  std::uint64_t bytes = 0;   // bytes handed to the OS (incl. torn writes)
  bool failed = false;       // a write fault latched the file off
};

/// One backend call on one shard: replayed verbatim, in record order.
template <int D>
struct log_record {
  std::uint32_t shard = 0;
  log_op kind = log_op::insert;
  std::vector<point<D>> pts;
};

/// One committed write group. `records` hold the primary's per-shard
/// backend calls in the order it issued them (per shard; records of
/// different shards may have executed concurrently and carry no mutual
/// order beyond their position here). Groups that (re)define spatial
/// stripe geometry — bootstrap under spatial sharding, every rebalance —
/// set `has_bounds` and carry the splitting dimension plus the stripe
/// cut positions so replicas route identically afterwards.
template <int D>
struct log_group {
  std::uint64_t epoch = 0;  // dense commit sequence, assigned by append()
  log_origin origin = log_origin::client;
  bool has_bounds = false;
  std::int32_t split_dim = 0;
  std::vector<double> cuts;  // stripe upper cuts, size == shards - 1
  std::vector<log_record<D>> records;

  std::size_t num_points() const {
    std::size_t n = 0;
    for (const auto& r : records) n += r.pts.size();
    return n;
  }
};

// ---- byte codec shared by both durable formats --------------------------
// The op log (below) and checkpoints (query/checkpoint.h) encode alike:
// little-endian fixed-width fields (every supported target is LE; memcpy
// keeps it alias-safe), FNV-1a checksums, one writer into a buffer sized
// beforehand, and one bounds-checked reader whose errors name the format
// and the file. A run of points is one count and then the points' bytes,
// copied whole: each point is D packed doubles, so the bytes are those of
// its coordinates written one by one.
namespace detail {

inline std::uint64_t fnv1a(const unsigned char* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// The bytes of one point in a run of points.
template <int D>
constexpr std::size_t point_bytes() {
  static_assert(sizeof(point<D>) == D * sizeof(double) &&
                    std::is_trivially_copyable_v<point<D>>,
                "point<D> must be D packed doubles: runs of points are "
                "copied to and from the codec's bytes whole");
  return sizeof(point<D>);
}

/// `size` bytes for a byte_writer to fill. The storage starts
/// uninitialised: the writer sets every byte, and zeroing a fresh buffer
/// first would fault all its pages in on one thread.
struct byte_buffer {
  explicit byte_buffer(std::size_t n) : size(n), data(new unsigned char[n]) {}
  std::size_t size;
  std::unique_ptr<unsigned char[]> data;
};

/// Writes fields at `at` on, into a buffer its caller sized for them.
struct byte_writer {
  unsigned char* at;

  void bytes(const void* p, std::size_t n) {
    std::memcpy(at, p, n);
    at += n;
  }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u32(std::uint32_t v) { bytes(&v, 4); }
  void u64(std::uint64_t v) { bytes(&v, 8); }
  void f64(double v) { bytes(&v, 8); }
  /// A run of points: its u64 count, then the points in one copy. A run
  /// past 1 MiB is copied in 1 MiB chunks on the workers, so the pages of a
  /// fresh buffer fault in on all of them.
  template <int D>
  void points(const std::vector<point<D>>& pts) {
    constexpr std::size_t kChunk = std::size_t{1} << 20;
    u64(pts.size());
    const auto* src = reinterpret_cast<const unsigned char*>(pts.data());
    const std::size_t n = pts.size() * point_bytes<D>();
    unsigned char* dst = at;
    par::parallel_for(
        0, (n + kChunk - 1) / kChunk,
        [&](std::size_t c) {
          std::memcpy(dst + c * kChunk, src + c * kChunk,
                      std::min(kChunk, n - c * kChunk));
        },
        1);
    at += n;
  }
};

/// Reads fields off [data, data + len) from `off`; every failure throws
/// std::runtime_error("<format>: '<path>' ...").
struct byte_reader {
  const unsigned char* data;
  std::size_t len;
  std::size_t off;
  const char* format;  // error-message prefix: "op_log" | "checkpoint"
  const std::string& path;

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string(format) + ": '" + path + "' " +
                             what);
  }
  void need(std::size_t n) const {
    if (off + n > len) fail("truncated");
  }
  void bytes(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, data + off, n);
    off += n;
  }
  std::uint8_t u8() {
    std::uint8_t v;
    bytes(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    bytes(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    bytes(&v, 8);
    return v;
  }
  double f64() {
    double v;
    bytes(&v, 8);
    return v;
  }
  /// Reads an element count and bounds-checks it against the bytes
  /// remaining (each element at least `min_elem_bytes`), so a corrupt
  /// count cannot drive a multi-GB resize before the truncation check.
  std::size_t checked_count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (min_elem_bytes > 0 && n > (len - off) / min_elem_bytes) {
      fail("truncated (element count exceeds file)");
    }
    return static_cast<std::size_t>(n);
  }
  /// Reads a run of points (byte_writer::points): its count, checked
  /// against the bytes remaining, and then the points in one copy.
  template <int D>
  void points(std::vector<point<D>>& out) {
    out.resize(checked_count(point_bytes<D>()));
    const std::size_t n = out.size() * point_bytes<D>();
    if (n == 0) return;
    std::memcpy(out.data(), data + off, n);
    off += n;
  }
  /// Reads a stripe split dimension, refusing one outside [0, D): routing
  /// and range pruning index every point with it.
  template <int D>
  std::int32_t split_dim() {
    const auto v = static_cast<std::int32_t>(u32());
    if (v < 0 || v >= D) fail("bad split dimension");
    return v;
  }
};

/// Reads the whole file at `path` into `out`, sized first and read in one
/// call; false if it cannot be opened or sized.
inline bool read_file(const std::string& path,
                      std::vector<unsigned char>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return false;
  }
  out.resize(static_cast<std::size_t>(size));
  if (size > 0) out.resize(std::fread(out.data(), 1, out.size(), f));
  std::fclose(f);
  return true;
}

}  // namespace detail

template <int D>
class op_log {
 public:
  /// Appends between fsyncs under sync_policy::interval.
  static constexpr std::uint32_t kSyncIntervalGroups = 32;

  /// `capacity` bounds retained groups (drop-oldest past it).
  explicit op_log(std::size_t capacity = std::size_t{1} << 20)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  op_log(const op_log&) = delete;
  op_log& operator=(const op_log&) = delete;

  ~op_log() {
    std::lock_guard<std::mutex> lk(mu_);
    close_file_locked();
  }

  /// Appends `g`, assigning the next dense epoch; returns it. Wakes any
  /// wait_for_head() tailers. When a durable file is attached the frame
  /// is written (and fsynced per policy) *before* the group is published
  /// to the ring; a write failure throws without advancing the head and
  /// latches the log into a failed state (every later append throws),
  /// emulating a dead process for writes.
  std::uint64_t append(log_group<D> g) {
    fault::fire(fault::kOplogAppend);  // may throw (injected append failure)
    std::unique_lock<std::mutex> lk(mu_);
    if (durable_.failed) {
      throw std::runtime_error("op_log: durable log '" + path_ +
                               "' is in a failed state");
    }
    const std::uint64_t epoch = head_ + 1;
    g.epoch = epoch;
    if (file_) append_frame_locked(g);  // throws on torn/short write
    head_ = epoch;
    groups_.push_back(std::move(g));
    while (groups_.size() > capacity_) groups_.pop_front();
    lk.unlock();
    cv_.notify_all();
    return epoch;
  }

  /// Epoch of the most recently appended group (0 = empty log).
  std::uint64_t head() const {
    std::lock_guard<std::mutex> lk(mu_);
    return head_;
  }

  /// Oldest epoch still retained in the ring (head()+1 when empty —
  /// i.e. nothing retained, nothing dropped that matters).
  std::uint64_t first_retained() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_retained_locked();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return groups_.size();
  }

  /// Copies up to `max` groups with epoch > `after`, in epoch order.
  /// Throws std::runtime_error when the ring already dropped a group the
  /// caller still needs (replay gap): after + 1 < first_retained().
  std::vector<log_group<D>> read_from(
      std::uint64_t after,
      std::size_t max = std::numeric_limits<std::size_t>::max()) const {
    std::lock_guard<std::mutex> lk(mu_);
    if (after + 1 < first_retained_locked()) {
      throw std::runtime_error(
          "op_log: replay gap — epoch " + std::to_string(after + 1) +
          " already evicted (first retained: " +
          std::to_string(first_retained_locked()) + ")");
    }
    std::vector<log_group<D>> out;
    for (const auto& g : groups_) {
      if (g.epoch <= after) continue;
      if (out.size() >= max) break;
      out.push_back(g);
    }
    return out;
  }

  /// Blocks until head() > after or the timeout expires; true iff new
  /// groups are available.
  bool wait_for_head(std::uint64_t after,
                     std::chrono::nanoseconds timeout) const {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, timeout, [&] { return head_ > after; });
  }

  // ---- durability ----------------------------------------------------------

  /// Attaches a durable file at `path`: atomically rewrites it (tmp +
  /// rename) with the currently retained groups, then keeps it open so
  /// every subsequent append() lands as one self-checksummed frame.
  /// Throws std::runtime_error on I/O failure.
  void open_durable(const std::string& path,
                    sync_policy sync = sync_policy::interval) {
    std::lock_guard<std::mutex> lk(mu_);
    close_file_locked();
    path_ = path;
    sync_ = sync;
    since_sync_ = 0;
    durable_ = {};
    rewrite_file_locked();
  }

  /// Detaches the durable file (final flush + close). The in-memory
  /// ring is untouched.
  void close_durable() {
    std::lock_guard<std::mutex> lk(mu_);
    close_file_locked();
  }

  bool durable() const {
    std::lock_guard<std::mutex> lk(mu_);
    return file_ != nullptr;
  }

  sync_policy sync() const {
    std::lock_guard<std::mutex> lk(mu_);
    return sync_;
  }

  log_durable_stats durable_stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return durable_;
  }

  /// What read_log() salvaged when this log was loaded from disk
  /// (all-zero for a log that was never recovered).
  log_recovery_stats recovery_stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return recovered_;
  }

  /// Rebases an empty log so appends continue from `epoch + 1` —
  /// recovery with a checkpoint but no salvageable log file needs the
  /// epoch sequence to resume where the checkpoint left off. Throws
  /// std::logic_error when the log already holds groups.
  void reset_base(std::uint64_t epoch) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!groups_.empty()) {
      throw std::logic_error("op_log::reset_base on a non-empty log");
    }
    head_ = epoch;
    start_after_ = epoch;
  }

  /// Epoch base of the durable file (first frame = start_after + 1).
  std::uint64_t start_after() const {
    std::lock_guard<std::mutex> lk(mu_);
    return start_after_;
  }

  /// Drops retained groups with epoch <= `below` (checkpoint
  /// compaction) and, when durable, atomically rewrites the file so it
  /// starts just past the dropped prefix. Returns how many groups were
  /// dropped from the ring. Tailers whose applied epoch falls below the
  /// new first_retained() will hit a replay gap and must resync from
  /// the checkpoint.
  std::size_t compact(std::uint64_t below) {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t dropped = 0;
    while (!groups_.empty() && groups_.front().epoch <= below) {
      groups_.pop_front();
      ++dropped;
    }
    if (file_ && !durable_.failed) rewrite_file_locked();
    return dropped;
  }

  // ---- serialization -------------------------------------------------------

  /// One-shot dump of the retained groups to `path` in the v2 segmented
  /// format. Throws std::runtime_error on I/O failure.
  void write_log(const std::string& path) const {
    const detail::byte_buffer buf = [this] {
      std::lock_guard<std::mutex> lk(mu_);
      return serialize_all_locked();
    }();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) {
      throw std::runtime_error("op_log: cannot open '" + path +
                               "' for writing");
    }
    const std::size_t wrote = std::fwrite(buf.data.get(), 1, buf.size, f);
    const bool ok = wrote == buf.size && std::fclose(f) == 0;
    if (!ok) {
      throw std::runtime_error("op_log: short write to '" + path + "'");
    }
  }

  /// Loads a durable log file, salvaging the longest valid frame prefix.
  /// The returned log's head continues from the highest salvaged epoch
  /// (or the header's start_after when no frame survived). Trailing
  /// torn/corrupt frames are counted in `log_recovery_stats::
  /// truncated_groups` (also available via recovery_stats() and, when
  /// non-null, `*stats_out`). Throws std::runtime_error only for header
  /// damage: missing file, short header, bad magic, unsupported
  /// version, dimension mismatch, or header checksum failure.
  static std::shared_ptr<op_log> read_log(
      const std::string& path, std::size_t capacity = std::size_t{1} << 20,
      log_recovery_stats* stats_out = nullptr) {
    std::vector<unsigned char> buf;
    if (!detail::read_file(path, buf)) {
      throw std::runtime_error("op_log: cannot open '" + path + "'");
    }

    // Header: strict. Anything wrong here rejects the whole file.
    if (buf.size() < kHeaderSize) {
      throw std::runtime_error("op_log: '" + path +
                               "' truncated (shorter than header)");
    }
    if (std::memcmp(buf.data(), kMagic, 4) != 0) {
      throw std::runtime_error("op_log: '" + path + "' bad magic");
    }
    detail::byte_reader hd{buf.data(), kHeaderSize, 4, "op_log", path};
    const std::uint32_t ver = hd.u32();
    if (ver != kVersion) {
      throw std::runtime_error("op_log: '" + path +
                               "' unsupported format version " +
                               std::to_string(ver));
    }
    const std::uint32_t dim = hd.u32();
    if (dim != static_cast<std::uint32_t>(D)) {
      throw std::runtime_error("op_log: '" + path + "' holds dim-" +
                               std::to_string(dim) + " groups, want dim-" +
                               std::to_string(D));
    }
    const std::uint64_t start_after = hd.u64();
    const std::uint64_t header_sum = hd.u64();
    if (detail::fnv1a(buf.data(), kHeaderSize - 8) != header_sum) {
      throw std::runtime_error("op_log: '" + path + "' header checksum mismatch");
    }

    // Frames: salvage the longest valid dense-epoch prefix.
    auto log = std::make_shared<op_log>(capacity);
    log->start_after_ = start_after;
    log->head_ = start_after;
    std::size_t off = kHeaderSize;
    while (off < buf.size()) {
      std::uint32_t len = 0;
      if (buf.size() - off < 4) break;
      std::memcpy(&len, buf.data() + off, 4);
      if (len == 0 || len > buf.size() - off - 4 ||
          buf.size() - off - 4 - len < 8) {
        break;  // torn frame: length field or body runs past EOF
      }
      const unsigned char* payload = buf.data() + off + 4;
      std::uint64_t want = 0;
      std::memcpy(&want, payload + len, 8);
      if (detail::fnv1a(payload, len) != want) break;  // corrupt frame body

      log_group<D> g;
      try {
        detail::byte_reader rd{payload, len, 0, "op_log", path};
        parse_group_body(rd, g);
        if (rd.off != len) break;  // trailing garbage inside the frame
      } catch (const std::exception&) {
        break;  // structurally invalid despite matching checksum
      }
      if (g.epoch != log->head_ + 1) break;  // epoch discontinuity

      log->head_ = g.epoch;
      log->groups_.push_back(std::move(g));
      while (log->groups_.size() > log->capacity_) log->groups_.pop_front();
      ++log->recovered_.groups;
      off += std::size_t{4} + len + 8;
    }

    // Count what was dropped by structurally walking the remainder.
    // Exact when only frame *bodies* were corrupted (framing intact);
    // a genuinely torn tail counts as one truncated group.
    std::size_t scan = off;
    while (scan < buf.size()) {
      ++log->recovered_.truncated_groups;
      if (buf.size() - scan < 4) break;
      std::uint32_t len = 0;
      std::memcpy(&len, buf.data() + scan, 4);
      if (len == 0 || len > buf.size() - scan - 4 ||
          buf.size() - scan - 4 - len < 8) {
        break;
      }
      scan += std::size_t{4} + len + 8;
    }
    log->recovered_.start_after = start_after;
    if (stats_out) *stats_out = log->recovered_;
    return log;
  }

 private:
  static constexpr char kMagic[5] = "PGOL";
  static constexpr std::uint32_t kVersion = 2;
  // magic + version + dim + start_after + header checksum
  static constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8 + 8;

  std::uint64_t first_retained_locked() const {
    return groups_.empty() ? head_ + 1 : groups_.front().epoch;
  }

  // -- group body <-> bytes --------------------------------------------------
  static std::size_t body_size(const log_group<D>& g) {
    std::size_t n = 8 + 1 + 1 + 4 + 8 + 8 * g.cuts.size() + 8;
    for (const auto& r : g.records) {
      n += 4 + 1 + 8 + r.pts.size() * detail::point_bytes<D>();
    }
    return n;
  }

  static void put_group_body(detail::byte_writer& w, const log_group<D>& g) {
    w.u64(g.epoch);
    w.u8(static_cast<std::uint8_t>(g.origin));
    w.u8(g.has_bounds ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(g.split_dim));
    w.u64(g.cuts.size());
    for (double c : g.cuts) w.f64(c);
    w.u64(g.records.size());
    for (const auto& r : g.records) {
      w.u32(r.shard);
      w.u8(static_cast<std::uint8_t>(r.kind));
      w.points(r.pts);
    }
  }

  static void parse_group_body(detail::byte_reader& rd, log_group<D>& g) {
    g.epoch = rd.u64();
    const std::uint8_t origin = rd.u8();
    if (origin > static_cast<std::uint8_t>(log_origin::rebalance)) {
      rd.fail("bad origin tag");
    }
    g.origin = static_cast<log_origin>(origin);
    g.has_bounds = rd.u8() != 0;
    g.split_dim = rd.split_dim<D>();
    g.cuts.resize(rd.checked_count(sizeof(double)));
    for (auto& c : g.cuts) c = rd.f64();
    g.records.resize(rd.checked_count(4 + 1 + 8));
    for (auto& r : g.records) {
      r.shard = rd.u32();
      const std::uint8_t kind = rd.u8();
      if (kind > static_cast<std::uint8_t>(log_op::erase)) {
        rd.fail("bad op tag");
      }
      r.kind = static_cast<log_op>(kind);
      rd.points(r.pts);
    }
  }

  /// frame = u32 len | payload | u64 fnv1a(payload), written in place:
  /// frame_size(g) bytes.
  static std::size_t frame_size(const log_group<D>& g) {
    return 4 + body_size(g) + 8;
  }
  static void put_frame(detail::byte_writer& w, const log_group<D>& g) {
    const std::size_t len = body_size(g);
    w.u32(static_cast<std::uint32_t>(len));
    const unsigned char* body = w.at;
    put_group_body(w, g);
    w.u64(detail::fnv1a(body, len));
  }

  /// The header and every retained group's frame, in one buffer.
  detail::byte_buffer serialize_all_locked() const {
    std::size_t size = kHeaderSize;
    for (const auto& g : groups_) size += frame_size(g);
    detail::byte_buffer buf(size);
    detail::byte_writer w{buf.data.get()};
    w.bytes(kMagic, 4);
    w.u32(kVersion);
    w.u32(static_cast<std::uint32_t>(D));
    w.u64(start_after_);
    w.u64(detail::fnv1a(buf.data.get(), kHeaderSize - 8));
    for (const auto& g : groups_) put_frame(w, g);
    return buf;
  }

  // -- durable file plumbing (all under mu_) ---------------------------------
  void close_file_locked() {
    if (file_) {
      std::fflush(file_);
      std::fclose(file_);
      file_ = nullptr;
    }
  }

  void do_sync_locked() {
    std::fflush(file_);
    ::fsync(::fileno(file_));
    ++durable_.syncs;
    since_sync_ = 0;
  }

  void maybe_sync_locked() {
    switch (sync_) {
      case sync_policy::none:
        break;
      case sync_policy::every_commit:
        do_sync_locked();
        break;
      case sync_policy::interval:
        if (++since_sync_ >= kSyncIntervalGroups) do_sync_locked();
        break;
    }
  }

  /// Atomically (tmp + rename) rewrites path_ with the retained groups
  /// and reopens it for appending. start_after_ is rebased to just
  /// before the first retained epoch.
  void rewrite_file_locked() {
    close_file_locked();
    start_after_ = groups_.empty() ? head_ : groups_.front().epoch - 1;
    const detail::byte_buffer buf = serialize_all_locked();

    const std::string tmp = path_ + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
      throw std::runtime_error("op_log: cannot open '" + tmp +
                               "' for writing");
    }
    const std::size_t wrote = std::fwrite(buf.data.get(), 1, buf.size, f);
    std::fflush(f);
    ::fsync(::fileno(f));
    const bool ok = wrote == buf.size && std::fclose(f) == 0;
    if (!ok || std::rename(tmp.c_str(), path_.c_str()) != 0) {
      throw std::runtime_error("op_log: failed to rewrite '" + path_ + "'");
    }
    durable_.bytes += wrote;
    ++durable_.syncs;
    file_ = std::fopen(path_.c_str(), "ab");
    if (!file_) {
      throw std::runtime_error("op_log: cannot reopen '" + path_ +
                               "' for appending");
    }
  }

  /// Appends one frame for `g`. A torn-write fault (or genuine short
  /// write) leaves a partial frame on disk, latches the failed state,
  /// and throws — the caller must not publish the group.
  void append_frame_locked(const log_group<D>& g) {
    const detail::byte_buffer frame(frame_size(g));
    detail::byte_writer w{frame.data.get()};
    put_frame(w, g);
    std::size_t cap = frame.size;
    bool torn = false;
    if (auto keep = fault::fire(fault::kOplogFileWrite)) {
      cap = std::min<std::size_t>(cap, static_cast<std::size_t>(*keep));
      torn = true;
    }
    const std::size_t wrote = std::fwrite(frame.data.get(), 1, cap, file_);
    std::fflush(file_);
    durable_.bytes += wrote;
    if (torn || wrote != frame.size) {
      durable_.failed = true;
      throw std::runtime_error("op_log: torn write to '" + path_ + "' (" +
                               std::to_string(wrote) + "/" +
                               std::to_string(frame.size) + " bytes)");
    }
    ++durable_.frames;
    maybe_sync_locked();
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::deque<log_group<D>> groups_;
  std::uint64_t head_ = 0;

  // durable-file state (under mu_)
  std::FILE* file_ = nullptr;
  std::string path_;
  sync_policy sync_ = sync_policy::none;
  std::uint32_t since_sync_ = 0;
  std::uint64_t start_after_ = 0;
  log_durable_stats durable_{};
  log_recovery_stats recovered_{};
};

}  // namespace pargeo::query
