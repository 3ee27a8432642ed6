// Checkpoints: per-shard resident state at an epoch (query subsystem).
//
// A checkpoint is everything needed to rebuild a `query_service<D>`
// without replaying the log from epoch 1: the epoch it was taken at,
// the spatial stripe geometry (split dim + cuts, when set), and each
// shard's resident points in gather order. Recovery applies the
// checkpoint as one group of per-shard build records
// (checkpoint_group()) and replays only the log tail with
// epoch > checkpoint.epoch; compaction then truncates the log below
// that epoch so cold replicas stop replaying from genesis.
//
//   *Atomicity*. write_checkpoint() serializes to `ck-<epoch>.pgck.tmp`,
//   fsyncs, renames into place, and only then rewrites the CURRENT
//   manifest (also tmp + rename). A crash at any point leaves the
//   previous checkpoint live: the fault point "checkpoint.serialize"
//   fires before any byte is written, and a torn tmp file never gets
//   the rename.
//
//   *Manifest*. CURRENT lists checkpoint filenames newest-first, one
//   per line, at most kCkKeep entries; files that fall off the list are
//   unlinked. This is the LevelDB discipline: no directory listing at
//   recovery, just follow the manifest and fall back one entry if the
//   newest file fails its checksum.
//
//   *Format*. "PGCK" | u32 version | u32 dim | payload | trailing
//   u64 FNV-1a over everything before it. Unlike the op log there is
//   no per-frame salvage: a checkpoint is all-or-nothing (rename is
//   the commit point), so any corruption rejects the file and recovery
//   falls back to the previous manifest entry.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "core/point.h"
#include "query/fault.h"
#include "query/oplog.h"

namespace pargeo::query {

template <int D>
struct checkpoint_data {
  std::uint64_t epoch = 0;  // log epoch this state is consistent with
  bool bounds_set = false;
  std::int32_t split_dim = 0;
  std::vector<double> cuts;  // stripe upper cuts, size == shards - 1
  std::vector<std::vector<point<D>>> shard_points;  // resident, per shard

  std::size_t num_points() const {
    std::size_t n = 0;
    for (const auto& s : shard_points) n += s.size();
    return n;
  }
};

/// The checkpoint as the log group that rebuilds it: origin `bootstrap`
/// at the checkpoint epoch, the stripes when set, and one `build` record
/// per shard of a `shards`-shard service (build replaces contents, so the
/// group applies over any prior state). Recovery and replica resync both
/// apply this group. Throws std::invalid_argument when the checkpoint
/// comes from another topology: a shard count other than `shards`, or
/// stripe cuts for another shard count.
template <int D>
log_group<D> checkpoint_group(checkpoint_data<D> ck, std::size_t shards) {
  if (ck.shard_points.size() != shards) {
    throw std::invalid_argument(
        "checkpoint_group: checkpoint holds " +
        std::to_string(ck.shard_points.size()) +
        " shards but the service has " + std::to_string(shards));
  }
  if (ck.bounds_set && ck.cuts.size() + 1 != shards) {
    throw std::invalid_argument(
        "checkpoint_group: " + std::to_string(ck.cuts.size()) +
        " stripe cuts for " + std::to_string(shards) + " shards");
  }
  log_group<D> g;
  g.epoch = ck.epoch;
  g.origin = log_origin::bootstrap;
  if (ck.bounds_set) {
    g.has_bounds = true;
    g.split_dim = ck.split_dim;
    g.cuts = std::move(ck.cuts);
  }
  g.records.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    g.records[s].shard = static_cast<std::uint32_t>(s);
    g.records[s].kind = log_op::build;
    g.records[s].pts = std::move(ck.shard_points[s]);
  }
  return g;
}

namespace detail {

inline constexpr char kCkMagic[5] = "PGCK";
inline constexpr std::uint32_t kCkVersion = 1;
inline constexpr std::size_t kCkKeep = 2;  // manifest: current + fallback

inline void ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    throw std::runtime_error("checkpoint: cannot create directory '" + dir +
                             "'");
  }
}

/// tmp + fsync + rename. `torn_cap` (from a fault) truncates the write
/// and throws after the partial tmp lands — the rename never happens.
inline void write_file_atomic(const std::string& path,
                              const unsigned char* data, std::size_t size,
                              std::uint64_t torn_cap, bool torn) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    throw std::runtime_error("checkpoint: cannot open '" + tmp +
                             "' for writing");
  }
  const std::size_t cap =
      torn ? std::min<std::size_t>(size, static_cast<std::size_t>(torn_cap))
           : size;
  const std::size_t wrote = std::fwrite(data, 1, cap, f);
  std::fflush(f);
  ::fsync(::fileno(f));
  const bool ok = std::fclose(f) == 0 && wrote == size && !torn;
  if (!ok) {
    throw std::runtime_error("checkpoint: torn/short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: cannot rename '" + tmp + "'");
  }
}

/// CURRENT manifest: newest-first filenames, one per line.
inline std::vector<std::string> read_manifest(const std::string& dir) {
  std::vector<unsigned char> buf;
  std::vector<std::string> names;
  if (!read_file(dir + "/CURRENT", buf)) return names;
  std::string line;
  for (unsigned char c : buf) {
    if (c == '\n') {
      if (!line.empty()) names.push_back(line);
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  if (!line.empty()) names.push_back(line);
  return names;
}

inline void write_manifest(const std::string& dir,
                           const std::vector<std::string>& names) {
  std::vector<unsigned char> buf;
  for (const auto& n : names) {
    buf.insert(buf.end(), n.begin(), n.end());
    buf.push_back('\n');
  }
  write_file_atomic(dir + "/CURRENT", buf.data(), buf.size(), 0, false);
}

}  // namespace detail

/// Serializes `ck` into `dir` as the new live checkpoint (atomic),
/// updates the CURRENT manifest, and unlinks checkpoints that fell off
/// the retained list. Throws std::runtime_error on I/O failure or an
/// injected "checkpoint.serialize" fault; in both cases the previous
/// checkpoint remains live.
template <int D>
void write_checkpoint(const std::string& dir, const checkpoint_data<D>& ck) {
  using namespace detail;
  ensure_dir(dir);

  std::size_t size = 4 + 4 + 4 + 8 + 1 + 4 + 8 + 8 * ck.cuts.size() + 8 + 8;
  for (const auto& shard : ck.shard_points) {
    size += 8 + shard.size() * point_bytes<D>();
  }
  const byte_buffer buf(size);
  byte_writer w{buf.data.get()};
  w.bytes(kCkMagic, 4);
  w.u32(kCkVersion);
  w.u32(static_cast<std::uint32_t>(D));
  w.u64(ck.epoch);
  w.u8(ck.bounds_set ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(ck.split_dim));
  w.u64(ck.cuts.size());
  for (double c : ck.cuts) w.f64(c);
  w.u64(ck.shard_points.size());
  for (const auto& shard : ck.shard_points) w.points(shard);
  w.u64(fnv1a(buf.data.get(), size - 8));

  // The fault fires before any byte lands; a torn-write cap truncates
  // the tmp file, which never gets renamed. Either way the previous
  // checkpoint stays the live one.
  bool torn = false;
  std::uint64_t torn_cap = 0;
  if (auto keep = fault::fire(fault::kCheckpointSerialize)) {
    torn = true;
    torn_cap = *keep;
  }

  const std::string name = "ck-" + std::to_string(ck.epoch) + ".pgck";
  write_file_atomic(dir + "/" + name, buf.data.get(), size, torn_cap, torn);

  auto names = read_manifest(dir);
  names.insert(names.begin(), name);
  // Dedup (re-checkpointing the same epoch rewrites in place).
  for (std::size_t i = 1; i < names.size();) {
    if (names[i] == name) {
      names.erase(names.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  std::vector<std::string> evicted;
  while (names.size() > kCkKeep) {
    evicted.push_back(names.back());
    names.pop_back();
  }
  write_manifest(dir, names);
  for (const auto& old : evicted) {
    std::remove((dir + "/" + old).c_str());
  }
}

/// Loads the newest valid checkpoint named by the CURRENT manifest,
/// falling back one entry if the newest file is missing or corrupt.
/// Returns false when the directory holds no usable checkpoint (no
/// manifest, or every listed file failed) — recovery then relies on
/// the log alone.
template <int D>
bool read_latest_checkpoint(const std::string& dir, checkpoint_data<D>& out) {
  using namespace detail;
  for (const auto& name : read_manifest(dir)) {
    const std::string path = dir + "/" + name;
    std::vector<unsigned char> buf;
    if (!read_file(path, buf)) continue;
    if (buf.size() < 4 + 4 + 4 + 8) continue;
    const std::size_t payload = buf.size() - 8;
    std::uint64_t want = 0;
    std::memcpy(&want, buf.data() + payload, 8);
    if (fnv1a(buf.data(), payload) != want) continue;
    if (std::memcmp(buf.data(), kCkMagic, 4) != 0) continue;
    try {
      byte_reader rd{buf.data(), payload, 4, "checkpoint", path};
      const std::uint32_t ver = rd.u32();
      const std::uint32_t dim = rd.u32();
      if (ver != kCkVersion || dim != static_cast<std::uint32_t>(D)) continue;
      checkpoint_data<D> ck;
      ck.epoch = rd.u64();
      ck.bounds_set = rd.u8() != 0;
      ck.split_dim = rd.split_dim<D>();
      ck.cuts.resize(rd.checked_count(sizeof(double)));
      for (auto& c : ck.cuts) c = rd.f64();
      ck.shard_points.resize(rd.checked_count(8));
      for (auto& shard : ck.shard_points) rd.points(shard);
      if (rd.off != payload) continue;
      out = std::move(ck);
      return true;
    } catch (const std::exception&) {
      continue;  // corrupt entry: fall back to the next manifest line
    }
  }
  return false;
}

}  // namespace pargeo::query
