// Seeded mutation fuzzing of the two durable decoders: op_log::read_log
// (query/oplog.h) and read_latest_checkpoint (query/checkpoint.h).
//
// A small op log and two checkpoints are written once. Every trial damages
// one file: a bit flip, a byte overwrite, a truncation, or an overwrite of
// a count, length or split-dimension field. Half of the non-truncating
// trials then re-seal the damage — the frame's checksum (or the header's,
// or the checkpoint's trailing one) is recomputed over the damaged bytes —
// so the decoder's own bounds checks see it instead of the checksum. The
// decoders must:
//  - read_log: throw only std::runtime_error, and only when the 28-byte
//    header is damaged or cut (then it must throw, unless re-sealed);
//    otherwise salvage, and unsealed damage salvages exactly a prefix of
//    the written groups;
//  - read_latest_checkpoint: never throw, and after unsealed damage return
//    false or one of the two written checkpoints exactly;
//  - never yield a split dimension outside [0, D), sealed or not.
// The ASan and UBSan CI jobs run this binary in their full ctest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <dirent.h>

#include "query/checkpoint.h"
#include "query/oplog.h"

using namespace pargeo;
using query::checkpoint_data;
using query::log_group;
using query::log_op;
using query::log_origin;
using query::op_log;

namespace {

constexpr int D = 2;
constexpr std::size_t kLogHeader = 28;  // magic, version, dim, base, sum
constexpr int kTrials = 600;            // per decoder
using bytes = std::vector<unsigned char>;

point<D> P(double x, double y) {
  point<D> p;
  p[0] = x;
  p[1] = y;
  return p;
}

std::string fresh_dir() {
  std::string tmpl = std::string(::testing::TempDir()) + "pargeo_fuzzXXXXXX";
  EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
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

bytes slurp(const std::string& path) {
  bytes b;
  EXPECT_TRUE(query::detail::read_file(path, b)) << path;
  return b;
}

void spit(const std::string& path, const bytes& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!b.empty()) {
    ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

template <class T>
T load(const bytes& b, std::size_t off) {
  T v;
  std::memcpy(&v, b.data() + off, sizeof(T));
  return v;
}

template <class T>
void store(bytes& b, std::size_t off, T v) {
  std::memcpy(b.data() + off, &v, sizeof(T));
}

void seal(bytes& b, std::size_t at, std::size_t len) {
  store<std::uint64_t>(b, at + len, query::detail::fnv1a(b.data() + at, len));
}

// ---- the written files -----------------------------------------------------

std::vector<log_group<D>> sample_groups() {
  std::vector<log_group<D>> gs(5);
  gs[0].origin = log_origin::bootstrap;
  gs[0].has_bounds = true;
  gs[0].split_dim = 1;
  gs[0].cuts = {0.25, 0.5};
  for (std::uint32_t s = 0; s < 3; ++s) {
    gs[0].records.push_back(
        {s, log_op::build, {P(s, 0.1), P(s, 0.3), P(s, 0.6)}});
  }
  gs[1].records = {{0, log_op::insert, {P(1, 2), P(3, 4)}},
                   {2, log_op::erase, {P(0, 0.6)}}};
  gs[2].origin = log_origin::expire;
  gs[2].records = {{1, log_op::erase, {P(1, 0.1)}}};
  gs[3].origin = log_origin::rebalance;
  gs[3].has_bounds = true;
  gs[3].cuts = {0.5, 2.5};
  gs[3].records = {{1, log_op::erase, {P(2, 0.1)}},
                   {2, log_op::insert, {P(2, 0.1)}}};
  // gs[4]: a client group with no records.
  return gs;
}

checkpoint_data<D> sample_checkpoint(std::uint64_t epoch, double shift) {
  checkpoint_data<D> ck;
  ck.epoch = epoch;
  ck.bounds_set = true;
  ck.split_dim = 1;
  ck.cuts = {0.3 + shift, 0.6 + shift};
  ck.shard_points = {{P(0, 0.1), P(1, 0.2)}, {P(shift, 0.4)}, {}};
  return ck;
}

bool same_group(const log_group<D>& a, const log_group<D>& b) {
  if (a.epoch != b.epoch || a.origin != b.origin ||
      a.has_bounds != b.has_bounds || a.split_dim != b.split_dim ||
      a.cuts != b.cuts || a.records.size() != b.records.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& x = a.records[i];
    const auto& y = b.records[i];
    if (x.shard != y.shard || x.kind != y.kind || x.pts != y.pts) {
      return false;
    }
  }
  return true;
}

bool same_checkpoint(const checkpoint_data<D>& a,
                     const checkpoint_data<D>& b) {
  return a.epoch == b.epoch && a.bounds_set == b.bounds_set &&
         a.split_dim == b.split_dim && a.cuts == b.cuts &&
         a.shard_points == b.shard_points;
}

// ---- where the count, length and split-dimension fields sit ----------------

struct field {
  std::size_t off;
  int width;  // 4 or 8 bytes
};

struct frame_span {
  std::size_t start;  // offset of the u32 length field
  std::size_t len;    // payload bytes
};

void map_log(const bytes& b, std::vector<frame_span>& frames,
             std::vector<field>& fields) {
  std::size_t off = kLogHeader;
  while (off < b.size()) {
    const auto len = load<std::uint32_t>(b, off);
    frames.push_back({off, len});
    fields.push_back({off, 4});
    std::size_t p = off + 4 + 8 + 1 + 1;  // epoch, origin, has_bounds
    fields.push_back({p, 4});  // split_dim
    p += 4;
    const auto cuts = load<std::uint64_t>(b, p);
    fields.push_back({p, 8});
    p += 8 + 8 * cuts;
    const auto records = load<std::uint64_t>(b, p);
    fields.push_back({p, 8});
    p += 8;
    for (std::uint64_t r = 0; r < records; ++r) {
      p += 4 + 1;  // shard, kind
      const auto pts = load<std::uint64_t>(b, p);
      fields.push_back({p, 8});
      p += 8 + 8 * D * pts;
    }
    off += 4 + len + 8;
  }
}

std::vector<field> map_checkpoint(const bytes& b) {
  std::vector<field> fields{{21, 4}};  // split_dim, after bounds_set
  std::size_t p = 25;
  const auto cuts = load<std::uint64_t>(b, p);
  fields.push_back({p, 8});
  p += 8 + 8 * cuts;
  const auto shards = load<std::uint64_t>(b, p);
  fields.push_back({p, 8});
  p += 8;
  for (std::uint64_t s = 0; s < shards; ++s) {
    const auto pts = load<std::uint64_t>(b, p);
    fields.push_back({p, 8});
    p += 8 + 8 * D * pts;
  }
  return fields;
}

// ---- one mutation -----------------------------------------------------------

struct mutation {
  bytes data;
  std::size_t at = 0;     // first byte written (the cut, for truncations)
  bool sealable = false;  // not a truncation: may be re-sealed
};

mutation mutate(const bytes& orig, const std::vector<field>& fields,
                std::mt19937_64& rng) {
  mutation m;
  m.data = orig;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  switch (pick(4)) {
    case 0:  // bit flip
      m.at = pick(orig.size());
      m.data[m.at] ^= static_cast<unsigned char>(1u << pick(8));
      break;
    case 1:  // byte overwrite
      m.at = pick(orig.size());
      m.data[m.at] = static_cast<unsigned char>(rng());
      break;
    case 2:  // truncation
      m.at = pick(orig.size());
      m.data.resize(m.at);
      return m;
    default: {  // count, length or split-dimension overwrite
      const field& f = fields[pick(fields.size())];
      m.at = f.off;
      const std::uint64_t old = f.width == 4 ? load<std::uint32_t>(orig, f.off)
                                             : load<std::uint64_t>(orig, f.off);
      const std::uint64_t picks[] = {0,          1,          old + 1,
                                     old - 1,    ~0ull,      1ull << 31,
                                     1ull << 40, D,          D + 1,
                                     rng()};
      const std::uint64_t v = picks[pick(std::size(picks))];
      if (f.width == 4) {
        store<std::uint32_t>(m.data, f.off, static_cast<std::uint32_t>(v));
      } else {
        store<std::uint64_t>(m.data, f.off, v);
      }
      break;
    }
  }
  m.sealable = true;
  return m;
}

// Recomputes the checksum covering `m.at` in an op-log file: the header's,
// or the frame's over the length its (possibly damaged) length field now
// claims, when that frame still fits in the file.
void reseal_log(mutation& m, const std::vector<frame_span>& frames) {
  if (m.at < kLogHeader) {
    seal(m.data, 0, kLogHeader - 8);
    return;
  }
  for (const auto& f : frames) {
    if (m.at >= f.start && m.at < f.start + 4 + f.len + 8) {
      const std::size_t len = load<std::uint32_t>(m.data, f.start);
      if (f.start + 4 + len + 8 <= m.data.size()) {
        seal(m.data, f.start + 4, len);
      }
      return;
    }
  }
}

bool header_damaged(const bytes& orig, const bytes& got) {
  if (got.size() < kLogHeader) return true;
  return std::memcmp(orig.data(), got.data(), kLogHeader) != 0;
}

}  // namespace

TEST(DecoderFuzz, ReadLogSalvagesOrRejectsOnlyTheHeader) {
  const std::string dir = fresh_dir();
  const std::string path = dir + "/oplog.pgol";
  op_log<D> log;
  for (auto& g : sample_groups()) log.append(std::move(g));
  log.write_log(path);
  const auto written = log.read_from(0);
  const bytes orig = slurp(path);
  std::vector<frame_span> frames;
  std::vector<field> fields;
  map_log(orig, frames, fields);
  ASSERT_EQ(frames.size(), written.size());

  std::mt19937_64 rng(20260417);
  int threw = 0, salvaged_all = 0, resealed = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    mutation m = mutate(orig, fields, rng);
    const bool sealed = m.sealable && rng() % 2 == 0;
    if (sealed) {
      reseal_log(m, frames);
      ++resealed;
    }
    const bool header_hit = header_damaged(orig, m.data);
    spit(path, m.data);
    std::shared_ptr<op_log<D>> got;
    try {
      got = op_log<D>::read_log(path);
    } catch (const std::runtime_error&) {
      ++threw;
      EXPECT_TRUE(header_hit) << "trial " << trial << ": intact header "
                              << "rejected (damage at " << m.at << ")";
      continue;
    } catch (...) {
      ADD_FAILURE() << "trial " << trial << ": not a std::runtime_error";
      continue;
    }
    EXPECT_FALSE(header_hit && !sealed)
        << "trial " << trial << ": unsealed header damage accepted";
    const auto groups = got->read_from(got->first_retained() - 1);
    ASSERT_LE(groups.size(), written.size()) << "trial " << trial;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      EXPECT_GE(groups[i].split_dim, 0) << "trial " << trial;
      EXPECT_LT(groups[i].split_dim, D) << "trial " << trial;
      if (!sealed) {
        EXPECT_TRUE(same_group(groups[i], written[i]))
            << "trial " << trial << ": group " << i
            << " is not the written one";
      }
    }
    if (groups.size() == written.size()) ++salvaged_all;
  }
  // The trials reached every outcome: whole-file rejection, partial
  // salvage, and damage the decoder could not see (or that hit nothing).
  EXPECT_GT(threw, 0);
  EXPECT_GT(salvaged_all, 0);
  EXPECT_LT(threw + salvaged_all, kTrials);
  EXPECT_GT(resealed, kTrials / 4);
  remove_dir(dir);
}

TEST(DecoderFuzz, ReadLatestCheckpointFallsBackOrRejects) {
  const std::string dir = fresh_dir();
  const auto older = sample_checkpoint(4, 0.0);
  const auto newer = sample_checkpoint(9, 0.05);
  query::write_checkpoint<D>(dir, older);
  query::write_checkpoint<D>(dir, newer);
  const std::string paths[] = {dir + "/ck-9.pgck", dir + "/ck-4.pgck"};
  const bytes origs[] = {slurp(paths[0]), slurp(paths[1])};
  const std::vector<field> fields[] = {map_checkpoint(origs[0]),
                                       map_checkpoint(origs[1])};
  checkpoint_data<D> ck;
  ASSERT_TRUE(query::read_latest_checkpoint<D>(dir, ck));
  ASSERT_TRUE(same_checkpoint(ck, newer));

  std::mt19937_64 rng(20260418);
  int fell_back = 0, refused = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t victim = rng() % 2;  // 0 = newest, 1 = fallback
    mutation m = mutate(origs[victim], fields[victim], rng);
    const bool sealed = m.sealable && rng() % 2 == 0;
    if (sealed && m.data.size() >= 8) seal(m.data, 0, m.data.size() - 8);
    spit(paths[victim], m.data);
    bool found = false;
    try {
      found = query::read_latest_checkpoint<D>(dir, ck);
    } catch (...) {
      ADD_FAILURE() << "trial " << trial << ": read_latest_checkpoint threw";
    }
    spit(paths[victim], origs[victim]);
    if (!found) {
      ++refused;
      continue;
    }
    EXPECT_GE(ck.split_dim, 0) << "trial " << trial;
    EXPECT_LT(ck.split_dim, D) << "trial " << trial;
    if (!sealed) {
      EXPECT_TRUE(same_checkpoint(ck, newer) || same_checkpoint(ck, older))
          << "trial " << trial << ": returned a checkpoint never written";
    }
    if (same_checkpoint(ck, older)) ++fell_back;
  }
  EXPECT_GT(fell_back, 0);
  EXPECT_EQ(refused, 0);  // one of the two files is intact every trial
  remove_dir(dir);
}
