// Tests for the BDL-tree and its baselines: logarithmic-method structure
// invariants, model-based random batch workloads vs a reference multiset,
// k-NN correctness under mixed insert/delete histories, and the forest a
// fixed history leaves, pinned and compared across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "bdltree/baselines.h"
#include "bdltree/bdl_tree.h"
#include "datagen/datagen.h"
#include "test_util.h"

using namespace pargeo;
using namespace pargeo::bdltree;

namespace {

template <int D>
void expect_same_multiset(std::vector<point<D>> a, std::vector<point<D>> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

template <class Tree, int D>
void check_knn_against_reference(const Tree& t,
                                 const std::vector<point<D>>& reference,
                                 const std::vector<point<D>>& queries,
                                 std::size_t k) {
  auto res = t.knn(queries, k);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    auto brute = testutil::brute_knn_dists(reference, queries[qi], k);
    ASSERT_EQ(res[qi].size(), brute.size());
    for (std::size_t j = 0; j < brute.size(); ++j) {
      EXPECT_EQ(res[qi][j].dist_sq(queries[qi]), brute[j]);
    }
  }
}

// 15 x 15 integer lattice, each site stored 1-3 times: many equidistant
// k-NN candidates, and points exactly on box edges and at ball radii.
std::vector<point<2>> duplicated_lattice() {
  std::vector<point<2>> pts;
  for (int x = 0; x < 15; ++x) {
    for (int y = 0; y < 15; ++y) {
      const int copies = 1 + (x * 7 + y * 3) % 3;
      for (int c = 0; c < copies; ++c) {
        pts.push_back(point<2>{{double(x), double(y)}});
      }
    }
  }
  // Interleave, so every insert batch mixes sites.
  std::vector<point<2>> out;
  for (std::size_t s = 0; s < 7; ++s) {
    for (std::size_t i = s; i < pts.size(); i += 7) out.push_back(pts[i]);
  }
  return out;
}

template <class Result>
void expect_knn_dists(const Result& rows, const std::vector<point<2>>& live,
                      const std::vector<point<2>>& queries, std::size_t k) {
  ASSERT_EQ(rows.size(), queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<double> got;
    for (const auto& p : rows[qi]) got.push_back(p.dist_sq(queries[qi]));
    EXPECT_EQ(got, testutil::brute_knn_dists(live, queries[qi], k))
        << "query " << queries[qi] << " k=" << k;
  }
}

template <class Result>
void expect_same_rows(Result a, Result b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_multiset<2>(a[i], b[i]);
  }
}

// k-NN, box and ball on the live forest and on its view() against brute
// force over `live`. k-NN rows compare by distance (ties may resolve to
// any of the equidistant points), range rows as multisets.
void expect_queries_match_brute(const bdl_tree<2>& t,
                                const std::vector<point<2>>& live) {
  ASSERT_EQ(t.size(), live.size());
  const auto v = t.view();
  std::vector<point<2>> queries;
  for (double x : {-1.0, 0.0, 3.5, 7.0, 14.0, 16.0}) {
    for (double y : {0.0, 4.0, 6.5, 14.0}) {
      queries.push_back(point<2>{{x, y}});
    }
  }
  for (std::size_t k : {1u, 5u, 12u, 40u}) {
    expect_knn_dists(t.knn(queries, k), live, queries, k);
    expect_knn_dists(v.knn(queries, k), live, queries, k);
  }
  std::vector<aabb<2>> boxes;
  std::vector<double> radii;
  for (const auto& q : queries) {
    boxes.emplace_back(q, q + point<2>{{3, 2}});
    radii.push_back(1 + static_cast<int>(q[0] + q[1]) % 4);
  }
  boxes.emplace_back(point<2>{{0, 0}}, point<2>{{14, 14}});
  std::vector<std::vector<point<2>>> wantBox, wantBall;
  for (const auto& b : boxes) {
    wantBox.emplace_back();
    for (const auto& p : live) {
      if (b.contains(p)) wantBox.back().push_back(p);
    }
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    wantBall.emplace_back();
    for (const auto& p : live) {
      if (p.dist_sq(queries[i]) <= radii[i] * radii[i]) {
        wantBall.back().push_back(p);
      }
    }
  }
  expect_same_rows(t.range_box(boxes), wantBox);
  expect_same_rows(v.range_box(boxes), wantBox);
  expect_same_rows(t.range_ball(queries, radii), wantBall);
  expect_same_rows(v.range_ball(queries, radii), wantBall);
}

}  // namespace

TEST(BdlTree, DuplicatedLatticeBufferOnly) {
  const auto pts = duplicated_lattice();
  bdl_tree<2> t(split_policy::object_median, /*buffer_size=*/4096);
  t.insert(std::vector<point<2>>(pts.begin(), pts.begin() + 200));
  t.insert(std::vector<point<2>>(pts.begin() + 200, pts.end()));
  ASSERT_EQ(t.num_static_trees(), 0u);
  expect_queries_match_brute(t, pts);
}

TEST(BdlTree, DuplicatedLatticeBufferAndTrees) {
  const auto pts = duplicated_lattice();
  for (const auto pol :
       {split_policy::object_median, split_policy::spatial_median}) {
    bdl_tree<2> t(pol, /*buffer_size=*/32);
    for (std::size_t off = 0; off < pts.size(); off += 45) {
      t.insert(std::vector<point<2>>(
          pts.begin() + off, pts.begin() + std::min(pts.size(), off + 45)));
    }
    ASSERT_GE(t.num_static_trees(), 2u);
    ASSERT_GT(t.view().buffer.size(), 0u);
    expect_queries_match_brute(t, pts);
  }
}

TEST(BdlTree, DuplicatedLatticeAfterHalfCapacityRebuild) {
  const auto pts = duplicated_lattice();  // 450 points
  const std::size_t X = 32;
  bdl_tree<2> t(split_policy::object_median, X);
  std::vector<point<2>> first(pts.begin(), pts.begin() + 8 * X + 20);
  t.insert(first);  // slot 3 (256 points) + 20 buffered
  ASSERT_NE(t.view().trees[3], nullptr);
  // Erase 140 of the tree's points: it drops below half its capacity, so
  // its remaining points are gathered and reinserted. Each entry takes one
  // copy, wherever the copies of its site sit.
  std::vector<point<2>> del(first.begin(), first.begin() + 140);
  t.erase(del);
  EXPECT_EQ(t.view().trees[3], nullptr);
  std::vector<point<2>> live(first.begin() + 140, first.end());
  expect_same_multiset<2>(t.gather(), live);
  expect_queries_match_brute(t, live);
}

// A point stored once in a tree and once in the staging buffer: one erase
// entry takes one copy, whether the tree is exclusively owned (erased in
// place) or shared with a view (copied first).
TEST(BdlTree, EraseTakesOneCopyAcrossTreeAndBuffer) {
  const point<2> p{{2, 3}};
  for (const bool shared : {false, true}) {
    bdl_tree<2> t(split_policy::object_median, /*buffer_size=*/32);
    auto pts = datagen::uniform<2>(31, 53);
    pts.push_back(p);
    t.insert(pts);  // one full tree in slot 0
    t.insert({p});  // the second copy stays in the buffer
    ASSERT_EQ(t.num_static_trees(), 1u);
    ASSERT_EQ(t.view().buffer.size(), 1u);
    std::optional<bdl_forest_view<2>> pinned;
    if (shared) pinned = t.view();
    t.erase({p});
    SCOPED_TRACE(shared ? "shared with a view" : "exclusively owned");
    auto kept = t.gather();
    EXPECT_EQ(kept.size(), 32u);
    EXPECT_EQ(std::count(kept.begin(), kept.end(), p), 1);
    t.erase({p});
    kept = t.gather();
    EXPECT_EQ(std::count(kept.begin(), kept.end(), p), 0);
    t.erase({p});  // nothing left to take
    EXPECT_EQ(t.size(), 31u);
    if (shared) EXPECT_EQ(pinned->size(), 33u);  // the view kept both copies
  }
}

// 64 copies of one point in one tree: every erase entry takes exactly one,
// even though entries equal to a split value may descend both sides.
TEST(BdlTree, EraseTakesOneCopyPerEntryWithinATree) {
  const point<2> p{{2, 3}};
  bdl_tree<2> t(split_policy::object_median, /*buffer_size=*/16);
  std::vector<point<2>> pts(64, p);
  const auto others = datagen::uniform<2>(64, 54);
  pts.insert(pts.end(), others.begin(), others.end());
  t.insert(pts);  // 128 points: one tree in slot 3, empty buffer
  ASSERT_EQ(t.num_static_trees(), 1u);
  ASSERT_TRUE(t.view().buffer.empty());
  auto copies = [&] {
    const auto kept = t.gather();
    return std::count(kept.begin(), kept.end(), p);
  };
  t.erase({p});
  EXPECT_EQ(copies(), 63);
  t.erase(std::vector<point<2>>(10, p));
  EXPECT_EQ(copies(), 53);
  t.erase(std::vector<point<2>>(60, p));
  EXPECT_EQ(copies(), 0);
  expect_same_multiset<2>(t.gather(), others);
}

TEST(BdlTree, BufferEraseIsMultisetAndKeepsOrder) {
  const point<2> p{{2, 3}};
  bdl_tree<2> t(split_policy::object_median, /*buffer_size=*/4096);
  auto pts = datagen::uniform<2>(300, 50);
  pts.insert(pts.begin() + 100, {p, p});
  pts.push_back(p);  // 3 stored copies of p
  t.insert(pts);
  ASSERT_EQ(t.num_static_trees(), 0u);
  t.erase({p, p});
  EXPECT_EQ(t.size(), 301u);
  auto buf = t.view().buffer;
  EXPECT_EQ(std::count(buf.begin(), buf.end(), p), 1);
  EXPECT_TRUE(std::is_sorted(buf.begin(), buf.end()));
  // Non-members change nothing.
  t.erase({point<2>{{-7, -7}}, point<2>{{1e9, 0}}, point<2>{{2, 3.5}}});
  EXPECT_EQ(t.view().buffer, buf);
  // The last copy goes; a repeat is a no-op.
  t.erase({p, p});
  buf = t.view().buffer;
  EXPECT_EQ(buf.size(), 300u);
  EXPECT_EQ(std::count(buf.begin(), buf.end(), p), 0);
  EXPECT_TRUE(std::is_sorted(buf.begin(), buf.end()));
}

TEST(BdlTree, BufferStaysSortedAcrossCascades) {
  bdl_tree<2> t(split_policy::object_median, /*buffer_size=*/64);
  auto pts = datagen::uniform<2>(2000, 51);
  std::vector<point<2>> live;
  for (std::size_t off = 0; off < pts.size();) {
    const std::size_t take = 1 + (off * 37) % 150;
    std::vector<point<2>> batch(
        pts.begin() + off, pts.begin() + std::min(pts.size(), off + take));
    t.insert(batch);
    live.insert(live.end(), batch.begin(), batch.end());
    off += batch.size();
    const auto buf = t.view().buffer;
    ASSERT_TRUE(std::is_sorted(buf.begin(), buf.end())) << "offset " << off;
    if (off % 3 == 0) {
      std::vector<point<2>> del(live.end() - take / 2, live.end());
      live.resize(live.size() - del.size());
      t.erase(del);
      const auto after = t.view().buffer;
      ASSERT_TRUE(std::is_sorted(after.begin(), after.end()));
    }
  }
  expect_same_multiset<2>(t.gather(), live);
}

TEST(B1Tree, EraseIsMultiset) {
  const point<2> p{{2, 3}};
  b1_tree<2> t;
  auto pts = datagen::uniform<2>(300, 52);
  pts.insert(pts.begin() + 100, {p, p});
  t.insert(pts);
  t.insert({p});  // 3 stored copies of p
  t.erase({p, p});
  auto kept = t.gather();
  EXPECT_EQ(kept.size(), 301u);
  EXPECT_EQ(std::count(kept.begin(), kept.end(), p), 1);
  t.erase({point<2>{{-7, -7}}, point<2>{{2, 3.5}}});
  expect_same_multiset<2>(t.gather(), kept);
  auto got = t.knn({p}, 1);
  ASSERT_EQ(got[0].size(), 1u);
  EXPECT_EQ(got[0][0], p);
}

// ---- the forest at every worker count -----------------------------------

namespace {

// detail::erase_sorted as it matched on one thread, entry by entry: the
// oracle for the parallel match.
std::vector<point<2>> erase_sorted_sequential(
    std::vector<point<2>>& sorted, const std::vector<point<2>>& batch) {
  std::vector<std::uint32_t> taken(sorted.size(), 0);
  std::vector<point<2>> rest;
  std::size_t first = sorted.size();
  for (const auto& q : batch) {
    const std::size_t run = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), q) - sorted.begin());
    const std::size_t at = run == sorted.size() ? run : run + taken[run];
    if (at < sorted.size() && sorted[at] == q) {
      ++taken[run];
      first = std::min(first, run);
    } else {
      rest.push_back(q);
    }
  }
  std::size_t out = first;
  for (std::size_t i = first; i < sorted.size();) {
    if (taken[i] > 0) {
      i += taken[i];
    } else {
      sorted[out++] = sorted[i++];
    }
  }
  sorted.resize(out);
  return rest;
}

// Lattice sites (3x, 3y) for x in [lo, hi) and y in [0, 60), each 1-3
// times plus `extra_copies`: inside the uniform cloud of the forest
// history below.
std::vector<point<2>> lattice_sites(int lo, int hi, int extra_copies) {
  std::vector<point<2>> pts;
  for (int x = lo; x < hi; ++x) {
    for (int y = 0; y < 60; ++y) {
      const int copies = 1 + (x * 5 + y * 3) % 3 + extra_copies;
      for (int c = 0; c < copies; ++c) {
        pts.push_back(point<2>{{3.0 * x, 3.0 * y}});
      }
    }
  }
  return pts;
}

std::vector<point<2>> absent_points(std::size_t n) {
  std::vector<point<2>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(point<2>{{-1.0 - double(i), 0.5 * double(i)}});
  }
  return pts;
}

std::vector<point<2>> concat(std::vector<std::vector<point<2>>> parts,
                             std::uint64_t shuffle_seed) {
  std::vector<point<2>> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return par::random_shuffle(out, shuffle_seed);
}

struct forest_state {
  std::vector<point<2>> stored;            // gather(): buffer, then by slot
  std::vector<std::size_t> tree_sizes;     // live points by slot
  std::vector<std::vector<point<2>>> knn;  // k-NN rows of fixed queries
};

// Inserts in uneven batches, then erases in batches of at least 2^15
// entries, so the parallel match, pack, partition, gathers and pool
// assembly all run: each erase batch mixes stored points, lattice sites
// asked for more copies than are stored, and absent points, and the last
// insert leaves lattice copies in the staging buffer. `reference` receives
// the multiset the forest must hold.
forest_state run_forest_history(std::multiset<point<2>>& reference) {
  bdl_tree<2> t;
  const auto cloud = datagen::uniform<2>(120000, 61);  // in [0, 346]^2
  const auto more = datagen::uniform<2>(20000, 62);
  const auto inserted = concat({cloud, lattice_sites(0, 60, 0)}, 63);
  const std::vector<std::vector<point<2>>> erases = {
      concat({std::vector<point<2>>(cloud.begin(), cloud.begin() + 30000),
              lattice_sites(0, 20, 1), absent_points(2000)},
             64),
      concat({std::vector<point<2>>(cloud.begin() + 30000,
                                    cloud.begin() + 60000),
              std::vector<point<2>>(more.begin(), more.begin() + 5000),
              lattice_sites(20, 60, 0), absent_points(500)},
             65),
      concat({std::vector<point<2>>(cloud.begin() + 60000, cloud.end()),
              lattice_sites(0, 60, 2)},
             66)};
  std::size_t off = 0;
  for (const std::size_t n : {50000u, 7u, 1000u, 33333u, 999999u}) {
    const std::size_t take = std::min(n, inserted.size() - off);
    t.insert(std::vector<point<2>>(inserted.begin() + off,
                                   inserted.begin() + off + take));
    off += take;
  }
  reference.insert(inserted.begin(), inserted.end());
  auto erase = [&](const std::vector<point<2>>& batch) {
    t.erase(batch);
    for (const auto& p : batch) {
      const auto it = reference.find(p);
      if (it != reference.end()) reference.erase(it);
    }
  };
  erase(erases[0]);
  // The batch's tail stays in the staging buffer: lattice copies there.
  auto again = more;
  const auto dup = lattice_sites(10, 30, 0);
  again.insert(again.end(), dup.begin(), dup.begin() + 600);
  t.insert(again);
  reference.insert(again.begin(), again.end());
  EXPECT_GT(t.view().buffer.size(), 0u);
  erase(erases[1]);
  erase(erases[2]);

  forest_state st;
  st.stored = t.gather();
  for (const auto& tree : t.view().trees) {
    st.tree_sizes.push_back(tree ? tree->size() : 0);
  }
  std::vector<point<2>> queries(cloud.begin(), cloud.begin() + 200);
  for (int x = 0; x < 60; x += 7) {
    queries.push_back(point<2>{{3.0 * x, 3.0 * x}});
    queries.push_back(point<2>{{3.0 * x + 1.5, 100.0}});
  }
  st.knn = t.knn(queries, 10);
  return st;
}

std::uint64_t fnv1a(const std::vector<point<2>>& pts) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& p : pts) {
    unsigned char bytes[sizeof(p.x)];
    std::memcpy(bytes, p.x.data(), sizeof bytes);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

// The forest a fixed history leaves: the same stored order, trees by slot
// and k-NN rows at 1, 2 and 4 workers, the right multiset, and a pinned
// hash of the stored order (updates may get faster, not different).
TEST(BdlTree, ForestIsPinnedAndTheSameAtEveryWorkerCount) {
  std::optional<forest_state> one;
  for (const int w : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(w));
    testutil::scoped_workers workers(w);
    std::multiset<point<2>> reference;
    const forest_state st = run_forest_history(reference);
    auto contents = st.stored;
    std::sort(contents.begin(), contents.end());
    EXPECT_TRUE(std::equal(contents.begin(), contents.end(),
                           reference.begin(), reference.end()));
    EXPECT_EQ(fnv1a(st.stored), 0x618a1797df9a64a7ull);
    if (!one) {
      one = st;
      continue;
    }
    EXPECT_TRUE(st.stored == one->stored);
    EXPECT_EQ(st.tree_sizes, one->tree_sizes);
    EXPECT_TRUE(st.knn == one->knn);
  }
}

// A superseded tree dies with its last owner. A view keeps every tree it
// holds alive, and its rows unchanged, through a cascade that destroys
// trees, an erase that copies a shared tree and one that leaves a copy
// below half its build size. Once the view is dropped, each of its trees
// is freed exactly when the forest no longer holds it.
TEST(BdlTree, SupersededTreeDiesWithItsLastOwner) {
  const std::size_t X = 32;
  bdl_tree<2> t(split_policy::object_median, X);
  // 119 = 0b1110111: trees in slots 0, 1, 2, 4, 5 and 6, plus 5 buffered.
  t.insert(datagen::uniform<2>(119 * X + 5, 31));
  ASSERT_EQ(t.num_static_trees(), 6u);

  const auto queries = datagen::uniform<2>(50, 32);
  constexpr std::size_t k = 7;
  std::optional<bdl_forest_view<2>> view = t.view();
  const auto rows = view->knn(queries, k);
  std::vector<std::weak_ptr<const veb_tree<2>>> held;
  for (const auto& tree : view->trees) {
    if (tree) held.push_back(tree);
  }
  ASSERT_EQ(held.size(), 6u);
  const auto slot4 = view->trees[4]->gather();
  const auto slot5 = view->trees[5]->gather();

  // X more points: the cascade destroys slots 0-2 and builds slot 3.
  t.insert(datagen::uniform<2>(X, 33));
  // Copies the shared slot-4 tree, which stays above half.
  t.erase(std::vector<point<2>>(slot4.begin(), slot4.begin() + 3));
  // Copies slot 5 and leaves the copy below half, so it is rebuilt.
  t.erase(std::vector<point<2>>(slot5.begin(),
                                slot5.begin() + 3 * slot5.size() / 4));

  for (const auto& w : held) EXPECT_FALSE(w.expired());
  EXPECT_TRUE(view->knn(queries, k) == rows);

  view.reset();
  std::vector<std::weak_ptr<const veb_tree<2>>> forest;
  {
    const auto fresh = t.view();
    for (const auto& tree : fresh.trees) {
      if (tree) forest.push_back(tree);
    }
  }
  // Owner comparison: a weak_ptr keeps its control block, so an expired
  // tree cannot share one with a live tree.
  const auto in_forest = [&](const std::weak_ptr<const veb_tree<2>>& w) {
    return std::any_of(forest.begin(), forest.end(), [&](const auto& f) {
      return !w.owner_before(f) && !f.owner_before(w);
    });
  };
  std::size_t alive = 0;
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].expired(), !in_forest(held[i])) << "tree " << i;
    alive += held[i].expired() ? 0 : 1;
  }
  EXPECT_EQ(alive, 1u);  // slot 6, which nothing touched
}

// The parallel match hands out the buffer's copies exactly as the
// sequential one did: the same buffer afterwards and the same unmatched
// entries in batch order, where misses and used-up runs interleave.
TEST(BdlTree, EraseSortedMatchesTheSequentialMatch) {
  auto buffer = datagen::uniform<2>(3000, 67);
  const auto sites = lattice_sites(0, 30, 0);
  buffer.insert(buffer.end(), sites.begin(), sites.end());
  std::sort(buffer.begin(), buffer.end());
  const auto batch =
      concat({std::vector<point<2>>(buffer.begin(), buffer.begin() + 2500),
              lattice_sites(0, 60, 1), absent_points(20000)},
             68);
  ASSERT_GE(batch.size(), std::size_t{1} << 15);
  auto want_buffer = buffer;
  const auto want_rest = erase_sorted_sequential(want_buffer, batch);
  for (const int w : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(w));
    testutil::scoped_workers workers(w);
    auto got_buffer = buffer;
    const auto got_rest = detail::erase_sorted<2>(got_buffer, batch);
    EXPECT_TRUE(got_buffer == want_buffer);
    EXPECT_TRUE(got_rest == want_rest);
  }
  // Nothing left to take: the buffer stays and every entry comes back.
  auto same = want_buffer;
  const auto all = absent_points(5000);
  EXPECT_TRUE(detail::erase_sorted<2>(same, all) == all);
  EXPECT_TRUE(same == want_buffer);
}

TEST(BdlTree, BufferAbsorbsSmallBatches) {
  bdl_tree<2> t(split_policy::object_median, /*buffer_size=*/100);
  auto pts = datagen::uniform<2>(99, 1);
  t.insert(pts);
  EXPECT_EQ(t.size(), 99u);
  EXPECT_EQ(t.num_static_trees(), 0u);  // everything still in the buffer
  t.insert({pts[0]});
  EXPECT_EQ(t.size(), 100u);
  EXPECT_EQ(t.num_static_trees(), 1u);  // buffer promoted into tree 0
}

TEST(BdlTree, LogStructureFollowsBitmask) {
  const std::size_t X = 64;
  bdl_tree<2> t(split_policy::object_median, X);
  auto pts = datagen::uniform<2>(X * 7, 2);  // 7 = 0b111 full trees
  t.insert(pts);
  EXPECT_EQ(t.size(), X * 7);
  EXPECT_EQ(t.num_static_trees(), 3u);  // trees 0,1,2
}

TEST(BdlTree, CascadeOnInsert) {
  const std::size_t X = 32;
  bdl_tree<2> t(split_policy::object_median, X);
  // X points -> tree 0; X more -> cascade into tree 1 only.
  t.insert(datagen::uniform<2>(X, 3));
  EXPECT_EQ(t.num_static_trees(), 1u);
  t.insert(datagen::uniform<2>(X, 4));
  EXPECT_EQ(t.num_static_trees(), 1u);
  EXPECT_EQ(t.size(), 2 * X);
  // X more -> tree 0 and tree 1 both occupied.
  t.insert(datagen::uniform<2>(X, 5));
  EXPECT_EQ(t.num_static_trees(), 2u);
}

TEST(BdlTree, GatherRoundTrip) {
  bdl_tree<5> t;
  auto pts = datagen::uniform<5>(5000, 6);
  std::vector<point<5>> a(pts.begin(), pts.begin() + 2500);
  std::vector<point<5>> b(pts.begin() + 2500, pts.end());
  t.insert(a);
  t.insert(b);
  expect_same_multiset<5>(t.gather(), pts);
}

TEST(BdlTree, KnnAfterMixedOperations) {
  bdl_tree<2> t;
  auto pts = datagen::visualvar<2>(8000, 7);
  std::vector<point<2>> first(pts.begin(), pts.begin() + 5000);
  std::vector<point<2>> second(pts.begin() + 5000, pts.end());
  t.insert(first);
  t.insert(second);
  std::vector<point<2>> del(pts.begin(), pts.begin() + 2000);
  t.erase(del);
  ASSERT_EQ(t.size(), 6000u);
  std::vector<point<2>> reference(pts.begin() + 2000, pts.end());
  std::vector<point<2>> queries(reference.begin(), reference.begin() + 25);
  check_knn_against_reference<bdl_tree<2>, 2>(t, reference, queries, 5);
}

TEST(BdlTree, DeleteTriggersHalfCapacityRebuild) {
  const std::size_t X = 128;
  bdl_tree<2> t(split_policy::object_median, X);
  auto pts = datagen::uniform<2>(4 * X, 8);
  t.insert(pts);
  // Deleting 3/4 of the points must leave a consistent structure.
  std::vector<point<2>> del(pts.begin(), pts.begin() + 3 * X);
  t.erase(del);
  EXPECT_EQ(t.size(), X);
  std::vector<point<2>> rest(pts.begin() + 3 * X, pts.end());
  expect_same_multiset<2>(t.gather(), rest);
}

TEST(BdlTree, EraseAll) {
  bdl_tree<2> t;
  auto pts = datagen::uniform<2>(3000, 9);
  t.insert(pts);
  t.erase(pts);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.gather().empty());
}

TEST(BdlTree, ModelBasedRandomWorkload) {
  // Random interleaving of batch inserts and deletes, checked against a
  // plain vector model after each operation.
  bdl_tree<2> t(split_policy::object_median, 64);
  std::vector<point<2>> model;
  auto all = datagen::uniform<2>(6000, 10);
  std::size_t next = 0;
  for (int step = 0; step < 30; ++step) {
    const bool doInsert = model.size() < 500 ||
                          par::rand_double(11, step) < 0.6;
    if (doInsert && next < all.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + par::rand_range(12, step, 400),
                                all.size() - next);
      std::vector<point<2>> batch(all.begin() + next,
                                  all.begin() + next + take);
      next += take;
      t.insert(batch);
      model.insert(model.end(), batch.begin(), batch.end());
    } else if (!model.empty()) {
      const std::size_t take =
          1 + par::rand_range(13, step, model.size() / 2 + 1);
      std::vector<point<2>> batch(model.end() - take, model.end());
      model.resize(model.size() - take);
      t.erase(batch);
    }
    ASSERT_EQ(t.size(), model.size()) << "step " << step;
  }
  expect_same_multiset<2>(t.gather(), model);
  if (!model.empty()) {
    std::vector<point<2>> queries(model.begin(),
                                  model.begin() + std::min<std::size_t>(
                                                      10, model.size()));
    check_knn_against_reference<bdl_tree<2>, 2>(t, model, queries, 3);
  }
}

// ---- baselines ---------------------------------------------------------

template <class Tree>
class BaselineTest : public ::testing::Test {};

using BaselineTypes = ::testing::Types<b1_tree<2>, b2_tree<2>, bdl_tree<2>>;
TYPED_TEST_SUITE(BaselineTest, BaselineTypes);

TYPED_TEST(BaselineTest, InsertEraseKnnAgainstReference) {
  TypeParam t;
  auto pts = datagen::uniform<2>(4000, 20);
  std::vector<point<2>> a(pts.begin(), pts.begin() + 2000);
  std::vector<point<2>> b(pts.begin() + 2000, pts.end());
  t.insert(a);
  t.insert(b);
  ASSERT_EQ(t.size(), pts.size());
  std::vector<point<2>> del(pts.begin(), pts.begin() + 1000);
  t.erase(del);
  ASSERT_EQ(t.size(), 3000u);
  std::vector<point<2>> reference(pts.begin() + 1000, pts.end());
  std::vector<point<2>> queries(reference.begin(), reference.begin() + 15);
  check_knn_against_reference<TypeParam, 2>(t, reference, queries, 4);
}

TYPED_TEST(BaselineTest, IncrementalSmallBatches) {
  TypeParam t;
  auto pts = datagen::visualvar<2>(3000, 21);
  for (std::size_t off = 0; off < pts.size(); off += 150) {
    std::vector<point<2>> batch(
        pts.begin() + off,
        pts.begin() + std::min(pts.size(), off + 150));
    t.insert(batch);
  }
  ASSERT_EQ(t.size(), pts.size());
  std::vector<point<2>> queries(pts.begin(), pts.begin() + 15);
  check_knn_against_reference<TypeParam, 2>(t, pts, queries, 5);
}

TEST(BdlTree, HigherDimensions) {
  bdl_tree<7> t;
  auto pts = datagen::uniform<7>(3000, 22);
  t.insert(pts);
  std::vector<point<7>> queries(pts.begin(), pts.begin() + 10);
  check_knn_against_reference<bdl_tree<7>, 7>(t, pts, queries, 5);
}

TEST(BdlTree, RangeBallMatchesBruteAfterUpdates) {
  bdl_tree<2> t;
  auto pts = datagen::uniform<2>(5000, 30);
  std::vector<point<2>> a(pts.begin(), pts.begin() + 3000);
  std::vector<point<2>> b(pts.begin() + 3000, pts.end());
  t.insert(a);
  t.insert(b);
  std::vector<point<2>> del(pts.begin(), pts.begin() + 1000);
  t.erase(del);
  std::vector<point<2>> live(pts.begin() + 1000, pts.end());
  const double r = 3.0;
  std::vector<point<2>> queries(live.begin(), live.begin() + 20);
  auto res = t.range_ball(queries, r);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    auto got = res[qi];
    std::vector<point<2>> expect;
    for (const auto& p : live) {
      if (p.dist_sq(queries[qi]) <= r * r) expect.push_back(p);
    }
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(BdlTree, RangeBallEmptyRadius) {
  bdl_tree<2> t;
  auto pts = datagen::uniform<2>(1000, 31);
  t.insert(pts);
  auto res = t.range_ball({point<2>{{-1e9, -1e9}}}, 1.0);
  EXPECT_TRUE(res[0].empty());
}
