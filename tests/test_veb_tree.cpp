// Tests for the vEB-layout static kd-tree (the BDL building block):
// construction, the stored child links and the vEB node order (validated
// structurally), batch deletion with live counts, and k-NN vs brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "bdltree/veb_tree.h"
#include "datagen/datagen.h"
#include "test_util.h"
#include "tree_checks.h"

using namespace pargeo;
using bdltree::split_policy;
using bdltree::veb_tree;
using testutil::expect_sound_links;

namespace {

// Runs under a non-zero forest slot, so the id's two halves are checked.
template <int D>
std::vector<point<D>> knn_points(const veb_tree<D>& t, const point<D>& q,
                                 std::size_t k) {
  constexpr std::size_t kSlot = 5;
  kdtree::knn_buffer buf(k);
  t.knn(q, kSlot, buf);
  std::vector<point<D>> out;
  for (const auto& e : buf.finish()) {
    EXPECT_EQ(e.id >> 32, kSlot);
    out.push_back(t.point_at(e.id & 0xffffffffu));
  }
  return out;
}

int hyperceil(int x) {
  int p = 1;
  while (p < x) p <<= 1;
  return p;
}

// The nodes `depth` levels below `root`, left to right.
std::vector<std::uint32_t> nodes_below(const veb_tree<2>& t,
                                       std::uint32_t root, int depth) {
  std::vector<std::uint32_t> level{root};
  for (int d = 0; d < depth; ++d) {
    std::vector<std::uint32_t> next;
    for (const std::uint32_t i : level) {
      next.push_back(t.node_at(i).left);
      next.push_back(t.node_at(i).right);
    }
    level = std::move(next);
  }
  return level;
}

// Checks that the `levels`-level subtree at `root` is laid out in vEB
// order at array position `base`: its top half (lt levels) first, then its
// 2^lt bottom subtrees (lb levels each) left to right, recursively.
void expect_veb_order(const veb_tree<2>& t, std::uint32_t root,
                      std::size_t base, int levels) {
  ASSERT_EQ(root, base);
  if (levels == 1) return;
  const int lb = hyperceil((levels + 1) / 2);
  const int lt = levels - lb;
  expect_veb_order(t, root, base, lt);
  const auto bottoms = nodes_below(t, root, lt);
  ASSERT_EQ(bottoms.size(), std::size_t{1} << lt);
  const std::size_t topSize = (std::size_t{1} << lt) - 1;
  const std::size_t subSize = (std::size_t{1} << lb) - 1;
  for (std::size_t i = 0; i < bottoms.size(); ++i) {
    expect_veb_order(t, bottoms[i], base + topSize + i * subSize, lb);
  }
}

}  // namespace

TEST(VebTree, ChildLinksAreSoundAndInVebOrder) {
  std::vector<std::vector<point<2>>> inputs;
  for (std::size_t n : {1u, 2u, 3u, 16u, 17u, 31u, 33u, 1000u, 5000u}) {
    inputs.push_back(datagen::uniform<2>(n, 40 + n));
  }
  // Heavy duplicates: the spatial median's degenerate-cut fallback.
  std::vector<point<2>> dup(700, point<2>{{1, 1}});
  for (int i = 0; i < 300; ++i) dup.push_back(point<2>{{2.0 + i % 7, 3}});
  inputs.push_back(dup);
  for (const auto pol :
       {split_policy::object_median, split_policy::spatial_median}) {
    for (const auto& pts : inputs) {
      SCOPED_TRACE(::testing::Message() << "n=" << pts.size() << " policy="
                                        << static_cast<int>(pol));
      veb_tree<2> t(pts, pol);
      const int levels = expect_sound_links(t, pts.size());
      EXPECT_EQ(t.num_nodes(), (std::size_t{1} << levels) - 1);
      expect_veb_order(t, 0, 0, levels);
    }
  }
}

TEST(VebTree, BuildAndGatherRoundTrip) {
  auto pts = datagen::uniform<2>(10000, 3);
  veb_tree<2> t(pts, split_policy::object_median);
  EXPECT_EQ(t.size(), pts.size());
  auto back = t.gather();
  std::sort(back.begin(), back.end());
  auto expect = pts;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(back, expect);
}

TEST(VebTree, NodeArraySizeIsPowerOfTwoMinusOne) {
  auto pts = datagen::uniform<2>(1000, 4);
  veb_tree<2> t(pts, split_policy::object_median);
  const std::size_t n = t.num_nodes();
  EXPECT_EQ((n + 1) & n, 0u);  // 2^l - 1
}

TEST(VebTree, KnnMatchesBruteBothPolicies) {
  for (const auto pol :
       {split_policy::object_median, split_policy::spatial_median}) {
    auto pts = datagen::visualvar<5>(5000, 5);
    veb_tree<5> t(pts, pol);
    for (int q = 0; q < 25; ++q) {
      const auto& qp = pts[(q * 211) % pts.size()];
      auto got = knn_points(t, qp, 6);
      auto brute = testutil::brute_knn_dists(pts, qp, 6);
      ASSERT_EQ(got.size(), brute.size());
      for (std::size_t k = 0; k < brute.size(); ++k) {
        EXPECT_EQ(got[k].dist_sq(qp), brute[k]);
      }
    }
  }
}

TEST(VebTree, EraseRemovesAndKnnSkips) {
  auto pts = datagen::uniform<2>(5000, 6);
  veb_tree<2> t(pts, split_policy::object_median);
  std::vector<point<2>> del(pts.begin(), pts.begin() + 2000);
  const std::size_t removed = t.erase(del);
  EXPECT_EQ(removed, 2000u);
  EXPECT_EQ(t.size(), 3000u);
  std::vector<point<2>> rest(pts.begin() + 2000, pts.end());
  for (int q = 0; q < 20; ++q) {
    const auto& qp = rest[(q * 97) % rest.size()];
    auto got = knn_points(t, qp, 4);
    auto brute = testutil::brute_knn_dists(rest, qp, 4);
    for (std::size_t k = 0; k < brute.size(); ++k) {
      EXPECT_EQ(got[k].dist_sq(qp), brute[k]);
    }
  }
}

TEST(VebTree, EraseNonMembersIsNoop) {
  auto pts = datagen::uniform<2>(1000, 7);
  veb_tree<2> t(pts, split_policy::object_median);
  std::vector<point<2>> bogus{point<2>{{-1e9, -1e9}},
                              point<2>{{1e9, 1e9}}};
  EXPECT_EQ(t.erase(bogus), 0u);
  EXPECT_EQ(t.size(), pts.size());
}

TEST(VebTree, EraseEverything) {
  auto pts = datagen::uniform<2>(500, 8);
  veb_tree<2> t(pts, split_policy::object_median);
  EXPECT_EQ(t.erase(pts), pts.size());
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.gather().empty());
  kdtree::knn_buffer buf(3);
  t.knn(pts[0], 0, buf);  // must not crash on an empty tree
  EXPECT_TRUE(buf.finish().empty());
}

TEST(VebTree, EraseBatchLargerThanTree) {
  auto pts = datagen::uniform<2>(100, 9);
  veb_tree<2> t(pts, split_policy::object_median);
  auto batch = pts;
  batch.insert(batch.end(), pts.begin(), pts.end());  // every point twice
  EXPECT_EQ(t.erase(batch), pts.size());
  EXPECT_TRUE(t.empty());
}

TEST(VebTree, EraseTakesOneCopyPerEntry) {
  // Many copies of one point straddle the splits; each entry must take
  // exactly one of them, and erase_matched hands back the entries left.
  const point<2> p{{5, 5}};
  std::vector<point<2>> pts(100, p);
  const auto others = datagen::uniform<2>(100, 12);
  pts.insert(pts.end(), others.begin(), others.end());
  for (auto pol : {split_policy::object_median, split_policy::spatial_median}) {
    veb_tree<2> t(pts, pol);
    EXPECT_EQ(t.erase({p}), 1u);
    EXPECT_EQ(t.size(), 199u);
    std::vector<point<2>> batch(120, p);
    batch.push_back(point<2>{{-1, -1}});
    EXPECT_TRUE(t.contains_any(batch));
    EXPECT_EQ(t.erase_matched(batch), 99u);
    EXPECT_EQ(batch.size(), 22u);  // 21 surplus copies of p + the stranger
    EXPECT_FALSE(t.contains_any(batch));
    const auto kept = t.gather();
    EXPECT_EQ(std::count(kept.begin(), kept.end(), p), 0);
    EXPECT_EQ(kept.size(), others.size());
  }
}

TEST(VebTree, TinyTrees) {
  for (std::size_t n : {1u, 2u, 3u, 16u, 17u, 31u, 33u}) {
    auto pts = datagen::uniform<2>(n, 10 + n);
    veb_tree<2> t(pts, split_policy::object_median);
    EXPECT_EQ(t.size(), n);
    auto got = knn_points(t, pts[0], n);
    EXPECT_EQ(got.size(), n);
  }
}

TEST(VebTree, SpatialMedianHandlesSkewedData) {
  // Heavily clustered data triggers the spatial-median degenerate-cut
  // fallback; the tree must stay consistent.
  std::vector<point<2>> pts(3000, point<2>{{1, 1}});
  for (int i = 0; i < 1000; ++i) {
    pts.push_back(point<2>{{1000.0 + i * 0.001, 5.0}});
  }
  veb_tree<2> t(pts, split_policy::spatial_median);
  EXPECT_EQ(t.size(), pts.size());
  auto got = knn_points(t, point<2>{{1, 1}}, 3);
  for (const auto& p : got) EXPECT_EQ(p.dist_sq(point<2>{{1, 1}}), 0.0);
}
