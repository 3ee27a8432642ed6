// Tests for the Euclidean minimum spanning tree vs Prim's algorithm, its
// output contract, and degenerate inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <tuple>

#include "datagen/datagen.h"
#include "emst/emst.h"
#include "test_util.h"

using namespace pargeo;

namespace {

// Union-find for spanning-ness checks.
struct dsu {
  std::vector<std::size_t> p;
  explicit dsu(std::size_t n) : p(n) {
    std::iota(p.begin(), p.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (p[x] != x) x = p[x] = p[p[x]];
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    p[a] = b;
    return true;
  }
};

template <int D>
void check_spanning_tree(const std::vector<point<D>>& pts,
                         const std::vector<emst::edge>& mst) {
  ASSERT_EQ(mst.size(), pts.size() - 1);
  dsu uf(pts.size());
  for (std::size_t i = 0; i < mst.size(); ++i) {
    const auto& e = mst[i];
    ASSERT_LT(e.u, e.v);
    ASSERT_LT(e.v, pts.size());
    ASSERT_NEAR(e.weight, pts[e.u].dist(pts[e.v]), 1e-9);
    ASSERT_TRUE(uf.unite(e.u, e.v)) << "cycle in MST";
    if (i > 0) {
      const auto& p = mst[i - 1];
      ASSERT_TRUE(std::tie(p.weight, p.u, p.v) < std::tie(e.weight, e.u, e.v))
          << "edges not sorted by (weight, u, v) at " << i;
    }
  }
}

template <int D>
std::vector<emst::edge> emst_at(int workers, const std::vector<point<D>>& pts) {
  testutil::scoped_workers w(workers);
  return emst::emst<D>(pts);
}

// The full edge list, down to the bits of each weight.
void expect_identical(const std::vector<emst::edge>& a,
                      const std::vector<emst::edge>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].u, b[i].u) << i;
    ASSERT_EQ(a[i].v, b[i].v) << i;
    ASSERT_EQ(std::memcmp(&a[i].weight, &b[i].weight, sizeof(double)), 0)
        << i;
  }
}

std::vector<point<2>> lattice(int side) {
  std::vector<point<2>> pts;
  for (int i = 0; i < side; ++i) {
    for (int j = 0; j < side; ++j) pts.push_back(point<2>{{1.0 * i, 1.0 * j}});
  }
  return pts;
}

}  // namespace

struct EmstParam {
  int dim;
  int dist;
  std::size_t n;
};

class EmstSweep : public ::testing::TestWithParam<EmstParam> {};

template <int D>
void run_emst(int dist, std::size_t n) {
  std::vector<point<D>> pts;
  switch (dist) {
    case 0: pts = datagen::uniform<D>(n, 61); break;
    case 1: pts = datagen::seed_spreader<D>(n, 62); break;
    default: pts = datagen::on_sphere<D>(n, 63); break;
  }
  auto mst = emst::emst<D>(pts);
  check_spanning_tree(pts, mst);
  // Random coordinates: the weights are distinct, so the MST is unique.
  const auto ref = testutil::prim(pts);
  EXPECT_NEAR(emst::total_weight(mst), ref.weight, 1e-8 * ref.weight);
  std::vector<std::pair<std::size_t, std::size_t>> got;
  for (const auto& e : mst) got.emplace_back(e.u, e.v);
  auto want = ref.edges;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST_P(EmstSweep, MatchesPrimEdges) {
  const auto p = GetParam();
  switch (p.dim) {
    case 2: run_emst<2>(p.dist, p.n); break;
    case 3: run_emst<3>(p.dist, p.n); break;
    case 5: run_emst<5>(p.dist, p.n); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimDistSize, EmstSweep,
    ::testing::Values(EmstParam{2, 0, 600}, EmstParam{2, 1, 600},
                      EmstParam{2, 2, 400}, EmstParam{3, 0, 500},
                      EmstParam{3, 1, 400}, EmstParam{5, 0, 300},
                      EmstParam{2, 0, 5}, EmstParam{2, 0, 2},
                      EmstParam{2, 0, 3000}, EmstParam{2, 1, 3000},
                      EmstParam{2, 2, 3000}, EmstParam{3, 0, 2500},
                      EmstParam{3, 1, 2500}, EmstParam{3, 2, 2500},
                      EmstParam{5, 0, 1500}, EmstParam{5, 1, 1500},
                      EmstParam{5, 2, 1500}),
    [](const ::testing::TestParamInfo<EmstParam>& info) {
      return "d" + std::to_string(info.param.dim) + "_dist" +
             std::to_string(info.param.dist) + "_n" +
             std::to_string(info.param.n);
    });

TEST(Emst, TrivialInputs) {
  std::vector<point<2>> empty;
  EXPECT_TRUE(emst::emst<2>(empty).empty());
  std::vector<point<2>> one{point<2>{{1, 1}}};
  EXPECT_TRUE(emst::emst<2>(one).empty());
  std::vector<point<2>> two{point<2>{{0, 0}}, point<2>{{3, 4}}};
  auto mst = emst::emst<2>(two);
  ASSERT_EQ(mst.size(), 1u);
  EXPECT_NEAR(mst[0].weight, 5.0, 1e-12);
}

TEST(Emst, DuplicatePointsYieldZeroEdges) {
  auto pts = datagen::uniform<2>(200, 71);
  pts.push_back(pts[0]);
  pts.push_back(pts[1]);
  auto mst = emst::emst<2>(pts);
  check_spanning_tree(pts, mst);
  std::size_t zeros = 0;
  for (const auto& e : mst) zeros += e.weight == 0.0 ? 1 : 0;
  EXPECT_EQ(zeros, 2u);
}

TEST(Emst, EdgesSortedByWeight) {
  auto pts = datagen::uniform<2>(500, 72);
  auto mst = emst::emst<2>(pts);
  for (std::size_t i = 1; i < mst.size(); ++i) {
    EXPECT_LE(mst[i - 1].weight, mst[i].weight);
  }
}

TEST(Emst, ClusteredDataLargerScale) {
  auto pts = datagen::seed_spreader<2>(1200, 73);
  auto mst = emst::emst<2>(pts);
  check_spanning_tree(pts, mst);
  const double ref = testutil::prim(pts).weight;
  EXPECT_NEAR(emst::total_weight(mst), ref, 1e-8 * ref);
}

// clustering::single_linkage replays the edges in order, so ties must be
// broken the same way at every worker count. The lattices have more than
// 2^14 points so the kd-tree build takes its parallel partition.
TEST(Emst, SameEdgesAtOneAndFourWorkers) {
  auto grid = lattice(130);
  auto dups = grid;
  for (std::size_t i = 0; i < grid.size(); i += 3) dups.push_back(grid[i]);
  const std::vector<point<2>> inputs[] = {grid, dups,
                                          datagen::uniform<2>(20000, 74)};
  for (const auto& pts : inputs) {
    const auto one = emst_at(1, pts);
    check_spanning_tree(pts, one);
    expect_identical(one, emst_at(4, pts));
  }
}

TEST(Emst, IdenticalPoints) {
  const std::vector<point<2>> pts(20000, point<2>{{0.25, -3.0}});
  const auto mst = emst_at(4, pts);
  check_spanning_tree(pts, mst);
  for (const auto& e : mst) ASSERT_EQ(e.weight, 0.0);
}

TEST(Emst, CollinearPointsInOrder) {
  std::vector<point<2>> pts;
  for (int i = 0; i < 20000; ++i) pts.push_back(point<2>{{1.0 * i, 0.0}});
  const auto mst = emst_at(4, pts);
  check_spanning_tree(pts, mst);
  EXPECT_EQ(emst::total_weight(mst), 19999.0);
}
