// Tests for closest pair and bichromatic closest pair vs brute force.
#include <gtest/gtest.h>

#include "closestpair/closestpair.h"
#include "datagen/datagen.h"
#include "test_util.h"

using namespace pargeo;

struct CpParam {
  int dim;
  int dist;
  std::size_t n;
};

class ClosestPairSweep : public ::testing::TestWithParam<CpParam> {};

template <int D>
void run_cp(int dist, std::size_t n) {
  std::vector<point<D>> pts;
  switch (dist) {
    case 0: pts = datagen::uniform<D>(n, 31); break;
    case 1: pts = datagen::in_sphere<D>(n, 32); break;
    default: pts = datagen::visualvar<D>(n, 33); break;
  }
  auto r = closestpair::closest_pair<D>(pts);
  EXPECT_NE(r.i, r.j);
  EXPECT_EQ(r.dist_sq, pts[r.i].dist_sq(pts[r.j]));
  EXPECT_EQ(r.dist_sq, testutil::brute_closest_pair(pts));
}

TEST_P(ClosestPairSweep, MatchesBruteForce) {
  const auto p = GetParam();
  switch (p.dim) {
    case 2: run_cp<2>(p.dist, p.n); break;
    case 3: run_cp<3>(p.dist, p.n); break;
    case 5: run_cp<5>(p.dist, p.n); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimDistSize, ClosestPairSweep,
    ::testing::Values(CpParam{2, 0, 2000}, CpParam{2, 2, 2000},
                      CpParam{3, 0, 1500}, CpParam{3, 1, 1500},
                      CpParam{5, 0, 800}, CpParam{2, 0, 10},
                      CpParam{3, 2, 50}),
    [](const ::testing::TestParamInfo<CpParam>& info) {
      return "d" + std::to_string(info.param.dim) + "_dist" +
             std::to_string(info.param.dist) + "_n" +
             std::to_string(info.param.n);
    });

TEST(ClosestPair, DuplicatePointsGiveZero) {
  auto pts = datagen::uniform<2>(500, 41);
  pts.push_back(pts[123]);
  auto r = closestpair::closest_pair<2>(pts);
  EXPECT_EQ(r.dist_sq, 0.0);
  EXPECT_EQ(pts[r.i], pts[r.j]);
  EXPECT_NE(r.i, r.j);
}

TEST(ClosestPair, TwoPoints) {
  std::vector<point<2>> pts{point<2>{{0, 0}}, point<2>{{3, 4}}};
  auto r = closestpair::closest_pair<2>(pts);
  EXPECT_DOUBLE_EQ(r.dist_sq, 25.0);
}

TEST(Bccp, MatchesBruteForce) {
  auto red = datagen::uniform<2>(800, 51);
  auto blue = datagen::uniform<2>(700, 52);
  auto r = closestpair::bichromatic_closest_pair<2>(red, blue);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& a : red) {
    for (const auto& b : blue) best = std::min(best, a.dist_sq(b));
  }
  EXPECT_EQ(r.dist_sq, best);
  EXPECT_EQ(r.dist_sq, red[r.i].dist_sq(blue[r.j]));
}

TEST(Bccp, SeparatedClusters) {
  auto red = datagen::uniform<3>(500, 53);
  auto blue = datagen::uniform<3>(500, 54);
  for (auto& p : blue) p[0] += 1e6;  // far apart
  auto r = closestpair::bichromatic_closest_pair<3>(red, blue);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& a : red) {
    for (const auto& b : blue) best = std::min(best, a.dist_sq(b));
  }
  EXPECT_EQ(r.dist_sq, best);
}

TEST(Bccp, NodesPrimitiveOnWspdPair) {
  auto pts = datagen::uniform<2>(1000, 55);
  kdtree::tree<2> t(pts);
  // Two sibling subtrees of the root: their BCCP must match brute force
  // over the two ranges.
  const auto& root = t.node_at(kdtree::kRoot);
  ASSERT_FALSE(root.is_leaf());
  auto r = closestpair::bccp_nodes<2>(t, root.left, root.right);
  const auto& left = t.node_at(root.left);
  const auto& right = t.node_at(root.right);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = left.lo; i < left.hi; ++i) {
    for (std::size_t j = right.lo; j < right.hi; ++j) {
      best = std::min(best, t.point_at(i).dist_sq(t.point_at(j)));
    }
  }
  EXPECT_EQ(r.dist_sq, best);
  EXPECT_EQ(pts[r.i].dist_sq(pts[r.j]), best);
}
