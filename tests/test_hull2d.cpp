// Tests for 2D convex hull: agreement across the five methods, hull
// validity (CCW, containment, vertices from input), and degeneracies.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/predicates.h"
#include "datagen/datagen.h"
#include "hull/hull2d.h"
#include "test_util.h"

using namespace pargeo;

namespace {

void check_valid_hull(const std::vector<point<2>>& pts,
                      const std::vector<std::size_t>& hull) {
  ASSERT_GE(hull.size(), 3u);
  // Vertices must be distinct input indices.
  std::set<std::size_t> uniq(hull.begin(), hull.end());
  ASSERT_EQ(uniq.size(), hull.size());
  // Strictly convex CCW polygon: each consecutive triple turns left.
  for (std::size_t i = 0; i < hull.size(); ++i) {
    const auto& a = pts[hull[i]];
    const auto& b = pts[hull[(i + 1) % hull.size()]];
    const auto& c = pts[hull[(i + 2) % hull.size()]];
    ASSERT_GT(orient2d(a, b, c), 0) << "not strictly convex at " << i;
  }
  // Containment: every point on or left of every edge.
  for (std::size_t i = 0; i < hull.size(); ++i) {
    const auto& a = pts[hull[i]];
    const auto& b = pts[hull[(i + 1) % hull.size()]];
    for (const auto& p : pts) {
      ASSERT_GE(orient2d(a, b, p), 0);
    }
  }
}

// Integer lattice of about n points: every boundary point between two
// corners is collinear with them, so the hull is the 4 corners.
std::vector<point<2>> lattice(std::size_t n) {
  const auto side = static_cast<int>(std::lround(std::sqrt(n)));
  std::vector<point<2>> pts;
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      pts.push_back(point<2>{{static_cast<double>(x),
                              static_cast<double>(y)}});
    }
  }
  return pts;
}

// In-sphere points rounded to integers, repeats dropped (first kept):
// hull edges carry collinear points, and several points often tie for
// furthest from a quickhull chain.
std::vector<point<2>> rounded(std::size_t n, uint64_t seed) {
  std::vector<point<2>> pts;
  std::set<std::pair<double, double>> seen;
  for (auto p : datagen::in_sphere<2>(n, seed)) {
    p[0] = std::round(p[0]);
    p[1] = std::round(p[1]);
    if (seen.insert({p[0], p[1]}).second) pts.push_back(p);
  }
  return pts;
}

std::vector<point<2>> dataset(int which, std::size_t n, uint64_t seed) {
  switch (which) {
    case 0: return datagen::uniform<2>(n, seed);
    case 1: return datagen::in_sphere<2>(n, seed);
    case 2: return datagen::on_sphere<2>(n, seed);
    case 3: return datagen::on_cube<2>(n, seed);
    case 4: return lattice(n);
    default: return rounded(n, seed);
  }
}

}  // namespace

struct Hull2dParam {
  int dist;
  std::size_t n;
  uint64_t seed;
};

class Hull2dSweep : public ::testing::TestWithParam<Hull2dParam> {};

TEST_P(Hull2dSweep, AllMethodsAgreeAndValid) {
  const auto p = GetParam();
  auto pts = dataset(p.dist, p.n, p.seed);
  auto h0 = hull2d::sequential_quickhull(pts);
  check_valid_hull(pts, h0);
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    testutil::scoped_workers w(workers);
    EXPECT_EQ(h0, hull2d::quickhull(pts));
    EXPECT_EQ(h0, hull2d::randinc(pts));
    EXPECT_EQ(h0, hull2d::reservation_quickhull(pts));
    EXPECT_EQ(h0, hull2d::divide_conquer(pts));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistSizeSeed, Hull2dSweep,
    ::testing::Values(Hull2dParam{0, 1000, 1}, Hull2dParam{0, 30000, 2},
                      Hull2dParam{1, 1000, 3}, Hull2dParam{1, 30000, 4},
                      Hull2dParam{2, 1000, 5}, Hull2dParam{2, 30000, 6},
                      Hull2dParam{3, 30000, 7}, Hull2dParam{0, 17, 8},
                      Hull2dParam{2, 100, 9}, Hull2dParam{4, 400, 10},
                      Hull2dParam{4, 40000, 11}, Hull2dParam{5, 100, 5},
                      Hull2dParam{5, 1000, 12}, Hull2dParam{2, 100000, 13}),
    [](const ::testing::TestParamInfo<Hull2dParam>& info) {
      return "dist" + std::to_string(info.param.dist) + "_n" +
             std::to_string(info.param.n) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(Hull2d, RandincSeedsAgree) {
  auto pts = datagen::in_sphere<2>(5000, 31);
  auto h1 = hull2d::randinc(pts, 8, 1);
  auto h2 = hull2d::randinc(pts, 8, 99);
  EXPECT_EQ(h1, h2);  // the hull is unique regardless of insertion order
}

TEST(Hull2d, BatchFactorDoesNotChangeResult) {
  auto pts = datagen::on_sphere<2>(5000, 32);
  auto h1 = hull2d::reservation_quickhull(pts, 1);
  auto h2 = hull2d::reservation_quickhull(pts, 64);
  EXPECT_EQ(h1, h2);
}

TEST(Hull2d, EmptyAndTinyInputs) {
  std::vector<point<2>> empty;
  EXPECT_TRUE(hull2d::sequential_quickhull(empty).empty());
  EXPECT_TRUE(hull2d::randinc(empty).empty());

  std::vector<point<2>> one{point<2>{{1, 1}}};
  EXPECT_EQ(hull2d::sequential_quickhull(one), std::vector<std::size_t>{0});
  EXPECT_EQ(hull2d::randinc(one), std::vector<std::size_t>{0});

  std::vector<point<2>> tri{point<2>{{0, 0}}, point<2>{{1, 0}},
                            point<2>{{0, 1}}};
  auto h = hull2d::sequential_quickhull(tri);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h, hull2d::randinc(tri));
  EXPECT_EQ(h, hull2d::divide_conquer(tri));
}

TEST(Hull2d, AllPointsIdentical) {
  std::vector<point<2>> pts(100, point<2>{{3, 3}});
  auto h = hull2d::sequential_quickhull(pts);
  ASSERT_EQ(h.size(), 1u);
  auto hr = hull2d::randinc(pts);
  ASSERT_EQ(hr.size(), 1u);
  EXPECT_EQ(pts[h[0]], pts[hr[0]]);
}

TEST(Hull2d, CollinearInput) {
  std::vector<point<2>> pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back(point<2>{{static_cast<double>(i), 2.0 * i}});
  }
  auto h = hull2d::sequential_quickhull(pts);
  ASSERT_EQ(h.size(), 2u);  // extreme pair only
  EXPECT_EQ(pts[h[0]][0], 0);
  EXPECT_EQ(pts[h[1]][0], 49);
  auto hr = hull2d::randinc(pts);
  ASSERT_EQ(hr.size(), 2u);
}

TEST(Hull2d, DuplicatedExtremes) {
  std::vector<point<2>> pts = datagen::uniform<2>(500, 41);
  // Duplicate every hull vertex once.
  auto h = hull2d::sequential_quickhull(pts);
  const std::size_t orig = pts.size();
  for (const std::size_t v : h) pts.push_back(pts[v]);
  auto h2 = hull2d::sequential_quickhull(pts);
  auto h3 = hull2d::randinc(pts);
  auto h4 = hull2d::reservation_quickhull(pts);
  EXPECT_EQ(h2.size(), h.size());
  EXPECT_EQ(h3.size(), h.size());
  EXPECT_EQ(h4.size(), h.size());
  // Hull geometry identical regardless of which duplicate is picked.
  for (std::size_t i = 0; i < h2.size(); ++i) {
    EXPECT_EQ(pts[h2[i] % orig], pts[h2[i]]);
  }
}

TEST(Hull2d, HullOfHullIsIdentity) {
  auto pts = datagen::in_sphere<2>(10000, 55);
  auto h = hull2d::sequential_quickhull(pts);
  std::vector<point<2>> hullPts;
  for (const std::size_t v : h) hullPts.push_back(pts[v]);
  auto h2 = hull2d::sequential_quickhull(hullPts);
  EXPECT_EQ(h2.size(), hullPts.size());
}

TEST(Hull2d, OutputSizeGrowsWithBoundaryConcentration) {
  // On-sphere data puts nearly all points near the hull: output size must
  // far exceed the uniform case.
  auto uni = datagen::uniform<2>(20000, 61);
  auto osp = datagen::on_sphere<2>(20000, 61);
  EXPECT_GT(hull2d::sequential_quickhull(osp).size(),
            2 * hull2d::sequential_quickhull(uni).size());
}
