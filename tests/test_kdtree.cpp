// Tests for the static parallel kd-tree: construction invariants, k-NN
// and range search vs brute force, across dims / split policies /
// distributions (parameterized sweeps).
#include <gtest/gtest.h>

#include <set>

#include "datagen/datagen.h"
#include "kdtree/kdtree.h"
#include "test_util.h"
#include "tree_checks.h"

using namespace pargeo;
using kdtree::split_policy;

namespace {

template <int D>
void check_structure(const kdtree::tree<D>& t) {
  testutil::check_nodes(t, t.num_slots(), t.size());
}

}  // namespace

TEST(Kdtree, EmptyInputBuildsAndQueriesReturnNothing) {
  std::vector<point<2>> empty;
  kdtree::tree<2> t(empty);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.knn(point<2>{{1, 2}}, 3).empty());
  aabb<2> qb(point<2>{{-10, -10}}, point<2>{{10, 10}});
  EXPECT_TRUE(t.range_box(qb).empty());
  EXPECT_TRUE(t.range_ball(point<2>{{0, 0}}, 100.0).empty());
}

TEST(Kdtree, SinglePoint) {
  std::vector<point<2>> pts{point<2>{{1, 2}}};
  kdtree::tree<2> t(pts);
  auto nn = t.knn(point<2>{{0, 0}}, 3);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 0u);
}

TEST(Kdtree, StructureInvariantsBothPolicies) {
  auto pts = datagen::uniform<3>(20000, 3);
  kdtree::tree<3> obj(pts, split_policy::object_median);
  kdtree::tree<3> spa(pts, split_policy::spatial_median);
  check_structure(obj);
  check_structure(spa);
}

TEST(Kdtree, DuplicatePointsBuildAndQuery) {
  std::vector<point<2>> pts(1000, point<2>{{5, 5}});
  for (int i = 0; i < 100; ++i) {
    pts.push_back(point<2>{{static_cast<double>(i), 0}});
  }
  kdtree::tree<2> t(pts);
  check_structure(t);
  auto nn = t.knn(point<2>{{5, 5}}, 4);
  ASSERT_EQ(nn.size(), 4u);
  for (const auto& e : nn) EXPECT_EQ(e.dist_sq, 0.0);
}

TEST(Kdtree, KnnKLargerThanN) {
  auto pts = datagen::uniform<2>(10, 1);
  kdtree::tree<2> t(pts);
  auto nn = t.knn(pts[0], 100);
  EXPECT_EQ(nn.size(), 10u);
}

TEST(Kdtree, RangeBoxMatchesBrute) {
  auto pts = datagen::uniform<2>(5000, 4);
  kdtree::tree<2> t(pts);
  const double side = std::sqrt(5000.0);
  for (int trial = 0; trial < 20; ++trial) {
    const double x = par::rand_double(1, trial) * side;
    const double y = par::rand_double(2, trial) * side;
    const double w = par::rand_double(3, trial) * side / 4;
    aabb<2> qb(point<2>{{x, y}}, point<2>{{x + w, y + w}});
    auto got = t.range_box(qb);
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (qb.contains(pts[i])) expect.push_back(i);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(Kdtree, RangeBallMatchesBrute) {
  auto pts = datagen::in_sphere<3>(5000, 5);
  kdtree::tree<3> t(pts);
  for (int trial = 0; trial < 20; ++trial) {
    const auto& c = pts[trial * 131 % pts.size()];
    const double r = 1.0 + par::rand_double(7, trial) * 10;
    auto got = t.range_ball(c, r);
    auto expect = testutil::brute_range_ball(pts, c, r);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(Kdtree, KnnBatchMatchesSingle) {
  auto pts = datagen::uniform<2>(3000, 6);
  kdtree::tree<2> t(pts);
  std::vector<point<2>> queries(pts.begin(), pts.begin() + 50);
  auto batch = t.knn_batch(queries, 5);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto single = t.knn(queries[i], 5);
    ASSERT_EQ(batch[i].size(), single.size());
    for (std::size_t k = 0; k < single.size(); ++k) {
      EXPECT_EQ(batch[i][k].dist_sq, single[k].dist_sq);
    }
  }
}

// ---- parameterized sweep: dims x split policy x distribution ----------

struct SweepParam {
  int dim;
  split_policy policy;
  int dist;  // 0 uniform, 1 in_sphere, 2 visualvar
};

class KdtreeSweep : public ::testing::TestWithParam<SweepParam> {};

template <int D>
void run_knn_sweep(split_policy pol, int dist) {
  std::vector<point<D>> pts;
  switch (dist) {
    case 0: pts = datagen::uniform<D>(4000, 17); break;
    case 1: pts = datagen::in_sphere<D>(4000, 18); break;
    default: pts = datagen::visualvar<D>(4000, 19); break;
  }
  kdtree::tree<D> t(pts, pol);
  for (int q = 0; q < 25; ++q) {
    const auto& qp = pts[(q * 157) % pts.size()];
    auto nn = t.knn(qp, 6);
    auto brute = testutil::brute_knn_dists(pts, qp, 6);
    ASSERT_EQ(nn.size(), brute.size());
    for (std::size_t k = 0; k < brute.size(); ++k) {
      EXPECT_EQ(nn[k].dist_sq, brute[k]) << "dim=" << D << " k=" << k;
    }
  }
}

TEST_P(KdtreeSweep, KnnMatchesBruteForce) {
  const auto p = GetParam();
  switch (p.dim) {
    case 2: run_knn_sweep<2>(p.policy, p.dist); break;
    case 3: run_knn_sweep<3>(p.policy, p.dist); break;
    case 5: run_knn_sweep<5>(p.policy, p.dist); break;
    case 7: run_knn_sweep<7>(p.policy, p.dist); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimPolicyDist, KdtreeSweep,
    ::testing::Values(
        SweepParam{2, split_policy::object_median, 0},
        SweepParam{2, split_policy::spatial_median, 0},
        SweepParam{2, split_policy::object_median, 2},
        SweepParam{3, split_policy::object_median, 1},
        SweepParam{3, split_policy::spatial_median, 2},
        SweepParam{5, split_policy::object_median, 0},
        SweepParam{5, split_policy::spatial_median, 1},
        SweepParam{7, split_policy::object_median, 0},
        SweepParam{7, split_policy::spatial_median, 0}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "d" + std::to_string(info.param.dim) +
             (info.param.policy == split_policy::object_median ? "_obj"
                                                               : "_spa") +
             "_dist" + std::to_string(info.param.dist);
    });

TEST(Kdtree, LeafSizeOneWorks) {
  auto pts = datagen::uniform<2>(500, 21);
  kdtree::tree<2> t(pts, split_policy::object_median, 1);
  // One point per leaf: n leaves, and the 2n - 1 nodes fill every slot.
  EXPECT_EQ(testutil::check_nodes(t, t.num_slots(), t.size()).size(),
            pts.size());
  EXPECT_EQ(t.num_slots(), 2 * pts.size() - 1);
  auto nn = t.knn(pts[17], 3);
  auto brute = testutil::brute_knn_dists(pts, pts[17], 3);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(nn[k].dist_sq, brute[k]);
}

TEST(Kdtree, IdsMapBackToInputOrder) {
  auto pts = datagen::uniform<2>(2000, 22);
  kdtree::tree<2> t(pts);
  std::set<std::size_t> ids;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[t.id_of(i)], t.point_at(i));
    ids.insert(t.id_of(i));
  }
  EXPECT_EQ(ids.size(), pts.size());
}
