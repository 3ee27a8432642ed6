// Tests for 3D convex hull: method agreement, mesh validity (outward
// facets, containment, Euler characteristic), instrumentation, degenerate
// inputs, and the facet-plane visibility filter against exact signs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "core/predicates.h"
#include "datagen/datagen.h"
#include "hull/hull3d.h"
#include "hull/hull3d_impl.h"
#include "parallel/random.h"
#include "test_util.h"

using namespace pargeo;

namespace {

void check_valid_mesh(const std::vector<point<3>>& pts,
                      const hull3d::mesh& m) {
  ASSERT_GE(m.facets.size(), 4u);
  // Containment + outward orientation: no point strictly outside a facet.
  for (const auto& f : m.facets) {
    for (std::size_t p = 0; p < pts.size(); ++p) {
      ASSERT_GE(orient3d(pts[f[0]], pts[f[1]], pts[f[2]], pts[p]), 0)
          << "point " << p << " outside facet";
    }
  }
  // Topology: closed 2-manifold triangle mesh. Each directed edge appears
  // exactly once; undirected edges exactly twice; Euler V - E + F = 2.
  std::set<std::pair<std::size_t, std::size_t>> directed;
  std::map<std::pair<std::size_t, std::size_t>, int> undirected;
  std::set<std::size_t> verts;
  for (const auto& f : m.facets) {
    for (int e = 0; e < 3; ++e) {
      const std::size_t u = f[e];
      const std::size_t w = f[(e + 1) % 3];
      ASSERT_NE(u, w);
      ASSERT_TRUE(directed.insert({u, w}).second)
          << "duplicate directed edge";
      undirected[{std::min(u, w), std::max(u, w)}]++;
      verts.insert(u);
    }
  }
  for (const auto& [e, c] : undirected) {
    ASSERT_EQ(c, 2) << "edge not shared by exactly two facets";
  }
  const long V = static_cast<long>(verts.size());
  const long E = static_cast<long>(undirected.size());
  const long F = static_cast<long>(m.facets.size());
  EXPECT_EQ(V - E + F, 2);
}

std::vector<point<3>> dataset(int which, std::size_t n, uint64_t seed) {
  switch (which) {
    case 0: return datagen::uniform<3>(n, seed);
    case 1: return datagen::in_sphere<3>(n, seed);
    case 2: return datagen::on_sphere<3>(n, seed);
    case 3: return datagen::on_cube<3>(n, seed);
    default: return datagen::synthetic_statue(n, seed);
  }
}

// Integer lattice of side^3 points in x, y, z order.
std::vector<point<3>> lattice(int side) {
  std::vector<point<3>> pts;
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      for (int z = 0; z < side; ++z) {
        pts.push_back(point<3>{{1.0 * x, 1.0 * y, 1.0 * z}});
      }
    }
  }
  return pts;
}

}  // namespace

struct Hull3dParam {
  int dist;
  std::size_t n;
  uint64_t seed;
};

class Hull3dSweep : public ::testing::TestWithParam<Hull3dParam> {};

TEST_P(Hull3dSweep, AllMethodsAgreeAndValid) {
  const auto p = GetParam();
  auto pts = dataset(p.dist, p.n, p.seed);
  auto m0 = hull3d::sequential_quickhull(pts);
  check_valid_mesh(pts, m0);
  auto v0 = hull3d::hull_vertices(m0);
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    testutil::scoped_workers w(workers);
    EXPECT_EQ(v0, hull3d::hull_vertices(hull3d::randinc(pts)));
    EXPECT_EQ(v0, hull3d::hull_vertices(hull3d::reservation_quickhull(pts)));
    EXPECT_EQ(v0, hull3d::hull_vertices(hull3d::divide_conquer(pts)));
    EXPECT_EQ(v0, hull3d::hull_vertices(hull3d::pseudohull(pts)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistSizeSeed, Hull3dSweep,
    ::testing::Values(Hull3dParam{0, 2000, 1}, Hull3dParam{0, 20000, 2},
                      Hull3dParam{1, 20000, 3}, Hull3dParam{2, 2000, 4},
                      Hull3dParam{2, 20000, 5}, Hull3dParam{3, 20000, 6},
                      Hull3dParam{4, 20000, 7}, Hull3dParam{0, 50, 8},
                      Hull3dParam{1, 300, 9}, Hull3dParam{0, 100000, 10}),
    [](const ::testing::TestParamInfo<Hull3dParam>& info) {
      return "dist" + std::to_string(info.param.dist) + "_n" +
             std::to_string(info.param.n) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(Hull3d, ParallelMeshesAreValidToo) {
  // Besides on-sphere points, inputs with many exactly coplanar points on
  // every hull face: a 14^3 integer lattice, a 10^3 one in shuffled index
  // order, and cube-shell points rounded to integers. Only validity is
  // asserted: the hulls may keep points inside a face as vertices. The
  // shuffled lattice makes them do so (the ordered one gives the 8
  // corners), so points coplanar with a fan facet get re-homed.
  auto cube = datagen::on_cube<3>(20000);
  for (auto& p : cube) {
    for (int d = 0; d < 3; ++d) p[d] = std::round(p[d]);
  }
  const std::pair<const char*, std::vector<point<3>>> inputs[] = {
      {"on_sphere", datagen::on_sphere<3>(5000, 21)},
      {"lattice", lattice(14)},
      {"shuffled_lattice", par::random_shuffle(lattice(10), 3)},
      {"rounded_on_cube", cube}};
  for (const int workers : {1, 4}) {
    testutil::scoped_workers w(workers);
    for (const auto& [name, pts] : inputs) {
      SCOPED_TRACE(std::string(name) + " at " + std::to_string(workers) +
                   " workers");
      check_valid_mesh(pts, hull3d::sequential_quickhull(pts));
      check_valid_mesh(pts, hull3d::randinc(pts));
      check_valid_mesh(pts, hull3d::reservation_quickhull(pts));
      check_valid_mesh(pts, hull3d::divide_conquer(pts));
      check_valid_mesh(pts, hull3d::pseudohull(pts));
    }
  }
}

TEST(Hull3d, ThrowsOnDegenerateInputs) {
  std::vector<point<3>> few{point<3>{{0, 0, 0}}, point<3>{{1, 0, 0}},
                            point<3>{{0, 1, 0}}};
  EXPECT_THROW(hull3d::sequential_quickhull(few), std::invalid_argument);

  std::vector<point<3>> identical(100, point<3>{{1, 2, 3}});
  EXPECT_THROW(hull3d::sequential_quickhull(identical),
               std::invalid_argument);

  std::vector<point<3>> collinear;
  for (int i = 0; i < 50; ++i) {
    collinear.push_back(point<3>{{1.0 * i, 2.0 * i, 3.0 * i}});
  }
  EXPECT_THROW(hull3d::sequential_quickhull(collinear),
               std::invalid_argument);

  std::vector<point<3>> coplanar;
  for (int i = 0; i < 50; ++i) {
    coplanar.push_back(point<3>{{par::rand_double(1, i) * 10,
                                 par::rand_double(2, i) * 10, 0.0}});
  }
  EXPECT_THROW(hull3d::sequential_quickhull(coplanar),
               std::invalid_argument);
  EXPECT_THROW(hull3d::randinc(coplanar), std::invalid_argument);
}

TEST(Hull3d, MinimalTetrahedron) {
  std::vector<point<3>> pts{point<3>{{0, 0, 0}}, point<3>{{1, 0, 0}},
                            point<3>{{0, 1, 0}}, point<3>{{0, 0, 1}}};
  auto m = hull3d::sequential_quickhull(pts);
  EXPECT_EQ(m.facets.size(), 4u);
  check_valid_mesh(pts, m);
  EXPECT_EQ(hull3d::hull_vertices(m).size(), 4u);
  auto m2 = hull3d::randinc(pts);
  EXPECT_EQ(m2.facets.size(), 4u);
}

TEST(Hull3d, InteriorPointsNeverOnHull) {
  auto pts = datagen::in_sphere<3>(5000, 33);
  pts.push_back(point<3>{{0, 0, 0}});  // center: strictly interior
  auto vs = hull3d::hull_vertices(hull3d::sequential_quickhull(pts));
  EXPECT_FALSE(std::binary_search(vs.begin(), vs.end(), pts.size() - 1));
}

TEST(Hull3d, StatsCountersPopulated) {
  auto pts = datagen::in_sphere<3>(10000, 34);
  hull3d::stats seq_st, par_st;
  hull3d::sequential_quickhull(pts, &seq_st);
  hull3d::reservation_quickhull(pts, 8, &par_st);
  EXPECT_GT(seq_st.facets_touched, 0u);
  EXPECT_GT(seq_st.points_touched, 0u);
  EXPECT_GT(par_st.facets_touched, 0u);
  // Appendix B: reservation overhead is modest — the reservation run
  // should not touch wildly more facets than the sequential run.
  EXPECT_LT(par_st.facets_touched, 50 * seq_st.facets_touched + 1000);
}

TEST(Hull3d, PseudohullCullsInteriorPoints) {
  auto uni = datagen::uniform<3>(20000, 35);
  const std::size_t survivors = hull3d::pseudohull_survivors(uni);
  EXPECT_LT(survivors, uni.size() / 4);  // most interior points culled
  // On-sphere data culls far less (paper §6.1: large output => slower).
  auto osp = datagen::on_sphere<3>(20000, 35);
  EXPECT_GT(hull3d::pseudohull_survivors(osp), survivors);
}

TEST(Hull3d, RandincSeedInvariance) {
  auto pts = datagen::uniform<3>(5000, 36);
  auto v1 = hull3d::hull_vertices(hull3d::randinc(pts, 8, 1));
  auto v2 = hull3d::hull_vertices(hull3d::randinc(pts, 8, 12345));
  EXPECT_EQ(v1, v2);
}

TEST(Hull3d, BatchFactorInvariance) {
  auto pts = datagen::on_cube<3>(5000, 37);
  auto v1 = hull3d::hull_vertices(hull3d::reservation_quickhull(pts, 1));
  auto v2 = hull3d::hull_vertices(hull3d::reservation_quickhull(pts, 32));
  EXPECT_EQ(v1, v2);
}

TEST(Hull3d, RoundsDependOnTheBatchSizeOnly) {
  // batch_factor x workers is 32 in every setup below, so the reservation
  // rounds, their counters and the meshes must be the same: a round's
  // batch, winners and re-homes may not depend on the worker count or on
  // the schedule.
  struct input {
    const char* name;
    std::vector<point<3>> pts;
  };
  std::vector<input> inputs;
  for (const std::size_t n : {2000, 50000, 200000}) {
    inputs.push_back({"in_sphere", datagen::in_sphere<3>(n, 5)});
    inputs.push_back({"on_sphere", datagen::on_sphere<3>(n, 6)});
    inputs.push_back({"uniform", datagen::uniform<3>(n, 7)});
  }
  auto sorted = [](hull3d::mesh m) {
    std::sort(m.facets.begin(), m.facets.end());
    return m.facets;
  };
  const std::pair<std::size_t, int> setups[] = {{32, 1}, {16, 2}, {8, 4}};
  for (const auto& [name, pts] : inputs) {
    for (const bool quick : {false, true}) {
      SCOPED_TRACE(std::string(name) + " n=" + std::to_string(pts.size()) +
                   (quick ? " reservation_quickhull" : " randinc"));
      std::vector<std::array<std::size_t, 3>> first;
      hull3d::stats first_st;
      for (const auto& [batch_factor, workers] : setups) {
        testutil::scoped_workers w(workers);
        hull3d::stats st;
        auto m = quick ? hull3d::reservation_quickhull(pts, batch_factor, &st)
                       : hull3d::randinc(pts, batch_factor, 1, &st);
        if (workers == 1) {
          first = sorted(std::move(m));
          first_st = st;
          continue;
        }
        EXPECT_EQ(st.points_touched, first_st.points_touched) << workers;
        EXPECT_EQ(st.facets_touched, first_st.facets_touched) << workers;
        EXPECT_EQ(sorted(std::move(m)), first) << workers;
      }
    }
  }
  // Pinned randinc counts at batch 32: a change to the batch rule, the
  // order of a visible region or the re-home rule moves them.
  testutil::scoped_workers w(1);
  hull3d::stats in, on;
  hull3d::randinc(datagen::in_sphere<3>(50000, 5), 32, 1, &in);
  hull3d::randinc(datagen::on_sphere<3>(50000, 6), 32, 1, &on);
  EXPECT_EQ(in.points_touched, 375196u);
  EXPECT_EQ(in.facets_touched, 28784u);
  EXPECT_EQ(on.points_touched, 434162u);
  EXPECT_EQ(on.facets_touched, 31857u);
}

TEST(Hull3d, SequentialQuickhullCountsArePinned) {
  // sequential_quickhull is the reference that perfbench and the sweeps
  // check the parallel hulls against. A change to its furthest-point rule,
  // its visibility decisions or its re-home order moves these counts.
  testutil::scoped_workers w(1);
  hull3d::stats in, on;
  hull3d::sequential_quickhull(datagen::in_sphere<3>(50000, 5), &in);
  hull3d::sequential_quickhull(datagen::on_sphere<3>(50000, 6), &on);
  EXPECT_EQ(in.points_touched, 156075u);
  EXPECT_EQ(in.facets_touched, 3980u);
  EXPECT_EQ(on.points_touched, 216782u);
  EXPECT_EQ(on.facets_touched, 4811u);
}

TEST(Hull3d, PlaneFilterDecidesOnlyExactSigns) {
  // Quadruples (a, b, c, p) on a 2^-40 grid, a, b and c in [1, 2)^3, and
  // the same quadruples shifted by -3. A third are exactly coplanar
  // (p = b + c - a); in the rest p lies within 2 grid steps of the plane
  // along the normal's largest axis. Counted in grid steps every coordinate
  // is an integer below 2^42 in magnitude, so the exact sign of
  // N . (p - a), N = (b - a) x (c - a), fits in __int128. Where the filter
  // decides, its sign must be the exact one; it may never decide on a
  // coplanar quadruple; and it must decide most of the others, or every
  // test would fall back to orient3d.
  using i128 = __int128;
  using grid = std::array<i128, 3>;
  const auto sub = [](const grid& x, const grid& y) {
    return grid{x[0] - y[0], x[1] - y[1], x[2] - y[2]};
  };
  const auto abs128 = [](i128 x) { return x < 0 ? -x : x; };
  constexpr std::size_t kQuads = 1000000;
  std::size_t coplanar = 0, others = 0, decided = 0, decided_coplanar = 0,
              wrong = 0;
  for (std::size_t i = 0; i < kQuads; ++i) {
    std::array<grid, 4> g;  // a, b, c, p
    for (int v = 0; v < 4; ++v) {
      for (int d = 0; d < 3; ++d) {
        g[v][d] = static_cast<i128>(par::rand_at(41, 12 * i + 3 * v + d) >>
                                    24);
      }
    }
    const grid& a = g[0];
    const grid u = sub(g[1], a), w = sub(g[2], a);
    const grid n{u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
                 u[0] * w[1] - u[1] * w[0]};
    grid& p = g[3];
    if (i % 3 == 0) {
      for (int d = 0; d < 3; ++d) p[d] = g[1][d] + g[2][d] - a[d];
    } else {
      int k = 0;
      for (int d = 1; d < 3; ++d) {
        if (abs128(n[d]) > abs128(n[k])) k = d;
      }
      if (n[k] == 0) continue;
      // Put p_k on the plane, rounded to the nearest step, then move it.
      const int x = (k + 1) % 3, y = (k + 2) % 3;
      const i128 num = -(n[x] * (p[x] - a[x]) + n[y] * (p[y] - a[y]));
      i128 q = num / n[k];
      if (2 * abs128(num - q * n[k]) >= abs128(n[k])) {
        q += (num < 0) != (n[k] < 0) ? -1 : 1;
      }
      p[k] = a[k] + q + static_cast<i128>(par::rand_range(42, i, 5)) - 2;
    }
    const grid d = sub(p, a);
    const i128 exact = n[0] * d[0] + n[1] * d[1] + n[2] * d[2];
    const int want = (exact > 0) - (exact < 0);
    for (const double base : {1.0, -2.0}) {  // [1, 2)^3, [-2, -1)^3
      std::array<point<3>, 4> r;
      for (int v = 0; v < 4; ++v) {
        for (int k = 0; k < 3; ++k) {
          r[v][k] = base + static_cast<double>(g[v][k]) * 0x1p-40;
        }
      }
      const int got =
          hull3d::detail::facet_plane(r[0], r[1], r[2]).side(r[3]);
      (want == 0 ? coplanar : others)++;
      if (got == 0) continue;
      ++decided;
      if (want == 0) ++decided_coplanar;
      if (got != want) ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(decided_coplanar, 0u);
  EXPECT_GE(coplanar, 2 * ((kQuads + 2) / 3));  // every third, twice
  EXPECT_GT(decided, others * 9 / 10)
      << decided << " decisions on " << others << " calls off the plane";
}

TEST(Hull3d, PlaneFilterAbstainsWhenTheNormalUnderflowed) {
  // u_y w_z = 2^-1200 underflows to 0, so the computed normal's x is 0
  // where the exact one is 2^-1200, and the x weight is 0 too. With
  // p - a = (2^520, 2^-80, 2^-80 - 2^-90), the exact N . (p - a) is
  // 2^-680 - 2^-690 > 0, the computed one -2^-690, and the bound from the
  // other two axes is about 2^-728: a filter that trusted it would call p
  // inside.
  const point<3> a{{0, 0, 0}};
  const point<3> b{{1, 0x1p-600, 0}};
  const point<3> c{{0, 0x1p-600, 0x1p-600}};
  const point<3> p{{0x1p520, 0x1p-80, 0x1p-80 - 0x1p-90}};
  EXPECT_EQ(hull3d::detail::facet_plane(a, b, c).side(p), 0);
}

TEST(Hull3d, PlaneFilterAbstainsWhenTheDotProductOverflows) {
  // n = (2^1000, 2^1000, -2^1000) and p - a = 2^24 (1.2, -0.9, 0.9): the
  // x term of t overflows to +inf, the other two are finite, so t is +inf
  // while the exact N . (p - a) = -0.6 * 2^1024 < 0, and e is finite. The
  // filter must abstain; orient3d's long double stage gets it right.
  const std::vector<point<3>> pts{point<3>{{0, 0, 0}},
                                  point<3>{{0, 0x1p500, 0x1p500}},
                                  point<3>{{0x1p500, 0, 0x1p500}},
                                  point<3>{{1.2 * 0x1p24, -0.9 * 0x1p24,
                                            0.9 * 0x1p24}}};
  const hull3d::detail::facet_plane h(pts[0], pts[1], pts[2]);
  EXPECT_EQ(h.side(pts[3]), 0);
  EXPECT_FALSE(hull3d::detail::visible(pts, {0, 1, 2}, h, pts[3]));
}

TEST(Hull3d, PseudohullThresholdInvariance) {
  auto pts = datagen::uniform<3>(10000, 38);
  auto v1 = hull3d::hull_vertices(hull3d::pseudohull(pts, 16));
  auto v2 = hull3d::hull_vertices(hull3d::pseudohull(pts, 512));
  EXPECT_EQ(v1, v2);
}
