// Tests for the well-separated pair decomposition: exact pair coverage,
// separation of emitted pairs, linear pair count, and spanner stretch.
#include <gtest/gtest.h>

#include <map>
#include <queue>

#include "datagen/datagen.h"
#include "wspd/wspd.h"

using namespace pargeo;

namespace {

// Counts how often each unordered point pair is covered by the
// decomposition; self-pairs (a == b) cover internal pairs once.
template <int D>
std::map<std::pair<std::size_t, std::size_t>, int> coverage(
    const kdtree::tree<D>& t, const std::vector<wspd::node_pair>& pairs) {
  std::map<std::pair<std::size_t, std::size_t>, int> cover;
  for (const auto& pr : pairs) {
    const auto& a = t.node_at(pr.a);
    const auto& b = t.node_at(pr.b);
    if (pr.a == pr.b) {
      for (std::size_t i = a.lo; i < a.hi; ++i) {
        for (std::size_t j = i + 1; j < a.hi; ++j) {
          const std::size_t u = t.id_of(i), v = t.id_of(j);
          cover[{std::min(u, v), std::max(u, v)}]++;
        }
      }
    } else {
      for (std::size_t i = a.lo; i < a.hi; ++i) {
        for (std::size_t j = b.lo; j < b.hi; ++j) {
          const std::size_t u = t.id_of(i), v = t.id_of(j);
          cover[{std::min(u, v), std::max(u, v)}]++;
        }
      }
    }
  }
  return cover;
}

}  // namespace

TEST(Wspd, CoversEveryPairExactlyOnceDefaultLeaves) {
  auto pts = datagen::uniform<2>(400, 1);
  kdtree::tree<2> t(pts);
  auto pairs = wspd::decompose<2>(t, 2.0);
  auto cover = coverage<2>(t, pairs);
  const std::size_t n = pts.size();
  EXPECT_EQ(cover.size(), n * (n - 1) / 2);
  for (const auto& [key, c] : cover) {
    ASSERT_EQ(c, 1) << key.first << "," << key.second;
  }
}

TEST(Wspd, CoversEveryPairExactlyOnceSingletonLeaves) {
  auto pts = datagen::visualvar<2>(300, 2);
  kdtree::tree<2> t(pts, kdtree::split_policy::object_median, 1);
  auto pairs = wspd::decompose<2>(t, 2.0);
  auto cover = coverage<2>(t, pairs);
  const std::size_t n = pts.size();
  EXPECT_EQ(cover.size(), n * (n - 1) / 2);
  for (const auto& [key, c] : cover) ASSERT_EQ(c, 1);
}

TEST(Wspd, EmittedPairsAreSeparatedWithSingletonLeaves) {
  auto pts = datagen::uniform<2>(500, 3);
  kdtree::tree<2> t(pts, kdtree::split_policy::object_median, 1);
  const double s = 2.0;
  auto pairs = wspd::decompose<2>(t, s);
  for (const auto& pr : pairs) {
    ASSERT_NE(pr.a, pr.b);
    EXPECT_TRUE(wspd::well_separated<2>(t, pr.a, pr.b, s));
  }
}

TEST(Wspd, PairCountIsLinearish) {
  // WSPD size is O(s^d * n); check the constant stays sane for s=2, d=2.
  for (const std::size_t n : {1000u, 2000u, 4000u}) {
    auto pts = datagen::uniform<2>(n, 4);
    kdtree::tree<2> t(pts, kdtree::split_policy::object_median, 1);
    auto pairs = wspd::decompose<2>(t, 2.0);
    EXPECT_LT(pairs.size(), 60 * n);
    EXPECT_GT(pairs.size(), n / 2);
  }
}

TEST(Wspd, HigherSeparationGivesMorePairs) {
  auto pts = datagen::uniform<2>(2000, 5);
  kdtree::tree<2> t(pts, kdtree::split_policy::object_median, 1);
  const auto p2 = wspd::decompose<2>(t, 2.0).size();
  const auto p4 = wspd::decompose<2>(t, 4.0).size();
  EXPECT_GT(p4, p2);
}

TEST(Wspd, WorksIn3d5d) {
  auto pts3 = datagen::uniform<3>(300, 6);
  kdtree::tree<3> t3(pts3, kdtree::split_policy::object_median, 1);
  auto cover3 = coverage<3>(t3, wspd::decompose<3>(t3, 2.0));
  EXPECT_EQ(cover3.size(), pts3.size() * (pts3.size() - 1) / 2);

  auto pts5 = datagen::uniform<5>(150, 7);
  kdtree::tree<5> t5(pts5, kdtree::split_policy::object_median, 1);
  auto cover5 = coverage<5>(t5, wspd::decompose<5>(t5, 2.0));
  EXPECT_EQ(cover5.size(), pts5.size() * (pts5.size() - 1) / 2);
}

TEST(Wspd, SpannerStretchBound) {
  const double stretch = 2.0;
  auto pts = datagen::uniform<2>(250, 8);
  kdtree::tree<2> t(pts, kdtree::split_policy::object_median, 1);
  auto edges = wspd::spanner<2>(t, stretch);
  // Dijkstra from a few sources over the spanner; graph distance must be
  // within `stretch` of the Euclidean distance for every target.
  std::vector<std::vector<std::pair<std::size_t, double>>> adj(pts.size());
  for (const auto& [u, v] : edges) {
    const double w = pts[u].dist(pts[v]);
    adj[u].push_back({v, w});
    adj[v].push_back({u, w});
  }
  for (const std::size_t src : {0u, 57u, 123u}) {
    std::vector<double> dist(pts.size(),
                             std::numeric_limits<double>::infinity());
    using Q = std::pair<double, std::size_t>;
    std::priority_queue<Q, std::vector<Q>, std::greater<Q>> pq;
    dist[src] = 0;
    pq.push({0, src});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (const auto& [v, w] : adj[u]) {
        if (d + w < dist[v]) {
          dist[v] = d + w;
          pq.push({dist[v], v});
        }
      }
    }
    for (std::size_t v = 0; v < pts.size(); ++v) {
      if (v == src) continue;
      const double direct = pts[src].dist(pts[v]);
      ASSERT_LE(dist[v], stretch * direct * (1 + 1e-9))
          << "stretch violated " << src << "->" << v;
    }
  }
}

TEST(Wspd, DuplicatePointsDontBreakDecomposition) {
  std::vector<point<2>> pts = datagen::uniform<2>(200, 9);
  pts.insert(pts.end(), pts.begin(), pts.begin() + 50);  // 50 duplicates
  kdtree::tree<2> t(pts);
  auto pairs = wspd::decompose<2>(t, 2.0);
  auto cover = coverage<2>(t, pairs);
  const std::size_t n = pts.size();
  EXPECT_EQ(cover.size(), n * (n - 1) / 2);
}
