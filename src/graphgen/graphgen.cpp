#include "graphgen/graphgen.h"

#include <algorithm>
#include <cmath>

#include "delaunay/delaunay.h"
#include "kdtree/kdtree.h"
#include "mortonsort/mortonsort.h"
#include "parallel/parallel.h"
#include "wspd/wspd.h"

namespace pargeo::graphgen {

namespace {

template <int D>
std::vector<std::vector<std::size_t>> knn_graph_impl(
    const std::vector<point<D>>& pts, std::size_t k) {
  kdtree::tree<D> t(pts);
  std::vector<std::vector<std::size_t>> out(pts.size());
  mortonsort::parallel_for_each(
      pts,
      [&](std::size_t i) {
        // Ask for k+1 since the query point itself is stored in the tree.
        auto nn = t.knn(pts[i], std::min(k + 1, pts.size()));
        out[i].reserve(k);
        for (const auto& e : nn) {
          if (e.id == i) continue;
          out[i].push_back(e.id);
          if (out[i].size() == k) break;
        }
      },
      32);
  return out;
}

// True iff some point other than u and v lies in the beta-lune of (u, v):
// for beta >= 1, the intersection of the two disks of radius
// beta*|uv|/2 centered at c_u = u*(1-beta/2) + v*(beta/2) and symmetric
// c_v. beta = 1 gives the Gabriel diametral circle.
bool lune_occupied(const kdtree::tree<2>& t,
                   const std::vector<point<2>>& pts, std::size_t u,
                   std::size_t v, double beta) {
  const point<2>& pu = pts[u];
  const point<2>& pv = pts[v];
  const double r = beta * pu.dist(pv) / 2.0;
  const point<2> cu = pu * (1.0 - beta / 2.0) + pv * (beta / 2.0);
  const point<2> cv = pv * (1.0 - beta / 2.0) + pu * (beta / 2.0);
  // Candidates from one disk (range search), then exact lune membership.
  // Shrink by a relative epsilon so boundary points (u, v themselves at
  // beta = 1) are not miscounted through rounding.
  const double tol = 1e-12 * (1.0 + r);
  auto cand = t.range_ball(cu, r);
  for (const std::size_t w : cand) {
    if (w == u || w == v) continue;
    if (pts[w].dist(cu) < r - tol && pts[w].dist(cv) < r - tol) {
      return true;
    }
  }
  return false;
}

edge_list filter_delaunay(const std::vector<point<2>>& pts, double beta) {
  auto tr = delaunay::triangulate(pts);
  auto edges = tr.edges();
  kdtree::tree<2> t(pts);
  std::vector<uint8_t> keep(edges.size());
  par::parallel_for(
      0, edges.size(),
      [&](std::size_t i) {
        keep[i] =
            !lune_occupied(t, pts, edges[i].first, edges[i].second, beta);
      },
      16);
  return par::pack(edges, keep);
}

}  // namespace

std::vector<std::vector<std::size_t>> knn_graph(
    const std::vector<point<2>>& pts, std::size_t k) {
  return knn_graph_impl<2>(pts, k);
}

std::vector<std::vector<std::size_t>> knn_graph3(
    const std::vector<point<3>>& pts, std::size_t k) {
  return knn_graph_impl<3>(pts, k);
}

edge_list delaunay_graph(const std::vector<point<2>>& pts) {
  return delaunay::triangulate(pts).edges();
}

edge_list gabriel_graph(const std::vector<point<2>>& pts) {
  return filter_delaunay(pts, 1.0);
}

edge_list beta_skeleton(const std::vector<point<2>>& pts, double beta) {
  return filter_delaunay(pts, beta);
}

edge_list spanner(const std::vector<point<2>>& pts, double stretch) {
  // leaf_size = 1: the stretch guarantee needs a point-level WSPD.
  kdtree::tree<2> t(pts, kdtree::split_policy::object_median, 1);
  auto edges = wspd::spanner<2>(t, stretch);
  for (auto& e : edges) {
    if (e.first > e.second) std::swap(e.first, e.second);
  }
  par::sort(edges);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace pargeo::graphgen
