// Shared helpers for the test suite: brute-force reference implementations
// and dataset shorthands.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/point.h"

namespace pargeo::testutil {

/// Brute-force k nearest squared distances from q to pts (including q if
/// present), ascending.
template <int D>
std::vector<double> brute_knn_dists(const std::vector<point<D>>& pts,
                                    const point<D>& q, std::size_t k) {
  std::vector<double> d(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) d[i] = pts[i].dist_sq(q);
  std::sort(d.begin(), d.end());
  d.resize(std::min(k, d.size()));
  return d;
}

/// Brute-force points within radius of center (indices).
template <int D>
std::vector<std::size_t> brute_range_ball(const std::vector<point<D>>& pts,
                                          const point<D>& c, double r) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].dist_sq(c) <= r * r) out.push_back(i);
  }
  return out;
}

/// Brute-force closest-pair squared distance (n^2).
template <int D>
double brute_closest_pair(const std::vector<point<D>>& pts) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      best = std::min(best, pts[i].dist_sq(pts[j]));
    }
  }
  return best;
}

/// Prim's MST (n^2) — reference for the EMST.
struct prim_tree {
  double weight = 0;
  std::vector<std::pair<std::size_t, std::size_t>> edges;  // (min, max) ids
};

template <int D>
prim_tree prim(const std::vector<point<D>>& pts) {
  const std::size_t n = pts.size();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> parent(n, 0);
  std::vector<bool> in(n, false);
  dist[0] = 0;
  prim_tree out;
  for (std::size_t it = 0; it < n; ++it) {
    std::size_t u = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in[i] && (u == n || dist[i] < dist[u])) u = i;
    }
    in[u] = true;
    out.weight += std::sqrt(dist[u]);
    if (u != 0) out.edges.push_back(std::minmax(u, parent[u]));
    for (std::size_t v = 0; v < n; ++v) {
      if (in[v]) continue;
      const double d = pts[u].dist_sq(pts[v]);
      if (d < dist[v]) {
        dist[v] = d;
        parent[v] = u;
      }
    }
  }
  return out;
}

/// Sets the OpenMP worker count for its scope, so a test takes the
/// parallel paths even on a one-vCPU runner.
class scoped_workers {
 public:
  explicit scoped_workers(int n) : old_(omp_get_max_threads()) {
    omp_set_num_threads(n);
  }
  ~scoped_workers() { omp_set_num_threads(old_); }
  scoped_workers(const scoped_workers&) = delete;
  scoped_workers& operator=(const scoped_workers&) = delete;

 private:
  int old_;
};

}  // namespace pargeo::testutil
