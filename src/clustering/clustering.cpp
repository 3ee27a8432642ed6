#include "clustering/clustering.h"

#include <algorithm>
#include <numeric>

#include "core/union_find.h"
#include "emst/emst.h"
#include "kdtree/kdtree.h"
#include "parallel/parallel.h"

namespace pargeo::clustering {

template <int D>
std::vector<merge> single_linkage(const std::vector<point<D>>& pts) {
  const std::size_t n = pts.size();
  if (n < 2) return {};
  auto mst = emst::emst<D>(pts);  // already sorted by weight
  // Process edges in weight order; track the current dendrogram node of
  // each union-find root.
  union_find uf(n);
  std::vector<std::size_t> clusterOf(n);
  std::iota(clusterOf.begin(), clusterOf.end(), std::size_t{0});
  std::vector<merge> out;
  out.reserve(n - 1);
  for (const auto& e : mst) {
    const std::size_t ra = uf.find(e.u);
    const std::size_t rb = uf.find(e.v);
    const std::size_t ca = clusterOf[ra];
    const std::size_t cb = clusterOf[rb];
    uf.unite(ra, rb);
    const std::size_t newRoot = uf.find(ra);
    clusterOf[newRoot] = n + out.size();
    out.push_back({std::min(ca, cb), std::max(ca, cb), e.weight});
  }
  return out;
}

std::vector<std::size_t> cut_dendrogram(std::size_t n,
                                        const std::vector<merge>& dendro,
                                        double threshold) {
  // Union all merges with height <= threshold, then densify labels.
  union_find uf(n);
  std::vector<std::pair<std::size_t, std::size_t>> members;  // node -> rep
  // Recover the two representative leaves of every dendrogram node by
  // replaying merges; node id n+i maps to one leaf inside it.
  std::vector<std::size_t> leafOf(n + dendro.size());
  std::iota(leafOf.begin(), leafOf.begin() + n, std::size_t{0});
  for (std::size_t i = 0; i < dendro.size(); ++i) {
    leafOf[n + i] = leafOf[dendro[i].a];
    if (dendro[i].height <= threshold) {
      uf.unite(leafOf[dendro[i].a], leafOf[dendro[i].b]);
    }
  }
  std::vector<std::size_t> labels(n);
  std::vector<std::size_t> remap(n, kNoise);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = uf.find(i);
    if (remap[r] == kNoise) remap[r] = next++;
    labels[i] = remap[r];
  }
  return labels;
}

template <int D>
std::vector<std::size_t> dbscan(const std::vector<point<D>>& pts,
                                double eps, std::size_t min_pts) {
  const std::size_t n = pts.size();
  if (n == 0) return {};
  kdtree::tree<D> t(pts);
  // Phase 1 (parallel): epsilon-neighborhoods and core flags.
  std::vector<std::vector<std::size_t>> nbrs(n);
  std::vector<uint8_t> core(n);
  par::parallel_for(
      0, n,
      [&](std::size_t i) {
        nbrs[i] = t.range_ball(pts[i], eps);
        core[i] = nbrs[i].size() >= min_pts;  // includes the point itself
      },
      16);
  // Phase 2: union core points within eps (sequential over the adjacency
  // computed in parallel; the union-find scan is cheap).
  union_find uf(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!core[i]) continue;
    for (const std::size_t j : nbrs[i]) {
      if (core[j]) uf.unite(i, j);
    }
  }
  // Phase 3: labels — core components first, then border points attach to
  // any core neighbor; everything else is noise.
  std::vector<std::size_t> labels(n, kNoise);
  std::vector<std::size_t> remap(n, kNoise);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!core[i]) continue;
    const std::size_t r = uf.find(i);
    if (remap[r] == kNoise) remap[r] = next++;
    labels[i] = remap[r];
  }
  par::parallel_for(
      0, n,
      [&](std::size_t i) {
        if (core[i] || labels[i] != kNoise) return;
        for (const std::size_t j : nbrs[i]) {
          if (core[j]) {
            labels[i] = labels[j];
            break;
          }
        }
      },
      64);
  return labels;
}

#define PARGEO_CLUSTER_INSTANTIATE(D)                                \
  template std::vector<merge> single_linkage<D>(                     \
      const std::vector<point<D>>&);                                 \
  template std::vector<std::size_t> dbscan<D>(                       \
      const std::vector<point<D>>&, double, std::size_t);

PARGEO_CLUSTER_INSTANTIATE(2)
PARGEO_CLUSTER_INSTANTIATE(3)
PARGEO_CLUSTER_INSTANTIATE(5)
PARGEO_CLUSTER_INSTANTIATE(7)

}  // namespace pargeo::clustering
