#include "closestpair/closestpair.h"

#include <algorithm>

#include "parallel/parallel.h"

namespace pargeo::closestpair {

namespace {

// Dual-tree branch and bound between nodes, given by slot, of (possibly
// distinct) trees. `self` skips identical points when both nodes come from
// the same tree.
template <int D>
void bccp_rec(const kdtree::tree<D>& ta, const kdtree::tree<D>& tb,
              std::uint32_t a, std::uint32_t b, bool self,
              pair_result& best) {
  const auto& na = ta.node_at(a);
  const auto& nb = tb.node_at(b);
  if (na.box.dist_sq(nb.box) >= best.dist_sq) return;
  if (na.is_leaf() && nb.is_leaf()) {
    for (std::size_t i = na.lo; i < na.hi; ++i) {
      for (std::size_t j = nb.lo; j < nb.hi; ++j) {
        if (self && i == j) continue;
        const double d = ta.point_at(i).dist_sq(tb.point_at(j));
        if (d < best.dist_sq) best = {i, j, d};
      }
    }
    return;
  }
  // Split the node with the larger diameter; visit the closer child first
  // so pruning kicks in early.
  const bool splitA =
      !na.is_leaf() &&
      (nb.is_leaf() || na.box.diameter_sq() >= nb.box.diameter_sq());
  const kdtree::tree<D>& ts = splitA ? ta : tb;
  const auto& split = splitA ? na : nb;
  const aabb<D>& other = splitA ? nb.box : na.box;
  std::uint32_t c1 = split.left, c2 = split.right;
  if (ts.node_at(c2).box.dist_sq(other) < ts.node_at(c1).box.dist_sq(other)) {
    std::swap(c1, c2);
  }
  for (const std::uint32_t c : {c1, c2}) {
    bccp_rec(ta, tb, splitA ? c : a, splitA ? b : c, self, best);
  }
}

}  // namespace

template <int D>
pair_result closest_pair(const std::vector<point<D>>& pts) {
  const std::size_t n = pts.size();
  kdtree::tree<D> t(pts);
  std::vector<pair_result> local(n);
  // The closest pair is some point's nearest neighbor: take 2-NN of every
  // point (the first hit is the point itself) in data-parallel fashion.
  par::parallel_for(
      0, n,
      [&](std::size_t i) {
        auto nn = t.knn(pts[i], 2);
        for (const auto& e : nn) {
          if (e.id != i) {
            local[i] = {i, e.id, e.dist_sq};
            return;
          }
        }
        // Duplicate of i shadowing both slots: distance 0 to that point.
        local[i] = {i, nn[0].id != i ? nn[0].id : nn[1].id, 0.0};
      },
      64);
  const std::size_t b = par::min_element_index(
      local, [](const pair_result& x, const pair_result& y) {
        return x.dist_sq < y.dist_sq;
      });
  return local[b];
}

template <int D>
pair_result bichromatic_closest_pair(const std::vector<point<D>>& red,
                                     const std::vector<point<D>>& blue) {
  kdtree::tree<D> ta(red), tb(blue);
  // Parallelize by seeding a branch-and-bound per red leaf against the
  // blue root, each with a locally improving bound, then reduce.
  std::vector<std::uint32_t> leaves, stack{kdtree::kRoot};
  while (!stack.empty()) {
    const std::uint32_t at = stack.back();
    stack.pop_back();
    const auto& nd = ta.node_at(at);
    if (nd.is_leaf()) {
      leaves.push_back(at);
    } else {
      stack.push_back(nd.left);
      stack.push_back(nd.right);
    }
  }
  std::vector<pair_result> local(leaves.size());
  par::parallel_for(
      0, leaves.size(),
      [&](std::size_t i) {
        pair_result best;
        bccp_rec(ta, tb, leaves[i], kdtree::kRoot, false, best);
        local[i] = best;
      },
      1);
  pair_result best;
  for (const auto& r : local) {
    if (r.dist_sq < best.dist_sq) best = r;
  }
  return {ta.id_of(best.i), tb.id_of(best.j), best.dist_sq};
}

template <int D>
pair_result bccp_nodes(const kdtree::tree<D>& t, std::uint32_t a,
                       std::uint32_t b) {
  pair_result best;
  bccp_rec(t, t, a, b, /*self=*/true, best);
  return {t.id_of(best.i), t.id_of(best.j), best.dist_sq};
}

#define PARGEO_CP_INSTANTIATE(D)                                      \
  template pair_result closest_pair<D>(const std::vector<point<D>>&); \
  template pair_result bichromatic_closest_pair<D>(                   \
      const std::vector<point<D>>&, const std::vector<point<D>>&);    \
  template pair_result bccp_nodes<D>(const kdtree::tree<D>&,          \
                                     std::uint32_t, std::uint32_t);

PARGEO_CP_INSTANTIATE(2)
PARGEO_CP_INSTANTIATE(3)
PARGEO_CP_INSTANTIATE(5)
PARGEO_CP_INSTANTIATE(7)

}  // namespace pargeo::closestpair
