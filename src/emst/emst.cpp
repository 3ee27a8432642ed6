#include "emst/emst.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>

#include "closestpair/closestpair.h"
#include "core/union_find.h"
#include "parallel/parallel.h"
#include "wspd/wspd.h"

namespace pargeo::emst {

namespace {

constexpr std::size_t kMixed = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
// Subtrees over more points than this are relabelled in parallel.
constexpr std::size_t kForkPoints = 8192;

// Component labels by node slot: a node whose points all lie in one
// component carries that component's union-find root, any other kMixed.
template <int D>
struct components {
  const kdtree::tree<D>& t;
  std::vector<std::size_t> label;

  bool single(std::uint32_t nd) const { return label[nd] != kMixed; }
  bool connected(std::uint32_t a, std::uint32_t b) const {
    return label[a] != kMixed && label[a] == label[b];
  }

  // Leaves hold one point each (the tree is built with leaf_size 1).
  std::size_t relabel(std::uint32_t at, const union_find& uf) {
    const auto& nd = t.node_at(at);
    std::size_t l = kMixed;
    if (nd.is_leaf()) {
      l = uf.root(t.id_of(nd.lo));
    } else {
      std::size_t a = 0, b = 0;
      auto left = [&] { a = relabel(nd.left, uf); };
      auto right = [&] { b = relabel(nd.right, uf); };
      if (nd.size() > kForkPoints) {
        par::par_do(left, right);
      } else {
        left();
        right();
      }
      if (a == b) l = a;
    }
    label[at] = l;
    return l;
  }
};

// Round pass (a): the smallest box distance of an unconnected pair with
// more than beta points. Only pairs closer than the running minimum are
// explored further.
template <int D>
struct next_bound {
  const components<D>& c;
  std::size_t beta;
  std::atomic<double> min_sq{kInf};

  bool start(std::uint32_t nd) const {
    return c.t.node_at(nd).size() > beta && !c.single(nd);
  }
  bool moveon(std::uint32_t a, std::uint32_t b) const {
    const auto& na = c.t.node_at(a);
    const auto& nb = c.t.node_at(b);
    return na.size() + nb.size() > beta && !c.connected(a, b) &&
           na.box.dist_sq(nb.box) < min_sq.load(std::memory_order_relaxed);
  }
  void run(std::uint32_t a, std::uint32_t b, std::vector<edge>&) {
    par::write_min(&min_sq,
                   c.t.node_at(a).box.dist_sq(c.t.node_at(b).box));
  }
};

// Round pass (b): the BCCP edges of unconnected pairs whose weight falls in
// the window [lo, hi). Pairs that cannot hold such an edge are skipped:
// those at box distance >= hi (hi_sq is the squared distance hi was taken
// from) and those whose farthest points are closer than lo.
template <int D>
struct window_edges {
  const components<D>& c;
  double lo, lo_sq, hi, hi_sq;

  bool start(std::uint32_t nd) const { return !c.single(nd); }
  bool moveon(std::uint32_t a, std::uint32_t b) const {
    const aabb<D>& ba = c.t.node_at(a).box;
    const aabb<D>& bb = c.t.node_at(b).box;
    if (c.connected(a, b) || ba.dist_sq(bb) >= hi_sq) return false;
    const double far_sq = ba.max_dist_sq(bb);
    return !(far_sq < lo_sq && std::sqrt(far_sq) < lo);
  }
  void run(std::uint32_t a, std::uint32_t b, std::vector<edge>& out) const {
    const auto r = closestpair::bccp_nodes<D>(c.t, a, b);
    const double w = std::sqrt(r.dist_sq);
    if (w >= lo && w < hi) {
      out.push_back({std::min(r.i, r.j), std::max(r.i, r.j), w});
    }
  }
};

}  // namespace

template <int D>
std::vector<edge> emst(const std::vector<point<D>>& pts) {
  const std::size_t n = pts.size();
  if (n < 2) return {};
  // leaf_size = 1: the EMST-subset-of-BCCP-edges guarantee needs a
  // point-level WSPD (multi-point leaves can hide MST edges).
  kdtree::tree<D> t(pts, kdtree::split_policy::object_median, 1);
  constexpr double kSeparation = 2.0;
  union_find uf(n);
  components<D> comp{t, std::vector<std::size_t>(t.num_slots())};
  comp.relabel(kdtree::kRoot, uf);

  std::vector<edge> mst;
  mst.reserve(n - 1);
  // The window's edges are exactly the candidate edges (one BCCP per WSPD
  // pair) whose weight lies in [lo, hi), so Kruskal over the windows in
  // order sees the same sequence as Kruskal over every candidate sorted
  // by (weight, u, v). Doubling beta bounds the rounds: once beta >= n no
  // pair is larger, hi is infinite and the round completes the tree.
  double lo = 0, lo_sq = 0;
  for (std::size_t beta = 2;; beta *= 2) {
    double hi_sq = kInf;
    if (beta < n) {
      next_bound<D> bound{comp, beta};
      std::vector<edge> none;
      wspd::traverse<D>(t, kSeparation, bound, none);
      hi_sq = bound.min_sq.load();
    }
    const double hi = std::sqrt(hi_sq);
    window_edges<D> window{comp, lo, lo_sq, hi, hi_sq};
    std::vector<edge> cand;
    wspd::traverse<D>(t, kSeparation, window, cand);
    par::sort(cand, [](const edge& a, const edge& b) {
      if (a.weight != b.weight) return a.weight < b.weight;
      if (a.u != b.u) return a.u < b.u;
      return a.v < b.v;
    });
    for (const edge& e : cand) {
      if (uf.unite(e.u, e.v)) mst.push_back(e);
    }
    if (mst.size() == n - 1 || beta >= n) break;
    comp.relabel(kdtree::kRoot, uf);
    lo = hi;
    lo_sq = hi_sq;
  }
  return mst;
}

double total_weight(const std::vector<edge>& edges) {
  double s = 0;
  for (const auto& e : edges) s += e.weight;
  return s;
}

template std::vector<edge> emst<2>(const std::vector<point<2>>&);
template std::vector<edge> emst<3>(const std::vector<point<3>>&);
template std::vector<edge> emst<5>(const std::vector<point<5>>&);
template std::vector<edge> emst<7>(const std::vector<point<7>>&);

}  // namespace pargeo::emst
