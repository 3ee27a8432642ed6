// The node format of the two static kd-trees (`kdtree::tree` and the
// BDL-tree's `bdltree::veb_tree`), and the one k-NN, box and ball walk
// over it. A node covers a range [lo, hi) of its tree's permuted points;
// `live` counts those that queries see (all in a kd-tree, the ones not
// erased in a vEB tree). Ranges, counts and links are 32-bit, so a node is
// 64 bytes at D = 2. A node inside a box or ball query emits its whole
// live range untested; rows come out in storage order either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/aabb.h"
#include "core/point.h"
#include "kdtree/knn_buffer.h"

namespace pargeo::kdtree {

template <int D>
struct node {
  aabb<D> box;
  double split_val;
  std::uint32_t lo, hi;       // range of the point array
  std::uint32_t live;         // points of the range that queries see
  std::uint32_t left, right;  // children's slots (internal nodes)
  std::int32_t split_dim;     // -1 for a leaf

  bool is_leaf() const { return split_dim < 0; }
  std::size_t size() const { return hi - lo; }
};

static_assert(sizeof(node<2>) <= 64, "a D = 2 node must fit a cache line");

/// Both trees keep their root at slot 0.
inline constexpr std::uint32_t kRoot = 0;

/// Queries over a node array and the point array it indexes; live(i) says
/// whether point i counts.
template <int D, class Live>
class walker {
 public:
  walker(const node<D>* nodes, const point<D>* pts, Live live)
      : nodes_(nodes), pts_(pts), live_(live) {}

  /// Accumulates into `buf` the nearest points to `q` below slot `at`;
  /// point i enters as id(i). The bound is tested here, which keeps the
  /// insert out of line; a point at it reaches the buffer's id comparison.
  template <class Id>
  void knn(std::uint32_t at, const point<D>& q, const Id& id,
           knn_buffer& buf) const {
    const node<D>& nd = nodes_[at];
    if (nd.live == 0) return;
    if (nd.is_leaf()) {
      for (std::uint32_t i = nd.lo; i < nd.hi; ++i) {
        if (!live_(i)) continue;
        const double d = pts_[i].dist_sq(q);
        if (d <= buf.bound()) buf.insert(d, id(i));
      }
      return;
    }
    std::uint32_t near = nd.left, far = nd.right;
    if (q[nd.split_dim] >= nd.split_val) std::swap(near, far);
    if (nodes_[near].box.dist_sq(q) < buf.bound()) knn(near, q, id, buf);
    if (nodes_[far].box.dist_sq(q) < buf.bound()) knn(far, q, id, buf);
  }

  /// Calls emit(i) for every live point i below slot `at` inside `qb`.
  template <class Emit>
  void box(std::uint32_t at, const aabb<D>& qb, const Emit& emit) const {
    const node<D>& nd = nodes_[at];
    if (nd.live == 0 || !nd.box.intersects(qb)) return;
    const bool all = nd.box.inside(qb);
    if (all || nd.is_leaf()) {
      for (std::uint32_t i = nd.lo; i < nd.hi; ++i) {
        if (live_(i) && (all || qb.contains(pts_[i]))) emit(i);
      }
      return;
    }
    box(nd.left, qb, emit);
    box(nd.right, qb, emit);
  }

  /// Calls emit(i) for every live point i below slot `at` within squared
  /// distance r_sq of `c`.
  template <class Emit>
  void ball(std::uint32_t at, const point<D>& c, double r_sq,
            const Emit& emit) const {
    const node<D>& nd = nodes_[at];
    if (nd.live == 0 || nd.box.dist_sq(c) > r_sq) return;
    const bool all = nd.box.max_dist_sq(c) <= r_sq;
    if (all || nd.is_leaf()) {
      for (std::uint32_t i = nd.lo; i < nd.hi; ++i) {
        if (live_(i) && (all || pts_[i].dist_sq(c) <= r_sq)) emit(i);
      }
      return;
    }
    ball(nd.left, c, r_sq, emit);
    ball(nd.right, c, r_sq, emit);
  }

 private:
  const node<D>* nodes_;
  const point<D>* pts_;
  Live live_;
};

}  // namespace pargeo::kdtree
