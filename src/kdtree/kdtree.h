// Static parallel kd-tree (paper Module 1).
//
// Construction runs the builder in kdtree/build.h, which the BDL-tree's
// vEB trees share: a binary recursion that forks only while a range holds
// more than kForkCutoff points, splitting each node's range along its
// bounding box's widest dimension by the object median (cut at n/2 around
// the median coordinate) or the spatial median (the box's midpoint). A
// range above kParallelSplitCutoff points is split by a parallel selection
// and a stable blocked partition, a smaller one in place by
// std::nth_element; the path depends on the range's size alone, so the
// point order and every node's contents are the same at every worker
// count. (The nodes' places in the arena are not: concurrent subtrees take
// slots from one shared counter.) Queries: exact k-NN (single and
// data-parallel batch), orthogonal range search, and ball range search. A
// batch k-NN runs its queries in Morton order, so that the queries one
// worker runs in a row walk mostly the same nodes; its rows stay in input
// order.
// Nodes expose bounding boxes so other modules (WSPD, BCCP, EMST) can run
// dual-tree traversals over the same structure.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/aabb.h"
#include "core/point.h"
#include "kdtree/build.h"
#include "kdtree/knn_buffer.h"
#include "mortonsort/mortonsort.h"
#include "parallel/parallel.h"

namespace pargeo::kdtree {

template <int D>
class tree {
 public:
  struct node {
    aabb<D> box;
    std::size_t lo = 0, hi = 0;  // range of points_ covered by this node
    int split_dim = -1;
    double split_val = 0;
    node* left = nullptr;
    node* right = nullptr;

    bool is_leaf() const { return left == nullptr; }
    std::size_t size() const { return hi - lo; }
  };

  static constexpr std::size_t kDefaultLeafSize = 16;

  /// Builds the tree over a copy of `pts` (points are permuted internally;
  /// original indices are available via `id_of`).
  explicit tree(const std::vector<point<D>>& pts,
                split_policy policy = split_policy::object_median,
                std::size_t leaf_size = kDefaultLeafSize)
      : points_(pts.size()),
        ids_(pts.size()),
        // Each internal node has two non-empty children, so node count
        // < 2n. n = 0 still gets one (empty leaf) root so queries need no
        // null checks. The bound is reserved, not constructed: a leaf-16
        // build uses ~n/8 nodes, and alloc_node constructs only those.
        arena_cap_(std::max<std::size_t>(1, 2 * pts.size())),
        arena_(arena_cap_) {
    const std::size_t n = pts.size();
    // The builder permutes (point, input index) pairs, which are then
    // unzipped so that queries scan the points alone.
    raw_buffer<item> items(n);
    item* const a = items.data();
    par::parallel_for(0, n, [&](std::size_t i) {
      ::new (static_cast<void*>(a + i)) item{pts[i], i};
    });
    leaf_size = std::max<std::size_t>(1, leaf_size);
    kdtree::build(
        a, n, policy, &root_,
        [&](node** at, std::size_t lo, std::size_t hi) {
          node* nd = alloc_node();
          *at = nd;
          nd->lo = lo;
          nd->hi = hi;
          nd->box = box_of(a + lo, hi - lo);
          return hi - lo <= leaf_size ? -1 : nd->box.widest_dim();
        },
        [](node** at, int dim, double value) {
          node* nd = *at;
          nd->split_dim = dim;
          nd->split_val = value;
          return std::pair{&nd->left, &nd->right};
        },
        [](node**) {});
    par::parallel_for(0, n, [&](std::size_t i) {
      points_[i] = a[i].p;
      ids_[i] = a[i].id;
    });
  }

  const node* root() const { return root_; }
  std::size_t size() const { return points_.size(); }

  /// Number of nodes. node_index maps each node to a distinct value below
  /// it, so callers can keep per-node data in a dense array.
  std::size_t num_nodes() const {
    return next_node_.load(std::memory_order_relaxed);
  }
  std::size_t node_index(const node* nd) const {
    return static_cast<std::size_t>(nd - arena_.data());
  }

  /// Point stored at internal slot i (post-permutation).
  const point<D>& point_at(std::size_t i) const { return points_[i]; }
  /// Original (input-order) index of internal slot i.
  std::size_t id_of(std::size_t i) const { return ids_[i]; }

  /// Exact k nearest neighbors of `q` among the stored points, sorted by
  /// distance. Returns original input indices. If the query point itself
  /// is stored, it appears in the result (distance 0).
  std::vector<knn_buffer::entry> knn(const point<D>& q, std::size_t k) const {
    knn_buffer buf(std::min(k, size()));
    knn_node(root_, q, buf);
    auto out = buf.finish();
    for (auto& e : out) e.id = ids_[e.id];
    return out;
  }

  /// Data-parallel batch k-NN: row i of the result is knn(queries[i], k).
  /// The queries run in Morton order (mortonsort::parallel_for_each), so
  /// that the queries a worker runs in a row walk mostly the same nodes;
  /// the rows stay in input order.
  std::vector<std::vector<knn_buffer::entry>> knn_batch(
      const std::vector<point<D>>& queries, std::size_t k) const {
    std::vector<std::vector<knn_buffer::entry>> out(queries.size());
    mortonsort::parallel_for_each(
        queries, [&](std::size_t i) { out[i] = knn(queries[i], k); }, 64);
    return out;
  }

  /// Original indices of all points inside `query_box`.
  std::vector<std::size_t> range_box(const aabb<D>& query_box) const {
    std::vector<std::size_t> out;
    range_box_node(root_, query_box, out);
    return out;
  }

  /// Original indices of all points within distance `radius` of `center`.
  std::vector<std::size_t> range_ball(const point<D>& center,
                                      double radius) const {
    std::vector<std::size_t> out;
    range_ball_node(root_, center, radius * radius, out);
    return out;
  }

 private:
  // A point and its input index, as the builder moves them.
  struct item {
    point<D> p;
    std::size_t id;
    double operator[](int d) const { return p[d]; }
  };

  static aabb<D> box_of(const item* a, std::size_t n) {
    const auto scan = [a](std::size_t lo, std::size_t hi) {
      aabb<D> b;
      for (std::size_t i = lo; i < hi; ++i) b.extend(a[i].p);
      return b;
    };
    if (n <= kParallelSplitCutoff) return scan(0, n);
    return par::fold_blocks(n, aabb<D>{}, scan,
                            [](aabb<D> x, const aabb<D>& y) {
                              x.extend(y);
                              return x;
                            });
  }

  node* alloc_node() {
    const std::size_t idx =
        next_node_.fetch_add(1, std::memory_order_relaxed);
    assert(idx < arena_cap_);
    return ::new (static_cast<void*>(arena_.data() + idx)) node();
  }

  void knn_node(const node* nd, const point<D>& q, knn_buffer& buf) const {
    if (nd->is_leaf()) {
      for (std::size_t i = nd->lo; i < nd->hi; ++i) {
        buf.insert(points_[i].dist_sq(q), i);
      }
      return;
    }
    const node* near = nd->left;
    const node* far = nd->right;
    if (q[nd->split_dim] >= nd->split_val) std::swap(near, far);
    if (near->box.dist_sq(q) < buf.bound()) knn_node(near, q, buf);
    if (far->box.dist_sq(q) < buf.bound()) knn_node(far, q, buf);
  }

  void range_box_node(const node* nd, const aabb<D>& qb,
                      std::vector<std::size_t>& out) const {
    if (!nd->box.intersects(qb)) return;
    if (nd->box.inside(qb)) {
      for (std::size_t i = nd->lo; i < nd->hi; ++i) out.push_back(ids_[i]);
      return;
    }
    if (nd->is_leaf()) {
      for (std::size_t i = nd->lo; i < nd->hi; ++i) {
        if (qb.contains(points_[i])) out.push_back(ids_[i]);
      }
      return;
    }
    range_box_node(nd->left, qb, out);
    range_box_node(nd->right, qb, out);
  }

  void range_ball_node(const node* nd, const point<D>& c, double r_sq,
                       std::vector<std::size_t>& out) const {
    if (nd->box.dist_sq(c) > r_sq) return;
    if (nd->box.max_dist_sq(c) <= r_sq) {
      for (std::size_t i = nd->lo; i < nd->hi; ++i) out.push_back(ids_[i]);
      return;
    }
    if (nd->is_leaf()) {
      for (std::size_t i = nd->lo; i < nd->hi; ++i) {
        if (points_[i].dist_sq(c) <= r_sq) out.push_back(ids_[i]);
      }
      return;
    }
    range_ball_node(nd->left, c, r_sq, out);
    range_ball_node(nd->right, c, r_sq, out);
  }

  // Nodes are never destroyed one by one: freeing the storage is enough.
  static_assert(std::is_trivially_destructible_v<node>);

  std::vector<point<D>> points_;
  std::vector<std::size_t> ids_;
  std::size_t arena_cap_;
  raw_buffer<node> arena_;
  std::atomic<std::size_t> next_node_{0};
  node* root_ = nullptr;
};

}  // namespace pargeo::kdtree
