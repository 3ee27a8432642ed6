// Static parallel kd-tree (paper Module 1).
//
// Built by kdtree/build.h, the builder the BDL-tree's vEB trees share:
// each node splits its range along its box's widest dimension by the
// object median or the spatial median, and the tree (point order, nodes
// and their slots, build.h's *Slots*) is the same at every worker count.
// The nodes are kdtree/node.h's, in one array: a leaf-size-1 tree fills
// slots [0, 2n - 1), larger leaves leave unused slots between forked
// blocks, which nothing reads. Slots are 32-bit, so a tree holds at most
// 2^31 points. Queries: exact k-NN (single and data-parallel batch),
// orthogonal range search, and ball range search.
#pragma once

#include <algorithm>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/aabb.h"
#include "core/point.h"
#include "kdtree/build.h"
#include "kdtree/knn_buffer.h"
#include "kdtree/node.h"
#include "mortonsort/mortonsort.h"
#include "parallel/parallel.h"

namespace pargeo::kdtree {

template <int D>
class tree {
 public:
  using node = kdtree::node<D>;

  static constexpr std::size_t kDefaultLeafSize = 16;
  /// Most points a tree holds: its up to 2n - 1 slots are 32-bit.
  static constexpr std::size_t kMaxPoints = std::size_t{1} << 31;

  /// Builds the tree over a copy of `pts` (points are permuted internally;
  /// original indices are available via `id_of`). Throws std::length_error
  /// above kMaxPoints points.
  explicit tree(const std::vector<point<D>>& pts,
                split_policy policy = split_policy::object_median,
                std::size_t leaf_size = kDefaultLeafSize)
      : nodes_(2 * std::max<std::size_t>(1, checked_size(pts.size())) - 1),
        points_(pts.size()),
        ids_(pts.size()) {
    const std::size_t n = pts.size();
    // The builder permutes (point, input index) pairs, which are then
    // unzipped so that queries scan the points alone. n = 0 still gets
    // one (empty leaf) root so queries need no null checks.
    raw_buffer<item> items(n);
    item* const a = items.data();
    par::parallel_for(0, n, [&](std::size_t i) {
      ::new (static_cast<void*>(a + i)) item{pts[i], i};
    });
    leaf_size = std::max<std::size_t>(1, leaf_size);
    std::uint32_t root_slot = kRoot;
    kdtree::build(
        a, n, policy, &root_slot,
        [&](std::uint32_t* at, std::size_t slot, std::size_t lo,
            std::size_t hi) {
          *at = static_cast<std::uint32_t>(slot);
          const aabb<D> box = box_of(a + lo, hi - lo);
          const auto l = static_cast<std::uint32_t>(lo);
          const auto h = static_cast<std::uint32_t>(hi);
          nodes_[slot] = node{box, 0, l, h, h - l, 0, 0, -1};
          return hi - lo <= leaf_size ? -1 : box.widest_dim();
        },
        [&](std::uint32_t* at, int dim, double value) {
          node& nd = nodes_[*at];
          nd.split_dim = dim;
          nd.split_val = value;
          return std::pair{&nd.left, &nd.right};
        },
        [](std::uint32_t*) {});
    par::parallel_for(0, n, [&](std::size_t i) {
      ::new (static_cast<void*>(points_.data() + i)) point<D>(a[i].p);
      ::new (static_cast<void*>(ids_.data() + i)) std::size_t(a[i].id);
    });
  }

  // Unused slots of the node array are never written, so nothing copies it.
  tree(const tree&) = delete;
  tree& operator=(const tree&) = delete;

  std::size_t size() const { return points_.size(); }

  /// The node at `slot`; the root is at kRoot. Every node's slot, and so
  /// every link, is below num_slots().
  const node& node_at(std::uint32_t slot) const { return nodes_[slot]; }
  std::size_t num_slots() const { return nodes_.size(); }

  /// Point stored at internal slot i (post-permutation).
  const point<D>& point_at(std::size_t i) const { return points_[i]; }
  /// Original (input-order) index of internal slot i.
  std::size_t id_of(std::size_t i) const { return ids_[i]; }

  /// Exact k nearest neighbors of `q` among the stored points, sorted by
  /// distance. Returns original input indices. If the query point itself
  /// is stored, it appears in the result (distance 0).
  std::vector<knn_buffer::entry> knn(const point<D>& q, std::size_t k) const {
    knn_buffer buf(std::min(k, size()));
    walk().knn(kRoot, q, [](std::uint32_t i) { return std::size_t{i}; }, buf);
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
    walk().box(kRoot, query_box,
               [&](std::uint32_t i) { out.push_back(ids_[i]); });
    return out;
  }

  /// Original indices of all points within distance `radius` of `center`.
  std::vector<std::size_t> range_ball(const point<D>& center,
                                      double radius) const {
    std::vector<std::size_t> out;
    walk().ball(kRoot, center, radius * radius,
                [&](std::uint32_t i) { out.push_back(ids_[i]); });
    return out;
  }

 private:
  // A point and its input index, as the builder moves them.
  struct item {
    point<D> p;
    std::size_t id;
    double operator[](int d) const { return p[d]; }
  };

  static std::size_t checked_size(std::size_t n) {
    if (n > kMaxPoints) {
      throw std::length_error("kdtree::tree: more than 2^31 points");
    }
    return n;
  }

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

  auto walk() const {
    return walker(nodes_.data(), points_.data(),
                  [](std::uint32_t) { return true; });
  }

  raw_buffer<node> nodes_;
  raw_buffer<point<D>> points_;
  raw_buffer<std::size_t> ids_;
};

}  // namespace pargeo::kdtree
