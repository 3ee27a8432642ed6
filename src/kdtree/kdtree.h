// Static parallel kd-tree (paper Module 1).
//
// Construction partitions points in parallel at every level, splitting by
// either the object median (median point along the widest dimension) or
// the spatial median (midpoint of the bounding box). Queries: exact k-NN
// (single and data-parallel batch), orthogonal range search, and ball
// range search. Nodes expose bounding boxes so other modules (WSPD, BCCP,
// EMST) can run dual-tree traversals over the same structure.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "core/aabb.h"
#include "core/point.h"
#include "kdtree/knn_buffer.h"
#include "parallel/parallel.h"

namespace pargeo::kdtree {

enum class split_policy { object_median, spatial_median };

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
      : points_(pts), ids_(pts.size()), policy_(policy),
        leaf_size_(std::max<std::size_t>(1, leaf_size)) {
    const std::size_t n = points_.size();
    par::parallel_for(0, n, [&](std::size_t i) { ids_[i] = i; });
    // Each internal node has two non-empty children, so node count < 2n.
    // n = 0 still gets one (empty leaf) root so queries need no null checks.
    // The bound is reserved, not constructed: a leaf-16 build uses ~n/8
    // nodes, and alloc_node constructs only those.
    arena_cap_ = std::max<std::size_t>(1, 2 * n);
    arena_.reset(
        static_cast<node*>(::operator new(arena_cap_ * sizeof(node))));
    root_ = build(0, n, compute_box(0, n));
  }

  const node* root() const { return root_; }
  std::size_t size() const { return points_.size(); }

  /// Number of nodes. node_index maps each node to a distinct value below
  /// it, so callers can keep per-node data in a dense array.
  std::size_t num_nodes() const {
    return next_node_.load(std::memory_order_relaxed);
  }
  std::size_t node_index(const node* nd) const {
    return static_cast<std::size_t>(nd - arena_.get());
  }

  /// Point stored at internal slot i (post-permutation).
  const point<D>& point_at(std::size_t i) const { return points_[i]; }
  /// Original (input-order) index of internal slot i.
  std::size_t id_of(std::size_t i) const { return ids_[i]; }

  /// Exact k nearest neighbors of `q` among the stored points, sorted by
  /// distance. Returns original input indices. If the query point itself
  /// is stored, it appears in the result (distance 0).
  std::vector<knn_buffer::entry> knn(const point<D>& q, std::size_t k) const {
    if (size() == 0 || k == 0) return {};
    knn_buffer buf(std::min(k, size()));
    knn_node(root_, q, buf);
    auto out = buf.finish();
    for (auto& e : out) e.id = ids_[e.id];
    return out;
  }

  /// Data-parallel batch k-NN: row i of the result is knn(queries[i], k).
  std::vector<std::vector<knn_buffer::entry>> knn_batch(
      const std::vector<point<D>>& queries, std::size_t k) const {
    std::vector<std::vector<knn_buffer::entry>> out(queries.size());
    par::parallel_for(
        0, queries.size(),
        [&](std::size_t i) { out[i] = knn(queries[i], k); }, 64);
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
  aabb<D> compute_box(std::size_t lo, std::size_t hi) const {
    // Blocked parallel reduction over the range.
    const std::size_t n = hi - lo;
    const std::size_t block = 8192;
    const std::size_t nb = (n + block - 1) / block;
    if (nb <= 1) {
      aabb<D> b;
      for (std::size_t i = lo; i < hi; ++i) b.extend(points_[i]);
      return b;
    }
    std::vector<aabb<D>> partial(nb);
    par::parallel_for(
        0, nb,
        [&](std::size_t bidx) {
          aabb<D> b;
          const std::size_t s = lo + bidx * block;
          const std::size_t e = std::min(hi, s + block);
          for (std::size_t i = s; i < e; ++i) b.extend(points_[i]);
          partial[bidx] = b;
        },
        1);
    aabb<D> b;
    for (const auto& pb : partial) b.extend(pb);
    return b;
  }

  node* alloc_node() {
    const std::size_t idx =
        next_node_.fetch_add(1, std::memory_order_relaxed);
    assert(idx < arena_cap_);
    return ::new (static_cast<void*>(arena_.get() + idx)) node();
  }

  // Partition [lo,hi) so points with coord < pivot come first (ids_ kept in
  // lock-step); returns the split index. In-place two-pointer partition
  // below a grain, two-pass parallel counting partition above it. The
  // choice depends on the range size alone, so the permutation, and with
  // it the tree, is the same at every worker count (object_median_split's
  // fallback cut depends on the order of the points).
  std::size_t split_range(std::size_t lo, std::size_t hi, int dim,
                          double pivot) {
    struct slot {
      point<D> p;
      std::size_t id;
    };
    const std::size_t n = hi - lo;
    if (n <= (std::size_t{1} << 14)) {
      std::size_t i = lo, j = hi;
      while (i < j) {
        while (i < j && points_[i][dim] < pivot) ++i;
        while (i < j && !(points_[j - 1][dim] < pivot)) --j;
        if (i < j) {
          std::swap(points_[i], points_[j - 1]);
          std::swap(ids_[i], ids_[j - 1]);
          ++i;
          --j;
        }
      }
      return i;
    }
    // Parallel out-of-place partition.
    std::vector<uint8_t> flags(n);
    par::parallel_for(0, n, [&](std::size_t i) {
      flags[i] = points_[lo + i][dim] < pivot ? 1 : 0;
    });
    std::vector<std::size_t> offLow(n), offHigh(n);
    par::parallel_for(0, n, [&](std::size_t i) {
      offLow[i] = flags[i];
      offHigh[i] = 1 - flags[i];
    });
    const std::size_t numLow = par::scan_exclusive(offLow);
    par::scan_exclusive(offHigh);
    std::vector<slot> tmp(n);
    par::parallel_for(0, n, [&](std::size_t i) {
      const std::size_t pos =
          flags[i] ? offLow[i] : numLow + offHigh[i];
      tmp[pos] = {points_[lo + i], ids_[lo + i]};
    });
    par::parallel_for(0, n, [&](std::size_t i) {
      points_[lo + i] = tmp[i].p;
      ids_[lo + i] = tmp[i].id;
    });
    return lo + numLow;
  }

  // Object-median split: nth_element on the widest dimension. Parallel
  // variant uses the median of the spatial distribution found by
  // partitioning around the exact median value obtained via nth_element
  // on a copy for large inputs (cheaper than a full parallel selection and
  // deterministic).
  std::size_t object_median_split(std::size_t lo, std::size_t hi, int dim,
                                  double* out_pivot) {
    const std::size_t n = hi - lo;
    std::vector<double> coords(n);
    par::parallel_for(0, n,
                      [&](std::size_t i) { coords[i] = points_[lo + i][dim]; });
    auto midIt = coords.begin() + n / 2;
    std::nth_element(coords.begin(), midIt, coords.end());
    const double pivot = *midIt;
    std::size_t split = split_range(lo, hi, dim, pivot);
    // All coordinates may equal the pivot (duplicates): fall back to an
    // arbitrary balanced cut to guarantee progress.
    if (split == lo || split == hi) split = lo + n / 2;
    *out_pivot = pivot;
    return split;
  }

  node* build(std::size_t lo, std::size_t hi, const aabb<D>& box) {
    node* nd = alloc_node();
    nd->box = box;
    nd->lo = lo;
    nd->hi = hi;
    const std::size_t n = hi - lo;
    if (n <= leaf_size_) return nd;

    const int dim = box.widest_dim();
    std::size_t split = 0;
    double pivot = 0;
    if (policy_ == split_policy::spatial_median) {
      pivot = 0.5 * (box.lo[dim] + box.hi[dim]);
      split = split_range(lo, hi, dim, pivot);
      if (split == lo || split == hi) {
        // Degenerate spatial cut (all points on one side): use the object
        // median instead so the tree height stays bounded.
        split = object_median_split(lo, hi, dim, &pivot);
      }
    } else {
      split = object_median_split(lo, hi, dim, &pivot);
    }
    nd->split_dim = dim;
    nd->split_val = pivot;
    const bool bigEnough = n > (std::size_t{1} << 12);
    aabb<D> lbox, rbox;
    auto buildL = [&] { nd->left = build(lo, split, lbox); };
    auto buildR = [&] { nd->right = build(split, hi, rbox); };
    lbox = compute_box(lo, split);
    rbox = compute_box(split, hi);
    if (bigEnough) {
      par::par_do(buildL, buildR);
    } else {
      buildL();
      buildR();
    }
    return nd;
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
  struct arena_free {
    void operator()(node* p) const { ::operator delete(p); }
  };

  std::vector<point<D>> points_;
  std::vector<std::size_t> ids_;
  split_policy policy_;
  std::size_t leaf_size_;
  std::unique_ptr<node, arena_free> arena_;
  std::size_t arena_cap_ = 0;
  std::atomic<std::size_t> next_node_{0};
  node* root_ = nullptr;
};

}  // namespace pargeo::kdtree
