// Zd-tree stand-in for the paper's §6.3 comparison: a reimplementation of
// Blelloch & Dobson's Morton-order batch-dynamic tree, not their code.
//
// Points are kept Morton-sorted in one flat array; updates are sorted
// merges / filters (O(n + B) with tiny constants — the property that makes
// the real Zd-tree's updates much faster than the BDL-tree's rebuild
// cascades); k-NN runs over an implicit midpoint-split hierarchy with
// precomputed per-segment bounding boxes. A batch k-NN runs its queries in
// Morton order, as the original processes its work, and keeps its rows in
// input order. Supports 2D and 3D like the original.
#pragma once

#include <cstdint>
#include <vector>

#include "core/aabb.h"
#include "core/point.h"
#include "kdtree/knn_buffer.h"

namespace pargeo::zdtree {

template <int D>
class zd_tree {
 public:
  explicit zd_tree(const std::vector<point<D>>& pts = {});

  std::size_t size() const { return items_.size(); }

  void insert(const std::vector<point<D>>& batch);
  void erase(const std::vector<point<D>>& batch);

  /// Row i: the k nearest stored points to queries[i], sorted by distance.
  std::vector<std::vector<point<D>>> knn(const std::vector<point<D>>& queries,
                                         std::size_t k) const;

  /// Appends all stored points inside `box` to `out` (unordered).
  void range_box(const aabb<D>& box, std::vector<point<D>>& out) const;

  /// Appends all stored points within `radius` of `center` to `out`.
  void range_ball(const point<D>& center, double radius,
                  std::vector<point<D>>& out) const;

  std::vector<point<D>> gather() const;

 private:
  struct item {
    uint64_t code;
    point<D> p;
    bool operator<(const item& o) const {
      return code < o.code || (code == o.code && p < o.p);
    }
    bool operator==(const item& o) const {
      return code == o.code && p == o.p;
    }
  };

  void rebuild_boxes();
  void knn_rec(std::size_t node, std::size_t lo, std::size_t hi,
               const point<D>& q, kdtree::knn_buffer& buf) const;
  template <class Keep>
  void range_rec(std::size_t node, std::size_t lo, std::size_t hi,
                 const aabb<D>& query_box, const Keep& keep,
                 std::vector<point<D>>& out) const;
  item make_item(const point<D>& p) const;

  static constexpr std::size_t kLeaf = 16;
  std::vector<item> items_;     // Morton-sorted
  std::vector<aabb<D>> boxes_;  // heap-ordered segment boxes
  std::size_t num_leaf_segments_ = 0;
};

}  // namespace pargeo::zdtree
