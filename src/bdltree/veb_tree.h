// Static kd-tree in van Emde Boas (cache-oblivious) layout — the building
// block of the BDL-tree (paper §5, Appendix C.1, Algorithm 1).
//
// Nodes live in one contiguous array of 2^l - 1 entries ordered by the vEB
// recursion: the top half of the levels is laid out first, followed by the
// bottom subtrees left to right, recursively. Points are owned by the tree
// in a permuted buffer; every node references a contiguous range of it.
// Deletion tombstones points and maintains live counts so empty subtrees
// are skipped (the array analogue of Algorithm 2's NULL-collapse).
//
// *Construction.* The tree is built by kdtree/build.h, the builder the
// static kd-tree shares: a binary recursion that forks only while a range
// holds more than kdtree::kForkCutoff points. A node at depth d splits
// along dimension d mod D by the object median (cut at n/2) or the spatial
// median; a range above kdtree::kParallelSplitCutoff points is split by a
// parallel selection and a stable blocked partition, a smaller one in place
// by std::nth_element. The path depends on the range's size alone, so the
// point order and the node array are the same at every worker count. A
// node's array index follows from its depth and its position in its level
// (`veb_index`), and its box is the union of its children's, filled in as
// the recursion returns.
//
// *Child links.* Each node stores the array indices of its two children,
// written by the build, and every traversal follows them. Deriving a
// child's index from the layout instead replays the vEB recursion from the
// root at every node visit, which is not cheap next to the geometry: on
// one 1M-point uniform 2D tree, 250k queries with k = 8 on one thread took
// 1.0-1.3 s that way and 0.57-0.66 s over stored links (the pointer-based
// static kd-tree: 0.70-0.92 s; 4-vCPU shared VM, gcc 12 -O3). Ranges, live
// counts and links are 32-bit, so a node is 64 bytes at D = 2 and a tree
// holds at most 2^32 - 1 points.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/aabb.h"
#include "core/point.h"
#include "kdtree/build.h"
#include "kdtree/knn_buffer.h"
#include "parallel/parallel.h"

namespace pargeo::bdltree {

using split_policy = kdtree::split_policy;

template <int D>
class veb_tree {
 public:
  static constexpr std::size_t kLeafSize = 16;

  struct node {
    aabb<D> box;
    double split_val = 0;
    std::uint32_t lo = 0, hi = 0;       // point range
    std::uint32_t live = 0;             // non-tombstoned points below
    std::uint32_t left = 0, right = 0;  // child indices (internal nodes)
    std::int32_t split_dim = -1;        // -1 for leaves
  };

  veb_tree(std::vector<point<D>> pts, split_policy policy)
      : points_(std::move(pts)) {
    const std::size_t n = points_.size();
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("veb_tree: more than 2^32 - 1 points");
    }
    alive_.assign(n, 1);
    live_ = n;
    if (n == 0) return;
    const std::size_t nLeaves =
        std::max<std::size_t>(1, (n + kLeafSize - 1) / kLeafSize);
    levels_ = 1 + static_cast<int>(
                      std::ceil(std::log2(static_cast<double>(nLeaves))));
    nodes_.assign((std::size_t{1} << levels_) - 1, node{});
    kdtree::build(
        points_.data(), n, policy, place{0, 0, 0},
        [this](place at, std::size_t lo, std::size_t hi) {
          node& nd = nodes_[at.idx];
          nd.lo = static_cast<std::uint32_t>(lo);
          nd.hi = static_cast<std::uint32_t>(hi);
          nd.live = nd.hi - nd.lo;
          if (at.depth + 1 < levels_) return at.depth % D;
          for (std::size_t i = lo; i < hi; ++i) nd.box.extend(points_[i]);
          return -1;  // a leaf holds its whole range
        },
        [this](place at, int dim, double value) {
          node& nd = nodes_[at.idx];
          nd.split_dim = dim;
          nd.split_val = value;
          const place l = child(at, 0), r = child(at, 1);
          nd.left = l.idx;
          nd.right = r.idx;
          return std::pair{l, r};
        },
        [this](place at) {
          node& nd = nodes_[at.idx];
          nd.box = nodes_[nd.left].box;
          nd.box.extend(nodes_[nd.right].box);
        });
  }

  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  const node& node_at(std::size_t i) const { return nodes_[i]; }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// All live points, in storage order.
  std::vector<point<D>> gather() const {
    std::vector<point<D>> out;
    out.reserve(live_);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (alive_[i]) out.push_back(points_[i]);
    }
    return out;
  }

  /// Tombstones every stored point equal to a member of `batch` (each
  /// batch entry deletes at most one copy). Returns #deleted.
  std::size_t erase(const std::vector<point<D>>& batch) {
    if (points_.empty() || batch.empty()) return 0;
    std::vector<point<D>> q(batch);
    const std::size_t removed = erase_rec(0, q.data(), q.size());
    live_ -= removed;
    return removed;
  }

  /// Accumulates the k nearest live points to `q` into `buf`. Entry ids
  /// are the point addresses reinterpreted as size_t (stable for the
  /// tree's lifetime), so one buffer can be shared across trees and
  /// decoded with decode_id.
  void knn(const point<D>& q, kdtree::knn_buffer& buf) const {
    if (live_ == 0) return;
    knn_rec(0, q, buf);
  }

  static const point<D>& decode_id(std::size_t id) {
    return *reinterpret_cast<const point<D>*>(id);
  }

  /// Appends all live points within `radius` of `center` to `out`.
  void range_ball(const point<D>& center, double radius,
                  std::vector<point<D>>& out) const {
    if (live_ == 0) return;
    range_rec(0, center, radius * radius, out);
  }

  /// Appends all live points inside `query_box` to `out`.
  void range_box(const aabb<D>& query_box, std::vector<point<D>>& out) const {
    if (live_ == 0) return;
    range_box_rec(0, query_box, out);
  }

 private:
  // --- construction (paper Algorithm 1) --------------------------------

  // A node's place: its depth, its position in its level (0 = leftmost)
  // and its array index.
  struct place {
    int depth;
    std::size_t pos;
    std::uint32_t idx;
  };

  static int hyperceil(int x) {
    int p = 1;
    while (p < x) p <<= 1;
    return p;
  }

  place child(place at, std::size_t side) const {
    const std::size_t pos = 2 * at.pos + side;
    return {at.depth + 1, pos, veb_index(at.depth + 1, pos)};
  }

  // Array index of the node at (depth, pos): the vEB recursion replayed
  // for one node. A subtree of l levels at `base` lays out its top
  // lt = l - lb levels first, then its 2^lt bottom subtrees of lb levels,
  // lb = hyperceil((l + 1) / 2), left to right.
  std::uint32_t veb_index(int depth, std::size_t pos) const {
    std::size_t base = 0;
    int l = levels_;
    while (l > 1) {
      const int lb = hyperceil((l + 1) / 2);
      const int lt = l - lb;
      if (depth < lt) {
        l = lt;
        continue;
      }
      depth -= lt;
      base += ((std::size_t{1} << lt) - 1) +
              (pos >> depth) * ((std::size_t{1} << lb) - 1);
      pos &= (std::size_t{1} << depth) - 1;
      l = lb;
    }
    return static_cast<std::uint32_t>(base);
  }

  // --- queries ----------------------------------------------------------

  void knn_rec(std::uint32_t idx, const point<D>& q,
               kdtree::knn_buffer& buf) const {
    const node& nd = nodes_[idx];
    if (nd.live == 0) return;
    if (nd.split_dim < 0) {
      for (std::uint32_t i = nd.lo; i < nd.hi; ++i) {
        if (!alive_[i]) continue;
        const double d = points_[i].dist_sq(q);
        if (d < buf.bound()) {
          buf.insert(d, reinterpret_cast<std::size_t>(&points_[i]));
        }
      }
      return;
    }
    std::uint32_t nearIdx = nd.left, farIdx = nd.right;
    if (q[nd.split_dim] >= nd.split_val) std::swap(nearIdx, farIdx);
    if (nodes_[nearIdx].box.dist_sq(q) < buf.bound()) {
      knn_rec(nearIdx, q, buf);
    }
    if (nodes_[farIdx].box.dist_sq(q) < buf.bound()) {
      knn_rec(farIdx, q, buf);
    }
  }

  void range_rec(std::uint32_t idx, const point<D>& c, double r_sq,
                 std::vector<point<D>>& out) const {
    const node& nd = nodes_[idx];
    if (nd.live == 0 || nd.box.dist_sq(c) > r_sq) return;
    if (nd.split_dim < 0) {
      for (std::uint32_t i = nd.lo; i < nd.hi; ++i) {
        if (alive_[i] && points_[i].dist_sq(c) <= r_sq) {
          out.push_back(points_[i]);
        }
      }
      return;
    }
    range_rec(nd.left, c, r_sq, out);
    range_rec(nd.right, c, r_sq, out);
  }

  void range_box_rec(std::uint32_t idx, const aabb<D>& qb,
                     std::vector<point<D>>& out) const {
    const node& nd = nodes_[idx];
    if (nd.live == 0 || !nd.box.intersects(qb)) return;
    if (nd.split_dim < 0) {
      for (std::uint32_t i = nd.lo; i < nd.hi; ++i) {
        if (alive_[i] && qb.contains(points_[i])) out.push_back(points_[i]);
      }
      return;
    }
    range_box_rec(nd.left, qb, out);
    range_box_rec(nd.right, qb, out);
  }

  // Batch erase per paper Algorithm 2: partition the queries q[0, nq)
  // around the split in place and recurse; leaves do linear matching.
  // Returns #deleted.
  std::size_t erase_rec(std::uint32_t idx, point<D>* q, std::size_t nq) {
    if (nq == 0) return 0;
    node& nd = nodes_[idx];
    if (nd.live == 0) return 0;
    if (nd.split_dim < 0) {
      std::uint32_t removed = 0;
      for (std::size_t t = 0; t < nq; ++t) {
        for (std::uint32_t i = nd.lo; i < nd.hi; ++i) {
          if (alive_[i] && points_[i] == q[t]) {
            alive_[i] = 0;
            ++removed;
            break;
          }
        }
      }
      nd.live -= removed;
      return removed;
    }
    const int dim = nd.split_dim;
    const double sv = nd.split_val;
    // Order the queries [less | equal | greater] than the split. Median
    // partitions may place split-value duplicates on either side, so
    // queries equal to the split descend both ways: the left side takes
    // them in place, the right side a copy. (With duplicate stored points
    // this can remove more than one copy per query.)
    point<D>* const end = q + nq;
    point<D>* const eqBegin = std::partition(
        q, end, [&](const point<D>& p) { return p[dim] < sv; });
    point<D>* const eqEnd = std::partition(
        eqBegin, end, [&](const point<D>& p) { return p[dim] == sv; });
    std::vector<point<D>> eq(eqBegin, eqEnd);
    std::size_t remL = 0, remR = 0;
    auto doL = [&] { remL = erase_rec(nd.left, q, eqEnd - q); };
    auto doR = [&] {
      remR = erase_rec(nd.right, eqEnd, end - eqEnd) +
             erase_rec(nd.right, eq.data(), eq.size());
    };
    if (nq > 4096) {
      par::par_do(doL, doR);
    } else {
      doL();
      doR();
    }
    const std::size_t removed = remL + remR;
    nd.live -= static_cast<std::uint32_t>(removed);
    return removed;
  }

  std::vector<point<D>> points_;
  std::vector<uint8_t> alive_;
  std::vector<node> nodes_;
  int levels_ = 0;
  std::size_t live_ = 0;
};

static_assert(sizeof(veb_tree<2>::node) <= 64,
              "a D = 2 vEB node must fit one 64-byte cache line");

}  // namespace pargeo::bdltree
