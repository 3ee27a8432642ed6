// Static kd-tree in van Emde Boas (cache-oblivious) layout — the building
// block of the BDL-tree (paper §5, Appendix C.1, Algorithm 1).
//
// Nodes live in one contiguous array of 2^l - 1 entries ordered by the vEB
// recursion: the top half of the levels is laid out first, followed by the
// bottom subtrees left to right, recursively. Points are owned by the tree
// in a permuted buffer; every node references a contiguous range of it.
// Deletion tombstones one live copy per batch entry and maintains live
// counts so empty subtrees are skipped (the array analogue of Algorithm 2's
// NULL-collapse). A node splits the entries it receives around its split
// value, above the builder's fork cutoff with the builder's stable parallel
// partition, and forks its two sides above 4,096 entries.
//
// *Construction.* kdtree/build.h builds the tree, as it does the static
// kd-tree: a node at depth d splits along dimension d mod D by the object
// or the spatial median, and the point order and the node array are the
// same at every worker count. A node's array index follows from its depth
// and its position in its level (`veb_index`), and its box is the union of
// its children's, filled in as the recursion returns. The build writes
// each node once, into uninitialised storage.
//
// *Nodes and queries.* The nodes and the walks are kdtree/node.h's, shared
// with the static kd-tree; the walks skip tombstones. Each node stores its
// children's indices: deriving them from the layout replays the vEB
// recursion at every visit (250k k = 8 queries on a 1M-point uniform 2D
// tree, one thread: 1.0-1.3 s against 0.57-0.66 s over stored links; 4-vCPU
// shared VM, gcc 12 -O3). A tree holds at most 2^32 - 1 points.
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
#include "kdtree/node.h"
#include "parallel/parallel.h"

namespace pargeo::bdltree {

using split_policy = kdtree::split_policy;

template <int D>
class veb_tree {
 public:
  static constexpr std::size_t kLeafSize = 16;

  using node = kdtree::node<D>;

  veb_tree(const std::vector<point<D>>& pts, split_policy policy)
      : veb_tree(pts.data(), pts.size(), policy) {}

  /// Builds over a copy of pts[0, n), made on the workers above the
  /// builder's fork cutoff (so a forest hands each new tree its slice of a
  /// rebuild pool without a serial copy).
  veb_tree(const point<D>* pts, std::size_t n, split_policy policy)
      : points_(checked_size(n)) {
    par::pack_into(
        n, [](std::size_t) { return true; },
        [pts](std::size_t i) { return pts[i]; }, points_.data(),
        kdtree::kForkCutoff);
    alive_.assign(n, 1);
    live_ = n;
    // n = 0 still gets one (empty leaf) root, so queries need no checks.
    const std::size_t nLeaves =
        std::max<std::size_t>(1, (n + kLeafSize - 1) / kLeafSize);
    levels_ = 1 + static_cast<int>(
                      std::ceil(std::log2(static_cast<double>(nLeaves))));
    nodes_ = kdtree::raw_buffer<node>((std::size_t{1} << levels_) - 1);
    kdtree::build(
        points_.data(), n, policy, place{0, 0, 0},
        [this](place at, std::size_t, std::size_t lo, std::size_t hi) {
          const bool leaf = at.depth + 1 == levels_;
          aabb<D> box;
          if (leaf) {
            for (std::size_t i = lo; i < hi; ++i) box.extend(points_[i]);
          }
          const auto l = static_cast<std::uint32_t>(lo);
          const auto h = static_cast<std::uint32_t>(hi);
          nodes_[at.idx] = node{box, 0, l, h, h - l, 0, 0, -1};
          return leaf ? -1 : at.depth % D;
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
    std::vector<point<D>> out(live_);
    gather_into(out.data());
    return out;
  }

  /// Writes the live points, in storage order, to the caller's slice
  /// out[0, size()), which may be uninitialised: one blocked pack
  /// (par::pack_into), on the workers above the builder's fork cutoff.
  void gather_into(point<D>* out) const {
    par::pack_into(
        points_.size(), [this](std::size_t i) { return alive_[i] != 0; },
        [this](std::size_t i) { return points_[i]; }, out,
        kdtree::kForkCutoff);
  }

  /// Tombstones one live copy per entry of `batch`; an entry with no live
  /// copy left is ignored. Returns #deleted.
  std::size_t erase(const std::vector<point<D>>& batch) {
    std::vector<point<D>> rest(batch);
    return erase_matched(rest);
  }

  /// As erase, but leaves in `batch` the entries that found no live copy,
  /// so a caller can hand them on to another tree. Their order is
  /// unspecified (it is the same at every worker count); which copies are
  /// tombstoned does not depend on the order of the batch.
  std::size_t erase_matched(std::vector<point<D>>& batch) {
    if (live_ == 0 || batch.empty()) return 0;
    std::size_t rest;
    if (batch.size() > kdtree::kForkCutoff) {
      kdtree::raw_buffer<point<D>> scratch(batch.size());
      rest = erase_rec(0, batch.data(), batch.size(), scratch.data());
    } else {
      rest = erase_rec(0, batch.data(), batch.size(), nullptr);
    }
    const std::size_t removed = batch.size() - rest;
    batch.resize(rest);
    live_ -= removed;
    return removed;
  }

  /// True if some entry of `batch` has a live copy here. Read-only, so a
  /// caller can test a tree it shares before copying it.
  bool contains_any(const std::vector<point<D>>& batch) const {
    for (const auto& q : batch) {
      if (contains(0, q)) return true;
    }
    return false;
  }

  /// Accumulates the k nearest live points to `q` into `buf`. The point
  /// at storage index i enters as id (slot << 32) | i, so one buffer can
  /// be shared across the trees of a forest, each under its own slot, and
  /// a caller decodes an id with point_at(id & 0xffffffff) on the tree of
  /// slot id >> 32. Ids, and so the points kept on distance ties, follow
  /// the forest's structure and not where its trees were allocated.
  void knn(const point<D>& q, std::size_t slot, kdtree::knn_buffer& buf) const {
    const std::size_t base = slot << 32;
    walk().knn(kdtree::kRoot, q, [base](std::uint32_t i) { return base | i; },
               buf);
  }

  /// The point at storage index i (see knn).
  const point<D>& point_at(std::size_t i) const { return points_[i]; }

  /// Appends all live points within `radius` of `center` to `out`.
  void range_ball(const point<D>& center, double radius,
                  std::vector<point<D>>& out) const {
    walk().ball(kdtree::kRoot, center, radius * radius,
                [&](std::uint32_t i) { out.push_back(points_[i]); });
  }

  /// Appends all live points inside `query_box` to `out`.
  void range_box(const aabb<D>& query_box, std::vector<point<D>>& out) const {
    walk().box(kdtree::kRoot, query_box,
               [&](std::uint32_t i) { out.push_back(points_[i]); });
  }

 private:
  // --- construction (paper Algorithm 1) --------------------------------

  static std::size_t checked_size(std::size_t n) {
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("veb_tree: more than 2^32 - 1 points");
    }
    return n;
  }

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

  auto walk() const {
    const std::uint8_t* a = alive_.data();
    return kdtree::walker(nodes_.data(), points_.data(),
                          [a](std::uint32_t i) { return a[i] != 0; });
  }

  bool contains(std::uint32_t idx, const point<D>& q) const {
    const node& nd = nodes_[idx];
    if (nd.live == 0 || !nd.box.contains(q)) return false;
    if (nd.split_dim < 0) {
      for (std::uint32_t i = nd.lo; i < nd.hi; ++i) {
        if (alive_[i] && points_[i] == q) return true;
      }
      return false;
    }
    const double c = q[nd.split_dim];
    if (c < nd.split_val) return contains(nd.left, q);
    if (c > nd.split_val) return contains(nd.right, q);
    return contains(nd.left, q) || contains(nd.right, q);
  }

  // Batch erase per paper Algorithm 2: partition the entries q[0, nq)
  // around the split and recurse; leaves match linearly. Each entry
  // tombstones at most one live copy. Returns how many entries found none,
  // and leaves those at the front of q. scratch[0, nq): room for the
  // partition above the builder's fork cutoff (null if the batch is not
  // above it).
  std::size_t erase_rec(std::uint32_t idx, point<D>* q, std::size_t nq,
                        point<D>* scratch) {
    if (nq == 0) return 0;
    node& nd = nodes_[idx];
    if (nd.live == 0) return nq;
    if (nd.split_dim < 0) {
      std::size_t rest = 0;
      for (std::size_t t = 0; t < nq; ++t) {
        bool hit = false;
        for (std::uint32_t i = nd.lo; i < nd.hi && !hit; ++i) {
          if (alive_[i] && points_[i] == q[t]) {
            alive_[i] = 0;
            hit = true;
          }
        }
        if (!hit) q[rest++] = q[t];
      }
      nd.live -= static_cast<std::uint32_t>(nq - rest);
      return rest;
    }
    const int dim = nd.split_dim;
    const double sv = nd.split_val;
    auto below = [&](const point<D>& p) { return p[dim] < sv; };
    // Order the entries [less | equal | greater] than the split: in place
    // up to the builder's fork cutoff, by its stable parallel partition
    // above. Median partitions may place split-value duplicates on either
    // side, so an equal entry tries the left side first and goes right only
    // if it is still unmatched there.
    point<D>* const end = q + nq;
    point<D>* gt;
    if (nq > kdtree::kForkCutoff) {
      gt = q + kdtree::detail::partition3(q, nq, dim, sv, scratch).second;
    } else {
      gt = std::partition(std::partition(q, end, below), end,
                          [&](const point<D>& p) { return p[dim] == sv; });
    }
    std::size_t restL = 0, restR = 0;
    auto doL = [&] { restL = erase_rec(nd.left, q, gt - q, scratch); };
    auto doR = [&] {
      restR = erase_rec(nd.right, gt, end - gt,
                        scratch == nullptr ? nullptr : scratch + (gt - q));
    };
    if (nq > 4096) {
      par::par_do(doL, doR);
    } else {
      doL();
      doR();
    }
    // Of the left side's leftovers, the less-than entries are final and
    // the equal ones retry on the right; then the right side's leftovers
    // move down behind them.
    point<D>* const retry = std::partition(q, q + restL, below);
    std::size_t rest = static_cast<std::size_t>(retry - q);
    rest += erase_rec(nd.right, retry, q + restL - retry, scratch);
    std::move(gt, gt + restR, q + rest);
    rest += restR;
    nd.live -= static_cast<std::uint32_t>(nq - rest);
    return rest;
  }

  kdtree::raw_buffer<point<D>> points_;
  std::vector<uint8_t> alive_;
  kdtree::raw_buffer<node> nodes_;
  int levels_ = 0;
  std::size_t live_ = 0;
};

}  // namespace pargeo::bdltree
