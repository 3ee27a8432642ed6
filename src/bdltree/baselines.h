// The two baseline dynamic trees of the paper's §6.3 BDL evaluation.
//
//   B1 — rebuild-on-update: one perfectly balanced vEB kd-tree, fully
//        rebuilt on every batch insertion or deletion. Best queries,
//        worst updates. Its points are kept in lexicographic order, like
//        the BDL-tree's staging buffer, so an update costs the rebuild
//        and not a scan of every stored point per batch entry.
//   B2 — in-place updates: a pointer-based kd-tree whose leaves carry
//        growable buffers. Inserts descend the existing splits and append
//        (splitting only overfull leaves locally, never recalculating
//        upper splits); deletes tombstone. Fastest updates, but the tree
//        skews when built incrementally, degrading k-NN (paper Fig. 14).
#pragma once

#include <memory>
#include <vector>

#include "bdltree/bdl_tree.h"
#include "bdltree/veb_tree.h"
#include "mortonsort/mortonsort.h"

namespace pargeo::bdltree {

template <int D>
class b1_tree {
 public:
  explicit b1_tree(split_policy policy = split_policy::object_median)
      : policy_(policy) {}

  std::size_t size() const { return points_.size(); }

  void insert(const std::vector<point<D>>& batch) {
    detail::insert_sorted<D>(points_, batch);
    rebuild();
  }

  /// Removes one stored copy per batch entry; absent points are ignored.
  void erase(const std::vector<point<D>>& batch) {
    detail::erase_sorted<D>(points_, batch);
    rebuild();
  }

  std::vector<std::vector<point<D>>> knn(
      const std::vector<point<D>>& queries, std::size_t k) const {
    std::vector<std::vector<point<D>>> out(queries.size());
    if (!tree_) return out;
    const std::size_t kk = std::min(k, size());
    mortonsort::parallel_for_each(
        queries,
        [&](std::size_t qi) {
          kdtree::knn_buffer buf(kk);
          tree_->knn(queries[qi], /*slot=*/0, buf);
          auto entries = buf.finish();
          out[qi].reserve(entries.size());
          for (const auto& e : entries) {
            out[qi].push_back(tree_->point_at(e.id));
          }
        },
        16);
    return out;
  }

  std::vector<point<D>> gather() const { return points_; }

 private:
  void rebuild() {
    tree_ = points_.empty()
                ? nullptr
                : std::make_unique<veb_tree<D>>(points_, policy_);
  }

  split_policy policy_;
  std::vector<point<D>> points_;
  std::unique_ptr<veb_tree<D>> tree_;
};

template <int D>
class b2_tree {
 public:
  static constexpr std::size_t kLeafCapacity = 32;

  explicit b2_tree(split_policy policy = split_policy::object_median)
      : policy_(policy) {}

  std::size_t size() const { return size_; }

  void insert(const std::vector<point<D>>& batch) {
    if (batch.empty()) return;
    size_ += batch.size();
    if (!root_) {
      root_ = build(batch, 0);
      return;
    }
    insert_rec(root_.get(), batch);
  }

  void erase(const std::vector<point<D>>& batch) {
    for (const auto& q : batch) {
      if (erase_one(root_.get(), q)) --size_;
    }
  }

  std::vector<std::vector<point<D>>> knn(
      const std::vector<point<D>>& queries, std::size_t k) const {
    std::vector<std::vector<point<D>>> out(queries.size());
    if (!root_) return out;
    const std::size_t kk = std::min(k, size_);
    mortonsort::parallel_for_each(
        queries,
        [&](std::size_t qi) {
          kdtree::knn_buffer buf(kk);
          knn_rec(root_.get(), queries[qi], buf);
          auto entries = buf.finish();
          out[qi].reserve(entries.size());
          for (const auto& e : entries) {
            out[qi].push_back(
                *reinterpret_cast<const point<D>*>(e.id));
          }
        },
        16);
    return out;
  }

  std::vector<point<D>> gather() const {
    std::vector<point<D>> out;
    gather_rec(root_.get(), out);
    return out;
  }

 private:
  struct node {
    aabb<D> box;
    int split_dim = -1;
    double split_val = 0;
    std::unique_ptr<node> left, right;
    // Leaf storage: a growable buffer (the paper's per-leaf memory
    // buffer); `alive` flags implement tombstoning.
    std::vector<point<D>> pts;
    std::vector<uint8_t> alive;
    std::size_t live = 0;
  };

  std::unique_ptr<node> build(const std::vector<point<D>>& pts, int dim) {
    auto nd = std::make_unique<node>();
    for (const auto& p : pts) nd->box.extend(p);
    if (pts.size() <= kLeafCapacity) {
      nd->pts = pts;
      nd->alive.assign(pts.size(), 1);
      nd->live = pts.size();
      return nd;
    }
    std::vector<point<D>> sorted(pts);
    auto midIt = sorted.begin() + sorted.size() / 2;
    std::nth_element(sorted.begin(), midIt, sorted.end(),
                     [dim](const point<D>& a, const point<D>& b) {
                       return a[dim] < b[dim];
                     });
    nd->split_dim = dim;
    nd->split_val = (*midIt)[dim];
    std::vector<point<D>> l(sorted.begin(), midIt);
    std::vector<point<D>> r(midIt, sorted.end());
    nd->split_dim = dim;
    nd->left = build(l, (dim + 1) % D);
    nd->right = build(r, (dim + 1) % D);
    nd->live = nd->left->live + nd->right->live;
    return nd;
  }

  void insert_rec(node* nd, const std::vector<point<D>>& batch) {
    for (const auto& p : batch) nd->box.extend(p);
    nd->live += batch.size();
    if (nd->split_dim < 0) {
      for (const auto& p : batch) {
        nd->pts.push_back(p);
        nd->alive.push_back(1);
      }
      // Local split when the leaf buffer overflows; upper splits are never
      // recalculated, so the tree may skew.
      if (nd->pts.size() > 4 * kLeafCapacity) split_leaf(nd);
      return;
    }
    std::vector<point<D>> l, r;
    for (const auto& p : batch) {
      (p[nd->split_dim] < nd->split_val ? l : r).push_back(p);
    }
    if (!l.empty()) insert_rec(nd->left.get(), l);
    if (!r.empty()) insert_rec(nd->right.get(), r);
  }

  void split_leaf(node* nd) {
    std::vector<point<D>> livePts;
    livePts.reserve(nd->pts.size());
    for (std::size_t i = 0; i < nd->pts.size(); ++i) {
      if (nd->alive[i]) livePts.push_back(nd->pts[i]);
    }
    const int dim = nd->box.widest_dim();
    auto midIt = livePts.begin() + livePts.size() / 2;
    std::nth_element(livePts.begin(), midIt, livePts.end(),
                     [dim](const point<D>& a, const point<D>& b) {
                       return a[dim] < b[dim];
                     });
    const double sv = (*midIt)[dim];
    std::vector<point<D>> l(livePts.begin(), midIt);
    std::vector<point<D>> r(midIt, livePts.end());
    // Degenerate split (e.g. all points identical): keep an oversized leaf.
    if (l.empty() || r.empty()) return;
    nd->split_dim = dim;
    nd->split_val = sv;
    nd->left = build(l, (dim + 1) % D);
    nd->right = build(r, (dim + 1) % D);
    nd->pts.clear();
    nd->alive.clear();
    nd->live = nd->left->live + nd->right->live;
  }

  bool erase_one(node* nd, const point<D>& q) {
    if (nd == nullptr || nd->live == 0 || !nd->box.contains(q)) {
      return false;
    }
    if (nd->split_dim < 0) {
      for (std::size_t i = 0; i < nd->pts.size(); ++i) {
        if (nd->alive[i] && nd->pts[i] == q) {
          nd->alive[i] = 0;
          --nd->live;
          return true;
        }
      }
      return false;
    }
    // Split-value duplicates may sit on either side: try both.
    node* first = q[nd->split_dim] < nd->split_val ? nd->left.get()
                                                   : nd->right.get();
    node* second = first == nd->left.get() ? nd->right.get()
                                           : nd->left.get();
    if (erase_one(first, q) || erase_one(second, q)) {
      --nd->live;
      return true;
    }
    return false;
  }

  void knn_rec(const node* nd, const point<D>& q,
               kdtree::knn_buffer& buf) const {
    if (nd == nullptr || nd->live == 0) return;
    if (nd->split_dim < 0) {
      for (std::size_t i = 0; i < nd->pts.size(); ++i) {
        if (!nd->alive[i]) continue;
        const double d = nd->pts[i].dist_sq(q);
        if (d < buf.bound()) {
          buf.insert(d, reinterpret_cast<std::size_t>(&nd->pts[i]));
        }
      }
      return;
    }
    const node* near = nd->left.get();
    const node* far = nd->right.get();
    if (q[nd->split_dim] >= nd->split_val) std::swap(near, far);
    if (near->box.dist_sq(q) < buf.bound()) knn_rec(near, q, buf);
    if (far->box.dist_sq(q) < buf.bound()) knn_rec(far, q, buf);
  }

  void gather_rec(const node* nd, std::vector<point<D>>& out) const {
    if (nd == nullptr) return;
    if (nd->split_dim < 0) {
      for (std::size_t i = 0; i < nd->pts.size(); ++i) {
        if (nd->alive[i]) out.push_back(nd->pts[i]);
      }
      return;
    }
    gather_rec(nd->left.get(), out);
    gather_rec(nd->right.get(), out);
  }

  split_policy policy_;
  std::unique_ptr<node> root_;
  std::size_t size_ = 0;
};

}  // namespace pargeo::bdltree
