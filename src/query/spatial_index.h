// The query service's shard index: the BDL-tree (paper §5) behind the
// batched calls the service makes (query subsystem; query_engine.h holds
// the request types and the phase cut, workload.h the stream generator).
//
// `spatial_index<D>` wraps one `bdltree::bdl_tree<D>` with `build`,
// `batch_insert`, `batch_erase`, `batch_knn`, `batch_range` and
// `batch_ball`. The paper's static kd-tree (src/kdtree/) and Zd-tree
// (src/zdtree/) stay as kernels and comparison structures; the service
// does not serve from them.
//
// Semantics: points form a multiset (duplicates allowed). Each erase entry
// removes exactly one stored copy, if one is left, wherever the copies sit
// (staging buffer or any tree) and however many entries of the same batch
// repeat the point; an entry with no copy left is ignored. k-NN rows are
// sorted by distance and have min(k, size()) entries; range rows are
// unordered.
//
// *Epochs and snapshots.* The index carries a monotonically increasing
// write epoch (bumped by build and by each content-changing write batch)
// and publishes an `index_snapshot<D>` — a read-only view of the contents
// as of the snapshot's epoch. A snapshot is *isolated*: it copies the
// bounded staging buffer and shares the static vEB trees; inserts replace
// whole trees and erases copy any shared tree before mutating it (see
// bdl_tree.h), so queries against the snapshot stay exact while the live
// index absorbs further writes, and writers never wait on readers. A
// superseded tree dies with its last owner: at the swap site when no
// snapshot shares it, else when the last snapshot holding it is dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bdltree/bdl_tree.h"
#include "core/aabb.h"
#include "core/point.h"

namespace pargeo::query {

/// The shard backend tag. The BDL-tree is the only backend; the enum,
/// `service_config::backend` and `make_index`'s parameter remain because
/// the repository benchmark (perfbench/) spells them.
enum class backend { bdltree };

/// Read-only, epoch-stamped view of an index's contents: an owned copy of
/// the (bounded) staging buffer plus shared references to the forest's
/// static vEB trees. Answers exactly as the owning index did at `epoch()`,
/// and may outlive it.
template <int D>
class index_snapshot {
 public:
  index_snapshot(bdltree::bdl_forest_view<D> view, std::uint64_t epoch)
      : view_(std::move(view)), epoch_(epoch), size_(view_.size()) {}

  /// The owning index's write epoch when this snapshot was taken.
  std::uint64_t epoch() const { return epoch_; }
  std::size_t size() const { return size_; }

  std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const {
    return view_.knn(queries, k);
  }
  std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const {
    return view_.range_box(boxes);
  }
  std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const {
    return view_.range_ball(centers, radii);
  }

 private:
  bdltree::bdl_forest_view<D> view_;
  std::uint64_t epoch_;
  std::size_t size_;
};

/// Batched spatial index over one BDL-tree. Every batch entry point is
/// internally data-parallel; callers hand over whole batches and get
/// per-query rows back in input order.
template <int D>
class spatial_index {
 public:
  explicit spatial_index(
      bdltree::split_policy policy = bdltree::split_policy::object_median,
      std::size_t buffer_size = bdltree::bdl_tree<D>::kDefaultBufferSize)
      : policy_(policy), buffer_size_(buffer_size), tree_(policy, buffer_size) {}

  std::size_t size() const { return tree_.size(); }

  /// Monotonic write-epoch counter: bumped by build() and by every
  /// content-changing batch_insert/batch_erase. Safe to read concurrently
  /// with writes (it is an atomic counter, not a structure guard).
  ///
  /// The epoch doubles as a content-version token: within one epoch the
  /// stored multiset — and therefore every query answer — is fixed. The
  /// query_service stamps snapshot reads with it and counts a read as
  /// lagged when the live epoch has moved past its snapshot's. An erase
  /// batch that matched nothing leaves the epoch alone.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Publishes a read snapshot of the current contents at the current
  /// epoch: O(staging buffer + live trees).
  std::shared_ptr<const index_snapshot<D>> snapshot() const {
    return std::make_shared<index_snapshot<D>>(tree_.view(), epoch());
  }

  /// Replaces the stored set with `pts`.
  void build(const std::vector<point<D>>& pts) {
    tree_ = bdltree::bdl_tree<D>(policy_, buffer_size_);
    tree_.insert(pts);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  void batch_insert(const std::vector<point<D>>& pts) {
    if (pts.empty()) return;
    tree_.insert(pts);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  void batch_erase(const std::vector<point<D>>& pts) {
    if (pts.empty()) return;
    const std::size_t before = tree_.size();
    tree_.erase(pts);
    // Contents unchanged (nothing matched) -> epoch unchanged, even if the
    // forest restructured internally.
    if (tree_.size() == before) return;
    epoch_.fetch_add(1, std::memory_order_release);
  }

  /// Row i: the min(k, size()) nearest stored points to queries[i], sorted
  /// by distance (query point included at distance 0 if stored).
  std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const {
    return tree_.knn(queries, k);
  }

  /// Row i: all stored points inside boxes[i] (unordered).
  std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const {
    return tree_.range_box(boxes);
  }

  /// Row i: all stored points within radii[i] of centers[i] (unordered).
  std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const {
    return tree_.range_ball(centers, radii);
  }

  /// All stored points (unordered; duplicates preserved).
  std::vector<point<D>> gather() const { return tree_.gather(); }

 private:
  bdltree::split_policy policy_;
  std::size_t buffer_size_;
  bdltree::bdl_tree<D> tree_;
  std::atomic<std::uint64_t> epoch_{0};
};

// The common dimensions are instantiated once in query.cpp.
extern template class spatial_index<2>;
extern template class spatial_index<3>;

/// A heap-allocated index, as perfbench creates its replay index.
template <int D>
std::unique_ptr<spatial_index<D>> make_index(backend) {
  return std::make_unique<spatial_index<D>>();
}

}  // namespace pargeo::query
