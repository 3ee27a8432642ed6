// Uniform adapter layer over the library's spatial trees (query subsystem,
// layer 1 of 3 — see query_engine.h and workload.h).
//
// The paper's structures expose three unrelated APIs: the static kd-tree
// (Module 1) has no updates, the Zd-tree stand-in has batch updates but no
// ids, and the BDL-tree has batch updates plus multi-tree k-NN. This header
// wraps all three behind one `spatial_index<D>` interface — `build`,
// `batch_insert`, `batch_erase`, `batch_knn`, `batch_range`, `batch_ball` —
// so a mixed read/write workload can run against any backend unchanged.
//
// Semantics shared by every backend: points form a multiset (duplicates
// allowed); erase removes at most one stored copy per batch entry for
// distinct batch points (backends differ only on erasing a point stored
// multiple times — see bdl_tree's class comment); k-NN rows are sorted by
// distance and have min(k, size()) entries; range results are unordered.
//
// *Epochs and snapshots.* Every adapter carries a monotonically increasing
// write epoch (bumped by build and by each content-changing write batch)
// and can publish an `index_snapshot<D>` — a read-only view of the contents
// as of the snapshot's epoch. Every snapshot is *isolated*: it owns (or
// shares immutably) everything it needs, so queries against it remain
// exact while the live index absorbs further writes concurrently.
//
//   - kdtree: shares the immutable tree + base array and copies the
//     bounded buffered-writes multisets.
//   - zdtree: the adapter is copy-on-write over the Morton array, so a
//     snapshot is one shared_ptr.
//   - bdltree: chunk-level COW over the forest — the snapshot copies the
//     bounded staging buffer and shares the static vEB trees; inserts
//     replace whole trees and erases copy any shared tree before mutating
//     (see bdl_tree.h), so writers never wait on readers.
//
// *Reclamation.* Each adapter accepts an optional `epoch_reclaimer`
// (`set_reclaimer`, see epoch_reclaim.h): superseded structure versions —
// a swapped-out kd-tree/base array, an old Morton array, a replaced vEB
// tree — are retired onto the reclaimer's limbo list instead of freed at
// the swap site, and destroyed at drain-boundary reclaim points once every
// reader epoch has advanced past them. Without a reclaimer the shared_ptr
// refcount frees them as before.
//
// The kd-tree backend is the static baseline the paper compares
// batch-dynamic structures against: updates are served by rebuilding. A
// rebuild-threshold policy softens the pathology — writes are buffered in a
// side multiset and the tree is only rebuilt once the pending volume
// exceeds a configurable fraction of the indexed set; queries merge the
// tree's answer with the buffer so results stay exact between rebuilds.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bdltree/bdl_tree.h"
#include "core/aabb.h"
#include "core/point.h"
#include "kdtree/kdtree.h"
#include "parallel/parallel.h"
#include "query/epoch_reclaim.h"
#include "zdtree/zdtree.h"

namespace pargeo::query {

enum class backend { kdtree, zdtree, bdltree };

inline const char* backend_name(backend b) {
  switch (b) {
    case backend::kdtree: return "kdtree";
    case backend::zdtree: return "zdtree";
    case backend::bdltree: return "bdltree";
  }
  return "?";
}

inline backend backend_from_string(const std::string& s) {
  if (s == "kdtree") return backend::kdtree;
  if (s == "zdtree") return backend::zdtree;
  if (s == "bdltree") return backend::bdltree;
  throw std::invalid_argument("unknown backend '" + s +
                              "' (want kdtree|zdtree|bdltree)");
}

/// Read-only, epoch-stamped view of an index's contents. Query semantics
/// match the owning spatial_index exactly (as of `epoch()`).
template <int D>
class index_snapshot {
 public:
  virtual ~index_snapshot() = default;

  /// The owning index's write epoch when this snapshot was taken.
  virtual std::uint64_t epoch() const = 0;
  virtual std::size_t size() const = 0;

  virtual std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const = 0;
  virtual std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const = 0;
  virtual std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const = 0;
};

/// Abstract batched spatial index. All batch entry points are internally
/// data-parallel; callers hand over whole batches and get per-query rows
/// back in input order.
template <int D>
class spatial_index {
 public:
  virtual ~spatial_index() = default;

  virtual backend kind() const = 0;
  virtual std::size_t size() const = 0;

  /// Monotonic write-epoch counter: bumped by build() and by every
  /// content-changing batch_insert/batch_erase. Safe to read concurrently
  /// with writes (it is an atomic counter, not a structure guard).
  ///
  /// The epoch doubles as a content-version token: within one epoch the
  /// stored multiset — and therefore every query answer — is fixed, so
  /// (query, epoch) keys memoized results (the query_service's k-NN
  /// result cache relies on this, see query/result_cache.h). Backends
  /// uphold the contract by *not* bumping on no-op batches (an erase that
  /// matched nothing) and by bumping before any same-content restructure
  /// (the kd-tree's threshold rebuild happens inside the write batch that
  /// already bumped, so tie-order among equidistant neighbors can only
  /// change across epochs, never within one).
  virtual std::uint64_t epoch() const = 0;

  /// Publishes a read snapshot of the current contents at the current
  /// epoch. Cost: O(buffered writes) for kdtree, O(1) for zdtree,
  /// O(staging buffer + live trees) for bdltree.
  virtual std::shared_ptr<const index_snapshot<D>> snapshot() const = 0;

  /// Attach an epoch reclaimer: superseded structure versions are retired
  /// onto its limbo list instead of freed at the swap site. nullptr
  /// detaches. Not thread-safe against concurrent writes — call before
  /// serving traffic (the query_service attaches at construction).
  virtual void set_reclaimer(epoch_reclaimer* r) { (void)r; }

  /// Replaces the stored set with `pts`.
  virtual void build(const std::vector<point<D>>& pts) = 0;
  virtual void batch_insert(const std::vector<point<D>>& pts) = 0;
  virtual void batch_erase(const std::vector<point<D>>& pts) = 0;

  /// Row i: the min(k, size()) nearest stored points to queries[i], sorted
  /// by distance (query point included at distance 0 if stored).
  virtual std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const = 0;

  /// Row i: all stored points inside boxes[i] (unordered).
  virtual std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const = 0;

  /// Row i: all stored points within radii[i] of centers[i] (unordered).
  virtual std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const = 0;

  /// All stored points (unordered; duplicates preserved).
  virtual std::vector<point<D>> gather() const = 0;
};

namespace detail {

/// The kd-tree backend's queryable state: an immutable tree over an
/// immutable base array (both shared, so views are cheap to copy and
/// survive rebuild swaps) plus the buffered-writes multisets. All merged
/// query logic lives here; kdtree_index mutates a view in place and
/// kdtree snapshots copy one.
template <int D>
struct kdtree_view {
  std::shared_ptr<const kdtree::tree<D>> tree;
  std::shared_ptr<const std::vector<point<D>>> base;
  std::map<point<D>, std::size_t> add;  // buffered inserts (with counts)
  std::map<point<D>, std::size_t> del;  // buffered erases against base
  std::size_t num_add = 0;
  std::size_t num_del = 0;

  std::size_t size() const { return base->size() + num_add - num_del; }

  // Base copies surviving the erase buffer, plus all buffered inserts —
  // the view's logical contents.
  std::vector<point<D>> materialize() const {
    std::vector<point<D>> out;
    out.reserve(size());
    auto pending_del = del;
    for (const auto& p : *base) {
      auto it = pending_del.find(p);
      if (it != pending_del.end() && it->second > 0) {
        --it->second;
        continue;
      }
      out.push_back(p);
    }
    for (const auto& [p, c] : add) out.insert(out.end(), c, p);
    return out;
  }

  // Drops erased copies from a tree result (ids into *base). Which of the
  // identical copies of a value gets dropped is immaterial.
  std::vector<point<D>> filter_base(const std::vector<std::size_t>& ids) const {
    std::vector<point<D>> out;
    out.reserve(ids.size());
    if (del.empty()) {
      for (std::size_t id : ids) out.push_back((*base)[id]);
      return out;
    }
    std::map<point<D>, std::size_t> skipped;
    for (std::size_t id : ids) {
      const auto& p = (*base)[id];
      auto dit = del.find(p);
      if (dit != del.end()) {
        auto& s = skipped[p];
        if (s < dit->second) {
          ++s;
          continue;
        }
      }
      out.push_back(p);
    }
    return out;
  }

  std::vector<point<D>> knn_one(const point<D>& q, std::size_t k) const {
    if (k == 0 || size() == 0) return {};
    // Over-fetch by the erase-buffer size: of the k + num_del nearest base
    // points at most num_del are erased, so >= min(k, live) survive.
    auto entries = tree->knn(q, k + num_del);
    std::vector<std::pair<double, point<D>>> cand;
    cand.reserve(entries.size() + num_add);
    std::map<point<D>, std::size_t> skipped;
    for (const auto& e : entries) {
      const auto& p = (*base)[e.id];
      auto dit = del.find(p);
      if (dit != del.end()) {
        auto& s = skipped[p];
        if (s < dit->second) {
          ++s;
          continue;
        }
      }
      cand.emplace_back(e.dist_sq, p);
    }
    for (const auto& [p, c] : add) {
      cand.insert(cand.end(), c, std::make_pair(p.dist_sq(q), p));
    }
    std::stable_sort(cand.begin(), cand.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<point<D>> out;
    out.reserve(std::min(k, cand.size()));
    for (std::size_t i = 0; i < cand.size() && i < k; ++i) {
      out.push_back(cand[i].second);
    }
    return out;
  }

  std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const {
    std::vector<std::vector<point<D>>> out(queries.size());
    par::parallel_for(
        0, queries.size(),
        [&](std::size_t i) { out[i] = knn_one(queries[i], k); }, 16);
    return out;
  }

  std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const {
    std::vector<std::vector<point<D>>> out(boxes.size());
    par::parallel_for(
        0, boxes.size(),
        [&](std::size_t i) {
          out[i] = filter_base(tree->range_box(boxes[i]));
          for (const auto& [p, c] : add) {
            if (boxes[i].contains(p)) out[i].insert(out[i].end(), c, p);
          }
        },
        16);
    return out;
  }

  std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const {
    std::vector<std::vector<point<D>>> out(centers.size());
    par::parallel_for(
        0, centers.size(),
        [&](std::size_t i) {
          out[i] = filter_base(tree->range_ball(centers[i], radii[i]));
          for (const auto& [p, c] : add) {
            if (p.dist_sq(centers[i]) <= radii[i] * radii[i]) {
              out[i].insert(out[i].end(), c, p);
            }
          }
        },
        16);
    return out;
  }
};

}  // namespace detail

/// Isolated kd-tree snapshot: shares the immutable tree + base array with
/// the live index and owns a copy of the (bounded) buffered-writes
/// multisets, so it answers exactly as of its epoch regardless of what the
/// live index does afterwards.
template <int D>
class kdtree_snapshot final : public index_snapshot<D> {
 public:
  kdtree_snapshot(detail::kdtree_view<D> view, std::uint64_t epoch)
      : view_(std::move(view)), epoch_(epoch) {}

  std::uint64_t epoch() const override { return epoch_; }
  std::size_t size() const override { return view_.size(); }

  std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const override {
    return view_.batch_knn(queries, k);
  }
  std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const override {
    return view_.batch_range(boxes);
  }
  std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const override {
    return view_.batch_ball(centers, radii);
  }

 private:
  detail::kdtree_view<D> view_;
  std::uint64_t epoch_;
};

/// Static kd-tree backend with a rebuild-threshold policy: writes accumulate
/// in a pending buffer (insert counts plus erase counts against the indexed
/// base) and the tree is only rebuilt when the pending volume exceeds
/// `rebuild_threshold` times the base size (threshold <= 0: rebuild on every
/// write batch, the paper's pure static baseline). Queries merge the tree's
/// answer over the base set with the buffer, so results are exact at every
/// point in time.
template <int D>
class kdtree_index final : public spatial_index<D> {
 public:
  static constexpr double kDefaultRebuildThreshold = 0.25;
  /// Absolute cap on buffered writes (queries merge the buffer, so their
  /// cost grows with it); rebuilds trigger past this regardless of the
  /// fractional threshold.
  static constexpr std::size_t kMaxPending = 8192;

  explicit kdtree_index(
      kdtree::split_policy policy = kdtree::split_policy::object_median,
      std::size_t leaf_size = kdtree::tree<D>::kDefaultLeafSize,
      double rebuild_threshold = kDefaultRebuildThreshold)
      : policy_(policy), leaf_size_(leaf_size),
        rebuild_threshold_(rebuild_threshold) {
    view_.base = std::make_shared<const std::vector<point<D>>>();
    rebuild();
  }

  backend kind() const override { return backend::kdtree; }
  std::size_t size() const override { return view_.size(); }
  std::uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Observability for the rebuild policy: trees built so far and writes
  /// currently buffered.
  std::size_t rebuild_count() const { return rebuilds_; }
  std::size_t pending_writes() const { return view_.num_add + view_.num_del; }

  std::shared_ptr<const index_snapshot<D>> snapshot() const override {
    return std::make_shared<kdtree_snapshot<D>>(view_, epoch());
  }

  void set_reclaimer(epoch_reclaimer* r) override { reclaim_ = r; }

  void build(const std::vector<point<D>>& pts) override {
    retire_ptr(view_.base);
    view_.base = std::make_shared<const std::vector<point<D>>>(pts);
    clear_pending();
    rebuild();
    bump_epoch();
  }

  void batch_insert(const std::vector<point<D>>& pts) override {
    if (pts.empty()) return;
    for (const auto& p : pts) {
      ++view_.add[p];
      ++view_.num_add;
    }
    bump_epoch();
    maybe_rebuild();
  }

  void batch_erase(const std::vector<point<D>>& pts) override {
    if (pts.empty() || size() == 0) return;
    // Multiset removal: each batch entry consumes at most one stored copy —
    // a buffered insert if one exists, else a live base copy.
    bool changed = false;
    for (const auto& p : pts) {
      auto ait = view_.add.find(p);
      if (ait != view_.add.end() && ait->second > 0) {
        if (--ait->second == 0) view_.add.erase(ait);
        --view_.num_add;
        changed = true;
        continue;
      }
      auto bit = base_count_.find(p);
      const std::size_t in_base = bit == base_count_.end() ? 0 : bit->second;
      auto dit = view_.del.find(p);
      const std::size_t already = dit == view_.del.end() ? 0 : dit->second;
      if (in_base > already) {
        ++view_.del[p];
        ++view_.num_del;
        changed = true;
      }
    }
    // A batch that matched nothing changed nothing: the epoch (and any
    // snapshot-lag accounting built on it) must not move.
    if (!changed) return;
    bump_epoch();
    maybe_rebuild();
  }

  std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const override {
    return view_.batch_knn(queries, k);
  }

  std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const override {
    return view_.batch_range(boxes);
  }

  std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const override {
    return view_.batch_ball(centers, radii);
  }

  std::vector<point<D>> gather() const override { return view_.materialize(); }

 private:
  void bump_epoch() { epoch_.fetch_add(1, std::memory_order_release); }

  void maybe_rebuild() {
    const std::size_t pending = view_.num_add + view_.num_del;
    if (pending == 0) return;  // e.g. an erase batch that matched nothing
    // Queries pay O(pending) for the buffer merge, so an absolute cap
    // bounds per-query cost even when the fractional threshold would let
    // the buffer grow with the tree.
    if (rebuild_threshold_ > 0 && pending <= kMaxPending &&
        static_cast<double>(pending) <=
            rebuild_threshold_ * static_cast<double>(view_.base->size())) {
      return;
    }
    retire_ptr(view_.base);
    view_.base =
        std::make_shared<const std::vector<point<D>>>(view_.materialize());
    clear_pending();
    rebuild();
  }

  void clear_pending() {
    view_.add.clear();
    view_.del.clear();
    view_.num_add = view_.num_del = 0;
  }

  // Builds a fresh immutable tree over the current base and publishes it by
  // shared_ptr swap — live snapshots keep the tree they captured; the
  // superseded tree goes to the reclaimer's limbo list when one is attached.
  void rebuild() {
    retire_ptr(view_.tree);
    view_.tree = std::make_shared<const kdtree::tree<D>>(*view_.base, policy_,
                                                         leaf_size_);
    base_count_.clear();
    for (const auto& p : *view_.base) ++base_count_[p];
    ++rebuilds_;
  }

  void retire_ptr(std::shared_ptr<const void> p) {
    if (reclaim_ && p) reclaim_->retire(std::move(p));
  }

  kdtree::split_policy policy_;
  std::size_t leaf_size_;
  double rebuild_threshold_;
  detail::kdtree_view<D> view_;
  std::map<point<D>, std::size_t> base_count_;
  std::size_t rebuilds_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
  epoch_reclaimer* reclaim_ = nullptr;
};

namespace detail {

// Shared query wrappers over an immutable zd_tree, used by the live adapter
// and its snapshots alike.
template <int D>
std::vector<std::vector<point<D>>> zd_batch_range(
    const zdtree::zd_tree<D>& tree, const std::vector<aabb<D>>& boxes) {
  std::vector<std::vector<point<D>>> out(boxes.size());
  par::parallel_for(
      0, boxes.size(),
      [&](std::size_t i) { tree.range_box(boxes[i], out[i]); }, 16);
  return out;
}

template <int D>
std::vector<std::vector<point<D>>> zd_batch_ball(
    const zdtree::zd_tree<D>& tree, const std::vector<point<D>>& centers,
    const std::vector<double>& radii) {
  std::vector<std::vector<point<D>>> out(centers.size());
  par::parallel_for(
      0, centers.size(),
      [&](std::size_t i) { tree.range_ball(centers[i], radii[i], out[i]); },
      16);
  return out;
}

}  // namespace detail

/// Isolated Zd-tree snapshot: shares one immutable Morton-array version
/// with the (copy-on-write) live adapter.
template <int D>
class zdtree_snapshot final : public index_snapshot<D> {
 public:
  zdtree_snapshot(std::shared_ptr<const zdtree::zd_tree<D>> tree,
                  std::uint64_t epoch)
      : tree_(std::move(tree)), epoch_(epoch) {}

  std::uint64_t epoch() const override { return epoch_; }
  std::size_t size() const override { return tree_->size(); }

  std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const override {
    return tree_->knn(queries, k);
  }
  std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const override {
    return detail::zd_batch_range(*tree_, boxes);
  }
  std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const override {
    return detail::zd_batch_ball(*tree_, centers, radii);
  }

 private:
  std::shared_ptr<const zdtree::zd_tree<D>> tree_;
  std::uint64_t epoch_;
};

/// Morton-array backend (2D/3D only, like the original Zd-tree): updates
/// are sorted merges/filters, queries run over the implicit segment
/// hierarchy. The adapter is copy-on-write: each write batch derives a new
/// array version and publishes it by shared_ptr swap, which makes snapshots
/// O(1) and fully isolated (the array merge already rewrites O(n + B)
/// elements, so the extra copy only changes the constant).
template <int D>
class zdtree_index final : public spatial_index<D> {
  static_assert(D == 2 || D == 3, "zd_tree supports 2D and 3D only");

 public:
  zdtree_index() : tree_(std::make_shared<const zdtree::zd_tree<D>>()) {}

  backend kind() const override { return backend::zdtree; }
  std::size_t size() const override { return tree_->size(); }
  std::uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  std::shared_ptr<const index_snapshot<D>> snapshot() const override {
    return std::make_shared<zdtree_snapshot<D>>(tree_, epoch());
  }

  void set_reclaimer(epoch_reclaimer* r) override { reclaim_ = r; }

  void build(const std::vector<point<D>>& pts) override {
    publish(std::make_shared<const zdtree::zd_tree<D>>(pts));
    epoch_.fetch_add(1, std::memory_order_release);
  }

  void batch_insert(const std::vector<point<D>>& pts) override {
    if (pts.empty()) return;
    auto next = std::make_shared<zdtree::zd_tree<D>>(*tree_);
    next->insert(pts);
    publish(std::move(next));
    epoch_.fetch_add(1, std::memory_order_release);
  }

  void batch_erase(const std::vector<point<D>>& pts) override {
    if (pts.empty()) return;
    auto next = std::make_shared<zdtree::zd_tree<D>>(*tree_);
    next->erase(pts);
    // Erase only removes: an unchanged size means nothing matched — keep
    // the current version and leave the epoch alone.
    if (next->size() == tree_->size()) return;
    publish(std::move(next));
    epoch_.fetch_add(1, std::memory_order_release);
  }

  std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const override {
    return tree_->knn(queries, k);
  }

  std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const override {
    return detail::zd_batch_range(*tree_, boxes);
  }

  std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const override {
    return detail::zd_batch_ball(*tree_, centers, radii);
  }

  std::vector<point<D>> gather() const override { return tree_->gather(); }

 private:
  // Swap in a new Morton-array version; the superseded version is retired
  // (or refcount-freed when no reclaimer is attached).
  void publish(std::shared_ptr<const zdtree::zd_tree<D>> next) {
    auto old = std::move(tree_);
    tree_ = std::move(next);
    if (reclaim_ && old) reclaim_->retire(std::move(old));
  }

  std::shared_ptr<const zdtree::zd_tree<D>> tree_;
  std::atomic<std::uint64_t> epoch_{0};
  epoch_reclaimer* reclaim_ = nullptr;
};

/// Isolated BDL-tree snapshot: an owned copy of the (bounded) staging
/// buffer plus shared references to the forest's static vEB trees. Writes
/// to the live forest never mutate a shared tree (inserts replace whole
/// trees; erases copy-on-write, see bdl_tree.h), so the snapshot stays
/// exact and may outlive the owning index.
template <int D>
class bdltree_snapshot final : public index_snapshot<D> {
 public:
  bdltree_snapshot(bdltree::bdl_forest_view<D> view, std::uint64_t epoch)
      : view_(std::move(view)), epoch_(epoch), size_(view_.size()) {}

  std::uint64_t epoch() const override { return epoch_; }
  std::size_t size() const override { return size_; }

  std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const override {
    return view_.knn(queries, k);
  }
  std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const override {
    return view_.range_box(boxes);
  }
  std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const override {
    return view_.range_ball(centers, radii);
  }

 private:
  bdltree::bdl_forest_view<D> view_;
  std::uint64_t epoch_;
  std::size_t size_;
};

/// Batch-dynamic BDL-tree backend (paper §5): the structure the subsystem
/// exists to serve — updates are absorbed by the logarithmic forest without
/// full rebuilds.
template <int D>
class bdltree_index final : public spatial_index<D> {
 public:
  explicit bdltree_index(
      bdltree::split_policy policy = bdltree::split_policy::object_median,
      std::size_t buffer_size = bdltree::bdl_tree<D>::kDefaultBufferSize)
      : policy_(policy), buffer_size_(buffer_size), tree_(policy, buffer_size) {}

  backend kind() const override { return backend::bdltree; }
  std::size_t size() const override { return tree_.size(); }
  std::uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  std::shared_ptr<const index_snapshot<D>> snapshot() const override {
    return std::make_shared<bdltree_snapshot<D>>(tree_.view(), epoch());
  }

  void set_reclaimer(epoch_reclaimer* r) override {
    reclaim_ = r;
    attach_hook();
  }

  void build(const std::vector<point<D>>& pts) override {
    tree_ = bdltree::bdl_tree<D>(policy_, buffer_size_);
    attach_hook();
    tree_.insert(pts);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  void batch_insert(const std::vector<point<D>>& pts) override {
    if (pts.empty()) return;
    tree_.insert(pts);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  void batch_erase(const std::vector<point<D>>& pts) override {
    if (pts.empty()) return;
    const std::size_t before = tree_.size();
    tree_.erase(pts);
    // Contents unchanged (nothing matched) -> epoch unchanged, even if the
    // forest restructured internally.
    if (tree_.size() == before) return;
    epoch_.fetch_add(1, std::memory_order_release);
  }

  std::vector<std::vector<point<D>>> batch_knn(
      const std::vector<point<D>>& queries, std::size_t k) const override {
    return tree_.knn(queries, k);
  }

  std::vector<std::vector<point<D>>> batch_range(
      const std::vector<aabb<D>>& boxes) const override {
    return tree_.range_box(boxes);
  }

  std::vector<std::vector<point<D>>> batch_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const override {
    return tree_.range_ball(centers, radii);
  }

  std::vector<point<D>> gather() const override { return tree_.gather(); }

 private:
  void attach_hook() {
    if (reclaim_ != nullptr) {
      epoch_reclaimer* r = reclaim_;
      tree_.set_retire_hook(
          [r](std::shared_ptr<const void> p) { r->retire(std::move(p)); });
    } else {
      tree_.set_retire_hook(nullptr);
    }
  }

  bdltree::split_policy policy_;
  std::size_t buffer_size_;
  bdltree::bdl_tree<D> tree_;
  std::atomic<std::uint64_t> epoch_{0};
  epoch_reclaimer* reclaim_ = nullptr;
};

// The common dimensions are instantiated once in query.cpp.
extern template class kdtree_index<2>;
extern template class kdtree_index<3>;
extern template class zdtree_index<2>;
extern template class zdtree_index<3>;
extern template class bdltree_index<2>;
extern template class bdltree_index<3>;

/// Factory keyed by the runtime backend tag, with each backend's default
/// tuning. The Zd-tree backend exists only in 2D/3D; requesting it at other
/// dimensions throws.
template <int D>
std::unique_ptr<spatial_index<D>> make_index(backend b) {
  switch (b) {
    case backend::kdtree:
      return std::make_unique<kdtree_index<D>>();
    case backend::zdtree:
      if constexpr (D == 2 || D == 3) {
        return std::make_unique<zdtree_index<D>>();
      } else {
        throw std::invalid_argument("zdtree backend supports 2D/3D only");
      }
    case backend::bdltree:
      return std::make_unique<bdltree_index<D>>();
  }
  throw std::invalid_argument("unknown backend tag");
}

}  // namespace pargeo::query
