// BDL-tree: parallel batch-dynamic kd-tree via the logarithmic method
// (paper §5). A buffer holding up to X points plus a forest of static
// vEB-layout kd-trees with capacities X*2^i.
//
// Batch insertion follows the bitmask cascade of Figure 7 / Algorithm 3:
// F_new = F + floor(|P|/X); trees set in F but not F_new are destroyed and
// their points, together with the batch, build the trees set in F_new but
// not F. Batch deletion (Algorithm 4) removes one stored copy per batch
// entry — from the buffer first, then from the trees, largest first, each
// seeing only the entries still unmatched — and rebuilds any tree that
// drops below half of its build size by reinserting its points. k-NN
// queries share one k-NN buffer per query point across all trees and the
// buffer (Appendix C.4).
//
// *Query order.* A batch k-NN runs its queries in Morton order
// (mortonsort::parallel_for_each), so that the queries one worker runs in a
// row walk mostly the same nodes and find them in cache; its rows stay in
// input order. Each query walks the trees largest first, so the bound is
// already tight when it reaches the small trees, and scans the staging
// buffer last.
//
// *Buffer order.* The staging buffer is always in lexicographic order
// (so sorted by x). Insert merges new points in and erase removes one copy
// per batch entry, so neither re-sorts it. Erase finds each entry's run of
// equal points by a binary search on the workers, then hands the copies
// out in batch order in one sequential pass over the entries that landed
// on an equal point; the entries left unmatched go on to the trees in
// batch order. The buffer scans of k-NN, ball and box queries walk outward
// from the query's x and stop once the x gap alone exceeds the k-NN bound,
// the radius or the box.
//
// *Updates at full width.* Every pass of an insert or erase runs on the
// workers once it is large enough: the buffer match; each tree's erase,
// which splits its entries with the builder's stable parallel partition
// above the fork cutoff; the gathers of live points, one blocked pack per
// tree (par::pack_into), which assemble a rebuild pool in one pass; and
// the builds, each new tree copying its slice of the pool. An update below
// the loop grains opens no OpenMP team. The result (point order, trees by
// slot, alive flags, k-NN ids) is the same at every worker count.
//
// *Snapshots (chunk-level COW).* The forest's unit of immutability is the
// static vEB tree: insertion never mutates an existing tree (the cascade
// destroys whole trees and builds fresh ones), and deletion — the one
// historically in-place operation — now copies a tree that is shared
// with a snapshot, and that the batch has a live copy in, before erasing
// from the copy (`use_count() == 1` keeps the un-shared fast path in
// place). Trees therefore live behind shared_ptr, and `view()` publishes
// an isolated `bdl_forest_view`: a copy of the (bounded, <= X points)
// staging buffer plus shared references to every live tree. The view
// answers queries exactly as of its creation no matter what the live
// forest does afterwards.
//
// Superseded trees are handed to an optional *retire hook*
// (`set_retire_hook`) instead of being destroyed inline — the query
// service points this at its epoch reclaimer (src/query/epoch_reclaim.h)
// so old chunks die at drain-boundary reclaim points, not under a reader.
// Without a hook the shared_ptr refcount frees them as usual.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bdltree/veb_tree.h"
#include "mortonsort/mortonsort.h"

namespace pargeo::bdltree {

namespace detail {

// --- the staging buffer: a point multiset kept in lexicographic order ---

/// Merges `add` into `sorted`, a vector in lexicographic order, and keeps
/// it in order: O(|sorted| + |add| log |add|), never a full re-sort.
template <int D>
void insert_sorted(std::vector<point<D>>& sorted, std::vector<point<D>> add) {
  std::sort(add.begin(), add.end());
  std::size_t i = sorted.size(), j = add.size();
  sorted.resize(i + j);
  // Merge from the back, so every element moves once.
  for (std::size_t out = sorted.size(); j > 0;) {
    if (i > 0 && add[j - 1] < sorted[i - 1]) {
      sorted[--out] = sorted[--i];
    } else {
      sorted[--out] = add[--j];
    }
  }
}

/// Removes one stored copy per batch entry from `sorted`, a vector in
/// lexicographic order, and keeps it in order. Returns the entries that
/// found no copy left, in batch order. Each entry's binary search runs on
/// the workers (`sorted` is read-only then); one sequential pass over the
/// entries that landed on an equal point hands the copies out in batch
/// order; the unmatched entries are packed on the workers.
/// O(|batch| log |sorted| + |sorted|) work.
template <int D>
std::vector<point<D>> erase_sorted(std::vector<point<D>>& sorted,
                                   const std::vector<point<D>>& batch) {
  const std::size_t n = batch.size();
  // matched[i] = 1 + where batch[i]'s run of equal points starts (binary
  // search always lands on a run's first element), or 0 if there is none.
  std::vector<std::size_t> matched(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), batch[i]);
    matched[i] = it != sorted.end() && *it == batch[i]
                     ? static_cast<std::size_t>(it - sorted.begin()) + 1
                     : 0;
  });
  // One pass over the entries that landed on a run, in batch order:
  // taken[r] = copies consumed from the run starting at r, and an entry
  // that finds its run used up becomes unmatched. Then the buffer drops the
  // copies taken.
  std::size_t hits = 0;
  const std::vector<std::size_t> landed = par::pack_index(matched);
  if (!landed.empty()) {
    std::vector<std::uint32_t> taken(sorted.size(), 0);
    std::size_t first = sorted.size();
    for (const std::size_t i : landed) {
      const std::size_t r = matched[i] - 1, at = r + taken[r];
      if (at < sorted.size() && sorted[at] == batch[i]) {
        ++taken[r];
        ++hits;
        first = std::min(first, r);
      } else {
        matched[i] = 0;
      }
    }
    std::size_t out = first;
    for (std::size_t i = first; i < sorted.size();) {
      if (taken[i] > 0) {
        i += taken[i];
      } else {
        sorted[out++] = sorted[i++];
      }
    }
    sorted.resize(out);
  }
  std::vector<point<D>> rest(n - hits);
  par::pack_into(
      n, [&](std::size_t i) { return matched[i] == 0; },
      [&](std::size_t i) { return batch[i]; }, rest.data());
  return rest;
}

/// Visits the points of `sorted` (lexicographic order, so sorted by x)
/// whose squared x gap to q is at most bound(), walking outward from q's
/// x. `bound` is re-read after every visit, so a visit may tighten it.
template <int D, typename Bound, typename Visit>
void scan_near_x(const std::vector<point<D>>& sorted, const point<D>& q,
                 Bound bound, Visit visit) {
  const auto mid = std::lower_bound(
      sorted.begin(), sorted.end(), q[0],
      [](const point<D>& p, double x) { return p[0] < x; });
  for (auto it = mid; it != sorted.end(); ++it) {
    const double dx = (*it)[0] - q[0];
    if (dx * dx > bound()) break;
    visit(*it);
  }
  for (auto it = mid; it != sorted.begin();) {
    --it;
    const double dx = q[0] - (*it)[0];
    if (dx * dx > bound()) break;
    visit(*it);
  }
}

// Shared query kernels over (staging buffer, tree list) — used by the live
// bdl_tree and by isolated bdl_forest_view snapshots alike. TreeList is a
// vector of shared_ptr-like handles to (possibly const) veb_tree<D>,
// indexed by slot, so a larger index holds a larger tree.

// k-NN ids are (slot << 32) | index (veb_tree::knn); the staging buffer
// takes the slot after the last tree, with its points' buffer indices. So
// the rows, ties included, are a function of the forest's structure: a
// replica that replays the same calls, or the same inserts run at another
// worker count, returns the same points.
template <int D, typename TreeList>
std::vector<std::vector<point<D>>> forest_knn(
    const std::vector<point<D>>& buffer, const TreeList& trees,
    std::size_t total, const std::vector<point<D>>& queries, std::size_t k) {
  std::vector<std::vector<point<D>>> out(queries.size());
  const std::size_t kk = std::min(k, total);
  const std::size_t buffer_slot = trees.size();
  mortonsort::parallel_for_each(
      queries,
      [&](std::size_t qi) {
        const point<D>& q = queries[qi];
        kdtree::knn_buffer buf(kk);
        // Largest tree first: it holds most of the neighbours, so the
        // bound is tight before the smaller trees and the buffer are
        // searched.
        for (std::size_t s = trees.size(); s-- > 0;) {
          if (trees[s]) trees[s]->knn(q, s, buf);
        }
        scan_near_x<D>(
            buffer, q, [&] { return buf.bound(); },
            [&](const point<D>& p) {
              const auto i = static_cast<std::size_t>(&p - buffer.data());
              buf.insert(p.dist_sq(q), (buffer_slot << 32) | i);
            });
        auto entries = buf.finish();
        out[qi].reserve(entries.size());
        for (const auto& e : entries) {
          const std::size_t slot = e.id >> 32, i = e.id & 0xffffffffu;
          out[qi].push_back(slot == buffer_slot ? buffer[i]
                                                : trees[slot]->point_at(i));
        }
      },
      16);
  return out;
}

template <int D, typename TreeList>
std::vector<std::vector<point<D>>> forest_range_ball(
    const std::vector<point<D>>& buffer, const TreeList& trees,
    const std::vector<point<D>>& centers, const std::vector<double>& radii) {
  std::vector<std::vector<point<D>>> out(centers.size());
  par::parallel_for(
      0, centers.size(),
      [&](std::size_t qi) {
        const point<D>& c = centers[qi];
        const double r_sq = radii[qi] * radii[qi];
        for (const auto& t : trees) {
          if (t) t->range_ball(c, radii[qi], out[qi]);
        }
        scan_near_x<D>(
            buffer, c, [&] { return r_sq; },
            [&](const point<D>& p) {
              if (p.dist_sq(c) <= r_sq) out[qi].push_back(p);
            });
      },
      16);
  return out;
}

template <int D, typename TreeList>
std::vector<std::vector<point<D>>> forest_range_box(
    const std::vector<point<D>>& buffer, const TreeList& trees,
    const std::vector<aabb<D>>& queries) {
  std::vector<std::vector<point<D>>> out(queries.size());
  par::parallel_for(
      0, queries.size(),
      [&](std::size_t qi) {
        const aabb<D>& qb = queries[qi];
        for (const auto& t : trees) {
          if (t) t->range_box(qb, out[qi]);
        }
        auto it = std::lower_bound(
            buffer.begin(), buffer.end(), qb.lo[0],
            [](const point<D>& p, double x) { return p[0] < x; });
        for (; it != buffer.end() && (*it)[0] <= qb.hi[0]; ++it) {
          if (qb.contains(*it)) out[qi].push_back(*it);
        }
      },
      16);
  return out;
}

}  // namespace detail

/// Isolated snapshot of a bdl_tree: an owned copy of the staging buffer
/// plus shared, immutable-by-contract references to the forest's trees.
/// Exact as of creation regardless of later writes to the live tree.
template <int D>
struct bdl_forest_view {
  std::vector<point<D>> buffer;
  std::vector<std::shared_ptr<const veb_tree<D>>> trees;

  std::size_t size() const {
    std::size_t s = buffer.size();
    for (const auto& t : trees) {
      if (t) s += t->size();
    }
    return s;
  }

  std::vector<std::vector<point<D>>> knn(const std::vector<point<D>>& queries,
                                         std::size_t k) const {
    return detail::forest_knn<D>(buffer, trees, size(), queries, k);
  }

  std::vector<std::vector<point<D>>> range_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const {
    return detail::forest_range_ball<D>(buffer, trees, centers, radii);
  }

  std::vector<std::vector<point<D>>> range_box(
      const std::vector<aabb<D>>& queries) const {
    return detail::forest_range_box<D>(buffer, trees, queries);
  }
};

template <int D>
class bdl_tree {
 public:
  static constexpr std::size_t kDefaultBufferSize = 1024;

  /// Receives every superseded tree (destroyed by the insert cascade,
  /// replaced by a COW erase, or gathered below half capacity), on the
  /// thread that runs the insert or erase.
  using retire_fn = std::function<void(std::shared_ptr<const void>)>;

  explicit bdl_tree(split_policy policy = split_policy::object_median,
                    std::size_t buffer_size = kDefaultBufferSize)
      : policy_(policy), x_(std::max<std::size_t>(1, buffer_size)) {}

  void set_retire_hook(retire_fn f) { retire_ = std::move(f); }

  std::size_t size() const {
    std::size_t s = buffer_.size();
    for (const auto& t : trees_) {
      if (t) s += t->size();
    }
    return s;
  }

  std::size_t num_static_trees() const {
    std::size_t c = 0;
    for (const auto& t : trees_) {
      if (t && !t->empty()) ++c;
    }
    return c;
  }

  /// Publishes an isolated snapshot: O(X) buffer copy + one shared_ptr
  /// per live tree. Must not run concurrently with insert/erase (the
  /// query_service serializes both on the shard's lane).
  bdl_forest_view<D> view() const {
    bdl_forest_view<D> v;
    v.buffer = buffer_;
    v.trees.assign(trees_.begin(), trees_.end());
    return v;
  }

  /// Batch insertion (paper Algorithm 3). Never mutates an existing tree:
  /// the cascade retires whole trees and builds fresh ones, so snapshots
  /// holding the old trees stay exact. The rebuild pool is assembled in one
  /// parallel pass, and each new tree copies its slice of it on the
  /// workers.
  void insert(const std::vector<point<D>>& batch) {
    insert_range(batch.data(), batch.size());
  }

  /// Batch deletion (paper Algorithm 4): each entry removes one stored
  /// copy, if one is left. The staging buffer takes the entries it matches
  /// first (matched on the workers, see detail::erase_sorted); then each
  /// tree, largest first, gets only the entries still unmatched. A tree
  /// shared with a snapshot is copied (chunk-level COW) only when a
  /// remaining entry has a live copy in it; an exclusively owned tree
  /// erases in place. Trees left below half their build capacity are
  /// gathered, in one parallel pass, into one batch that is reinserted.
  void erase(const std::vector<point<D>>& batch) {
    if (batch.empty()) return;
    std::vector<point<D>> rest = detail::erase_sorted<D>(buffer_, batch);
    for (std::size_t i = trees_.size(); i-- > 0 && !rest.empty();) {
      auto& slot = trees_[i];
      if (!slot || slot->empty()) continue;
      // use_count == 1: only the live forest holds this tree — no snapshot
      // can appear mid-erase (view() and writes are serialized by the
      // caller), so mutate in place. use_count() is a relaxed load; the
      // pin's increment, an acq_rel read-modify-write of the same count, is
      // what orders this erase after the reads of every snapshot that
      // released it.
      if (slot.use_count() == 1) {
        { const auto pin = slot; }
        slot->erase_matched(rest);
        continue;
      }
      if (!slot->contains_any(rest)) continue;
      auto copy = std::make_shared<veb_tree<D>>(*slot);
      copy->erase_matched(rest);
      auto old = std::move(slot);
      slot = std::move(copy);
      retire_tree(std::move(old));
    }
    std::vector<std::size_t> below_half;
    std::vector<pool_part> parts;
    for (std::size_t i = 0; i < trees_.size(); ++i) {
      if (!trees_[i] || trees_[i]->empty()) continue;
      const std::size_t cap = x_ << i;
      if (trees_[i]->size() < (cap + 1) / 2) {
        below_half.push_back(i);
        parts.push_back(tree_part(i));
      }
    }
    if (parts.empty()) return;
    const auto reinsert = assemble(parts);
    for (const std::size_t i : below_half) retire_tree(std::move(trees_[i]));
    insert_range(reinsert.data(), reinsert.size());
  }

  /// Data-parallel k-NN: row i holds the k nearest stored points to
  /// queries[i], sorted by distance.
  std::vector<std::vector<point<D>>> knn(
      const std::vector<point<D>>& queries, std::size_t k) const {
    return detail::forest_knn<D>(buffer_, trees_, size(), queries, k);
  }

  /// Data-parallel range search: row i holds every stored point within
  /// `radius` of queries[i] (unordered).
  std::vector<std::vector<point<D>>> range_ball(
      const std::vector<point<D>>& queries, double radius) const {
    std::vector<double> radii(queries.size(), radius);
    return detail::forest_range_ball<D>(buffer_, trees_, queries, radii);
  }

  /// Per-query-radius variant: row i holds every stored point within
  /// radii[i] of centers[i] (unordered).
  std::vector<std::vector<point<D>>> range_ball(
      const std::vector<point<D>>& centers,
      const std::vector<double>& radii) const {
    return detail::forest_range_ball<D>(buffer_, trees_, centers, radii);
  }

  /// Data-parallel orthogonal range search: row i holds every stored point
  /// inside queries[i] (unordered).
  std::vector<std::vector<point<D>>> range_box(
      const std::vector<aabb<D>>& queries) const {
    return detail::forest_range_box<D>(buffer_, trees_, queries);
  }

  /// All stored points: the buffer, then each tree's live points by slot,
  /// in storage order.
  std::vector<point<D>> gather() const {
    std::vector<pool_part> parts = {{nullptr, buffer_.data(), buffer_.size()}};
    for (std::size_t i = 0; i < trees_.size(); ++i) {
      if (trees_[i]) parts.push_back(tree_part(i));
    }
    const auto all = assemble(parts);
    return std::vector<point<D>>(all.data(), all.data() + all.size());
  }

  std::size_t buffer_capacity() const { return x_; }

 private:
  // Grain for a loop over `slots` trees (or pool parts) that moves `points`
  // points in all: the whole loop (run inline, no team) up to the builder's
  // fork cutoff, where a small insert would otherwise open a team for
  // microseconds of work; one item per task above it.
  static std::size_t inline_up_to_fork_cutoff(std::size_t points,
                                              std::size_t slots) {
    return points <= kdtree::kForkCutoff ? slots : 1;
  }

  // A part of a rebuild pool: the n live points of `tree`, or, without a
  // tree, the n points from `from`.
  struct pool_part {
    const veb_tree<D>* tree;
    const point<D>* from;
    std::size_t n;
  };

  pool_part tree_part(std::size_t slot) const {
    return {trees_[slot].get(), nullptr, trees_[slot]->size()};
  }

  // Writes the parts, in order, into one uninitialised buffer, in one pass
  // over the parts (on the workers above the builder's fork cutoff): a
  // tree's live points by its blocked pack (veb_tree::gather_into), the
  // other parts by a blocked copy.
  kdtree::raw_buffer<point<D>> assemble(
      const std::vector<pool_part>& parts) const {
    std::vector<std::size_t> at(parts.size() + 1, 0);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      at[i + 1] = at[i] + parts[i].n;
    }
    kdtree::raw_buffer<point<D>> pool(at.back());
    par::parallel_for(
        0, parts.size(),
        [&](std::size_t i) {
          const pool_part& part = parts[i];
          point<D>* const out = pool.data() + at[i];
          if (part.tree != nullptr) {
            part.tree->gather_into(out);
          } else {
            par::pack_into(
                part.n, [](std::size_t) { return true; },
                [&part](std::size_t j) { return part.from[j]; }, out,
                kdtree::kForkCutoff);
          }
        },
        inline_up_to_fork_cutoff(at.back(), parts.size()));
    return pool;
  }

  // Insert of batch[0, n). (|buffer| + n) mod X points stay in the buffer;
  // the rest, then the live points of the trees the cascade destroys (by
  // slot), form the rebuild pool. The buffer keeps a prefix of itself when
  // that is enough, else all of itself merged with the batch's tail, so it
  // stays sorted without a re-sort.
  void insert_range(const point<D>* batch, std::size_t n) {
    if (n == 0) return;
    const std::size_t keep = (buffer_.size() + n) % x_;
    std::vector<pool_part> parts;
    if (keep < buffer_.size()) {
      parts.push_back({nullptr, batch, n});
      parts.push_back({nullptr, buffer_.data() + keep, buffer_.size() - keep});
    } else {
      const std::size_t split = n - (keep - buffer_.size());
      detail::insert_sorted<D>(buffer_,
                               std::vector<point<D>>(batch + split, batch + n));
      if (split == 0) return;
      parts.push_back({nullptr, batch, split});
    }

    std::size_t head = 0;
    for (const auto& part : parts) head += part.n;
    const uint64_t add = head / x_;
    const uint64_t f = full_mask();
    const uint64_t fnew = f + add;
    const uint64_t destroy = f & ~fnew;
    const uint64_t create = fnew & ~f;

    for (std::size_t i = 0; i < 64; ++i) {
      if ((destroy >> i) & 1) parts.push_back(tree_part(i));
    }
    const auto pool = assemble(parts);
    if (keep < buffer_.size()) buffer_.resize(keep);
    for (std::size_t i = 0; i < 64; ++i) {
      if ((destroy >> i) & 1) retire_tree(std::move(trees_[i]));
    }
    // Build the new trees over contiguous pool slices (in parallel for a
    // large pool), largest first so slice sizes match capacities X*2^i as
    // closely as possible.
    std::vector<int> slots;
    for (int i = 63; i >= 0; --i) {
      if ((create >> i) & 1) slots.push_back(i);
    }
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::size_t off = 0;
    for (const int slot : slots) {
      const std::size_t cap = x_ << slot;
      const std::size_t take = std::min(cap, pool.size() - off);
      ranges.emplace_back(off, off + take);
      off += take;
    }
    // Any residue (possible when destroyed trees were not full) goes into
    // the last created tree.
    if (off < pool.size() && !ranges.empty()) {
      ranges.back().second = pool.size();
    }
    if (static_cast<std::size_t>(trees_.size()) < 64) trees_.resize(64);
    par::parallel_for(
        0, slots.size(),
        [&](std::size_t i) {
          trees_[slots[i]] = std::make_shared<veb_tree<D>>(
              pool.data() + ranges[i].first,
              ranges[i].second - ranges[i].first, policy_);
        },
        inline_up_to_fork_cutoff(pool.size(), slots.size()));
  }

  uint64_t full_mask() const {
    uint64_t f = 0;
    for (std::size_t i = 0; i < trees_.size(); ++i) {
      if (trees_[i] && !trees_[i]->empty()) f |= uint64_t{1} << i;
    }
    return f;
  }

  // Superseded tree: hand to the retire hook (epoch reclaimer) when one is
  // attached, else let the refcount free it.
  void retire_tree(std::shared_ptr<veb_tree<D>> t) {
    if (!t) return;
    if (retire_) {
      retire_(std::shared_ptr<const void>(std::move(t)));
    }
  }

  split_policy policy_;
  std::size_t x_;
  std::vector<point<D>> buffer_;
  std::vector<std::shared_ptr<veb_tree<D>>> trees_;
  retire_fn retire_;
};

}  // namespace pargeo::bdltree
