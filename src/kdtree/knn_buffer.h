// k-nearest-neighbor candidate buffer with an exact pruning bound.
//
// Keeps the k best (squared distance, id) pairs seen so far in sorted
// order. An insert that beats the k-th pair drops it and moves the larger
// pairs up one slot (one insertion-sort step), so as soon as k pairs are
// held the bound is the k-th smallest distance seen. Up to kInline pairs
// live inside the buffer itself, so a query with k <= 16 allocates nothing
// here; a larger k allocates its k slots once.
//
// *Why not the 2k buffer of the paper's Appendix C.1.3.* That buffer
// appends every candidate that passes its bound and, when 2k are held,
// keeps the k smallest with a selection. Its bound is refreshed only then,
// so between compactions it is looser than the k-th distance, and every
// tree node closer than it is visited. The exact bound prunes those
// visits, and an insert costs at most k moves of 16-byte pairs. Measured
// on perfbench's kernel inputs (1M points, 250k queries, k = 8, 1 worker,
// queries in input order; medians of 5 runs on a 4-vCPU shared VM, gcc
// -O3), the static kd-tree's batch k-NN fell from 0.74 to 0.41 s on
// uniform points and from 0.91 to 0.53 s on points near a square's
// boundary (datagen::on_cube), and the BDL-tree's from 1.63 to 1.12 s and
// from 1.59 to 1.13 s, with the same distance rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace pargeo::kdtree {

class knn_buffer {
 public:
  struct entry {
    double dist_sq;
    std::size_t id;
    bool operator<(const entry& o) const {
      return dist_sq < o.dist_sq ||
             (dist_sq == o.dist_sq && id < o.id);
    }
  };

  /// Pairs held inside the buffer; a larger k puts its pairs on the heap.
  static constexpr std::size_t kInline = 16;

  explicit knn_buffer(std::size_t k) : k_(k), heap_(k > kInline ? k : 0) {
    reset();
  }

  std::size_t k() const { return k_; }

  /// Current pruning bound: squared distance of the k-th best pair once k
  /// pairs are held, +inf before. With k = 0 it is -inf, so every insert
  /// is turned away and a search prunes every node.
  double bound() const { return bound_; }

  bool full() const { return size_ == k_; }

  void insert(double dist_sq, std::size_t id) {
    // A distance tied with the bound goes on to the (dist, id) comparison,
    // so distance ties resolve to the smallest ids. NaN never passes.
    if (!(dist_sq <= bound_)) return;
    entry* a = data();
    const entry e{dist_sq, id};
    std::size_t i = size_;
    if (size_ == k_) {
      if (k_ == 0 || !(e < a[k_ - 1])) return;
      --i;  // the k-th pair drops out
    } else {
      ++size_;
    }
    for (; i > 0 && e < a[i - 1]; --i) a[i] = a[i - 1];
    a[i] = e;
    if (size_ == k_) bound_ = a[k_ - 1].dist_sq;
  }

  /// The k nearest candidates, sorted by distance (ties by id).
  std::vector<entry> finish() const {
    const entry* a = data();
    return std::vector<entry>(a, a + size_);
  }

  void reset() {
    size_ = 0;
    bound_ = k_ == 0 ? -std::numeric_limits<double>::infinity()
                     : std::numeric_limits<double>::infinity();
  }

 private:
  entry* data() { return k_ > kInline ? heap_.data() : inline_; }
  const entry* data() const { return k_ > kInline ? heap_.data() : inline_; }

  std::size_t k_;
  std::size_t size_ = 0;
  double bound_ = 0;
  entry inline_[kInline] = {};
  std::vector<entry> heap_;
};

}  // namespace pargeo::kdtree
