// The one construction of the library's two static kd-trees: the kd-tree
// (`kdtree::tree`) and the BDL-tree's vEB-layout tree (`bdltree::veb_tree`).
//
// *Recursion.* `build` visits a tree's nodes by a binary recursion over
// ranges of its point array. Each node splits its range along one
// dimension with `split`, then builds its two halves: in parallel
// (`par_do`) while the range holds more than kForkCutoff points, in the
// calling task below that, where a fork costs more than the subtree.
//
// *Slots.* The recursion numbers the nodes by the tree's shape: the root
// takes slot 0; at a node it forks, the left child takes the next slot and
// the right child goes past a block of 2m - 1 slots for the left child's m
// points; below the cutoff, one task numbers its subtree in pre-order. If
// every internal node has two non-empty children, a subtree of m points
// has at most 2m - 1 nodes, so the slots lie below 2n - 1. `kdtree::tree`
// stores its nodes at these slots; the vEB tree keeps its own order.
//
// *Split.* The object median cuts a range of n points at n/2 around v, its
// n/2-th smallest coordinate: every point before the cut is <= v and every
// point from it on is >= v. The spatial median cuts at the midpoint of the
// range's extent, after the points below it; a cut that would leave a side
// empty falls back to the object median. Up to kParallelSplitCutoff points
// a split runs in place on one worker (`std::nth_element`,
// `std::partition`). Above it, a parallel selection finds v
// (`order_statistic`: a sample brackets it, then only the points inside the
// bracket are selected from) and a blocked, stable three-way partition
// [< v | = v | > v] reorders the range through a scratch buffer
// (`par::counting_scatter`). The query service's stripe cuts are order
// statistics too, taken by the same routine.
//
// *Determinism.* Which path splits a range depends on the range's size
// alone, and each path's output depends only on the points (the selection
// returns an exact order statistic; the blocked partition is stable), so a
// tree comes out the same (point order, nodes, slots) at every worker count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/parallel.h"

namespace pargeo::kdtree {

enum class split_policy { object_median, spatial_median };

/// A range builds its two halves in parallel only above this many points.
inline constexpr std::size_t kForkCutoff = std::size_t{1} << 14;
/// A range is split by the parallel path only above this many points.
inline constexpr std::size_t kParallelSplitCutoff = std::size_t{1} << 17;

/// Storage for n trivially copyable T, left uninitialised: its owner
/// constructs the slots it uses (zeroing them first would be one more
/// serial pass over the buffer). A copy copies all n slots. The storage
/// starts on a cache line, so a 64-byte tree node sits in exactly one.
template <class T>
class raw_buffer {
  static_assert(std::is_trivially_copyable_v<T>);
  static constexpr std::align_val_t kAlign{64};

 public:
  explicit raw_buffer(std::size_t n = 0)
      : n_(n),
        p_(static_cast<T*>(::operator new(n * sizeof(T), kAlign))) {}
  raw_buffer(const raw_buffer& o) : raw_buffer(o.n_) {
    std::copy_n(o.data(), n_, data());
  }
  raw_buffer(raw_buffer&&) noexcept = default;
  raw_buffer& operator=(raw_buffer&&) noexcept = default;

  std::size_t size() const { return n_; }
  T* data() const { return p_.get(); }
  T& operator[](std::size_t i) const { return p_.get()[i]; }

 private:
  struct free_storage {
    void operator()(T* p) const { ::operator delete(p, kAlign); }
  };
  std::size_t n_;
  std::unique_ptr<T, free_storage> p_;
};

/// Where a split cut its range (the right half starts at offset `at`) and
/// the coordinate it cut at: left points <= value <= right points.
struct cut {
  std::size_t at;
  double value;
};

namespace detail {

// min and max of coordinate `dim` over a[0, n), n > 0.
template <class T>
std::pair<double, double> extent(const T* a, std::size_t n, int dim) {
  const auto scan = [&](std::size_t lo, std::size_t hi) {
    std::pair<double, double> e{std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
    for (std::size_t i = lo; i < hi; ++i) {
      e.first = std::min(e.first, a[i][dim]);
      e.second = std::max(e.second, a[i][dim]);
    }
    return e;
  };
  if (n <= kParallelSplitCutoff) return scan(0, n);
  return par::fold_blocks(n, scan(0, 0), scan, [](auto x, auto y) {
    return std::pair{std::min(x.first, y.first),
                     std::max(x.second, y.second)};
  });
}

}  // namespace detail

/// The k-th smallest (0-based) coordinate `dim` of a[0, n), k < n: an exact
/// order statistic. Up to kParallelSplitCutoff points it is selected on the
/// calling thread (`std::nth_element` over a copy of the coordinates).
/// Above it, two order statistics of a sample at hashed positions (fixed by
/// n) bracket it; one pass on the workers counts the points below the
/// bracket and gathers those inside, and a selection among the gathered
/// finds it. A bracket side past either end of the sample is open, and a
/// bracket that misses (rare: 4 standard deviations of the sample
/// quantile's rank on either side) falls back to selecting among all n.
template <class T>
double order_statistic(const T* a, std::size_t n, std::size_t k, int dim) {
  if (n <= kParallelSplitCutoff) {
    std::vector<double> c(n);
    for (std::size_t i = 0; i < n; ++i) c[i] = a[i][dim];
    std::nth_element(c.begin(), c.begin() + k, c.end());
    return c[k];
  }
  constexpr std::size_t kSample = 4096, kSlack = 128;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> sample(kSample);
  for (std::size_t j = 0; j < kSample; ++j) {
    sample[j] = a[par::rand_at(n, j) % n][dim];
  }
  std::sort(sample.begin(), sample.end());
  const std::size_t at = k * kSample / n;  // k's rank, scaled to the sample
  const double lo = at >= kSlack ? sample[at - kSlack] : -kInf;
  const double hi = at + kSlack < kSample ? sample[at + kSlack] : kInf;
  struct tally {
    std::size_t below = 0;
    std::vector<double> inside;
  };
  tally t = par::fold_blocks(
      n, tally{},
      [&](std::size_t s, std::size_t e) {
        // Branch-free: every coordinate is written, and the cursor moves
        // past those inside (on a 1M-point range, a branch per point made
        // the pass three times slower).
        std::unique_ptr<double[]> buf(new double[e - s]);
        tally r;
        std::size_t m = 0;
        for (std::size_t i = s; i < e; ++i) {
          const double c = a[i][dim];
          r.below += c < lo;
          buf[m] = c;
          m += (c >= lo) & (c <= hi);
        }
        r.inside.assign(buf.get(), buf.get() + m);
        return r;
      },
      [](tally x, tally y) {
        x.below += y.below;
        x.inside.insert(x.inside.end(), y.inside.begin(), y.inside.end());
        return x;
      });
  std::vector<double>& pick = t.inside;
  std::size_t rank = k - t.below;
  if (k < t.below || rank >= pick.size()) {
    pick.resize(n);
    par::parallel_for(0, n, [&](std::size_t i) { pick[i] = a[i][dim]; });
    rank = k;
  } else if (lo == hi) {
    return lo;
  }
  std::nth_element(pick.begin(), pick.begin() + rank, pick.end());
  return pick[rank];
}

namespace detail {

// Reorders a[0, n) into [< v | = v | > v] along `dim`, each part in its
// old order, through scratch[0, n); returns where the = v and the > v parts
// start.
template <class T>
std::pair<std::size_t, std::size_t> partition3(T* a, std::size_t n, int dim,
                                               double v, T* scratch) {
  const auto start = par::counting_scatter(
      n, 3, [a](std::size_t i) { return a[i]; },
      [dim, v](const T& x) { return int{x[dim] >= v} + int{x[dim] > v}; },
      scratch);
  par::parallel_for(0, n, [&](std::size_t i) { a[i] = scratch[i]; });
  return {start[1], start[2]};
}

}  // namespace detail

/// Splits a[0, n) along `dim` by `policy` (see the header comment).
/// scratch: n slots, used only above kParallelSplitCutoff.
template <class T>
cut split(T* a, std::size_t n, int dim, split_policy policy, T* scratch) {
  if (n == 0) return {0, 0.0};
  const bool parallel = n > kParallelSplitCutoff;
  if (policy == split_policy::spatial_median) {
    const auto [mn, mx] = detail::extent(a, n, dim);
    const double pivot = 0.5 * (mn + mx);
    // mn < pivot <= mx: both sides keep at least one point.
    if (mn < pivot && parallel) {
      return {detail::partition3(a, n, dim, pivot, scratch).first, pivot};
    }
    if (mn < pivot) {
      const T* const below_end = std::partition(
          a, a + n, [&](const T& x) { return x[dim] < pivot; });
      return {static_cast<std::size_t>(below_end - a), pivot};
    }
  }
  const std::size_t mid = n / 2;
  if (parallel) {
    const double v = order_statistic(a, n, mid, dim);
    detail::partition3(a, n, dim, v, scratch);
    return {mid, v};
  }
  std::nth_element(a, a + mid, a + n, [dim](const T& x, const T& y) {
    return x[dim] < y[dim];
  });
  return {mid, a[mid][dim]};
}

namespace detail {

// Builds the subtree over a[lo, hi) whose root takes `slot`; returns the
// slot after the subtree's.
template <class T, class P, class Open, class Link, class Close>
std::size_t build_range(T* a, T* scratch, std::size_t lo, std::size_t hi,
                        split_policy policy, P at, std::size_t slot,
                        Open& open, Link& link, Close& close) {
  const int dim = open(at, slot, lo, hi);
  if (dim < 0) return slot + 1;
  const std::size_t n = hi - lo;
  const cut c = split(a + lo, n, dim, policy,
                      scratch == nullptr ? nullptr : scratch + lo);
  const std::size_t mid = lo + c.at;
  const std::pair<P, P> kids = link(at, dim, c.value);
  const auto half = [&](std::size_t from, std::size_t to, P place,
                        std::size_t first) {
    return build_range(a, scratch, from, to, policy, place, first, open,
                       link, close);
  };
  std::size_t end = slot + 2 * n - 1;  // past the node's block
  if (n > kForkCutoff) {
    par::par_do([&] { half(lo, mid, kids.first, slot + 1); },
                [&] { half(mid, hi, kids.second, slot + 2 * c.at); });
  } else {
    end = half(mid, hi, kids.second, half(lo, mid, kids.first, slot + 1));
  }
  close(at);
  return end;
}

}  // namespace detail

/// Builds a tree over a[0, n), permuting it so that every node covers a
/// contiguous range. The tree records its nodes through three hooks, given
/// the place `at` of a node (the root's is `root`):
///   int open(P at, std::size_t slot, lo, hi)
///                            records the node over a[lo, hi) at `slot`
///                            (*Slots*); returns the dimension to split it
///                            along, or -1 (a leaf);
///   std::pair<P, P> link(P at, int dim, double value)
///                            records its split; returns its children's
///                            places;
///   void close(P at)         runs once both children are built.
/// Hooks of different subtrees run concurrently.
template <class T, class P, class Open, class Link, class Close>
void build(T* a, std::size_t n, split_policy policy, P root, Open open,
           Link link, Close close) {
  raw_buffer<T> scratch(n > kParallelSplitCutoff ? n : 0);
  detail::build_range(a, scratch.size() > 0 ? scratch.data() : nullptr, 0, n,
                      policy, root, 0, open, link, close);
}

}  // namespace pargeo::kdtree
