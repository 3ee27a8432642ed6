// Parallel comparison sort: recursive merge sort with out-of-place merges,
// falling back to std::sort below the grain. Stable. Also the order of
// indices by 64-bit keys (`key_order`), by buckets instead of merges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "parallel/primitives.h"
#include "parallel/scheduler.h"

namespace pargeo::par {

namespace detail {

inline constexpr std::size_t kSortGrain = 1 << 13;

// Stable merge of [l1,h1) and [l2,h2) into out. Splits the longer run at
// its middle so that both recursive calls are smaller, and cuts the other
// run so that equal elements of the first run stay ahead of those of the
// second: at lower_bound when the first run is split, at upper_bound when
// the second is.
template <class It, class OutIt, class Cmp>
void par_merge(It l1, It h1, It l2, It h2, OutIt out, Cmp cmp) {
  const std::size_t n1 = h1 - l1, n2 = h2 - l2;
  if (n1 + n2 <= kSortGrain) {
    std::merge(l1, h1, l2, h2, out, cmp);
    return;
  }
  It m1 = l1, m2 = l2;
  if (n1 >= n2) {
    m1 = l1 + n1 / 2;
    m2 = std::lower_bound(l2, h2, *m1, cmp);
  } else {
    m2 = l2 + n2 / 2;
    m1 = std::upper_bound(l1, h1, *m2, cmp);
  }
  OutIt outMid = out + (m1 - l1) + (m2 - l2);
  par_do([&] { par_merge(l1, m1, l2, m2, out, cmp); },
         [&] { par_merge(m1, h1, m2, h2, outMid, cmp); });
}

// Sorts [lo,hi); result lands in [lo,hi) when inplace, else in buf.
template <class It, class BufIt, class Cmp>
void merge_sort_rec(It lo, It hi, BufIt buf, bool toBuf, Cmp cmp) {
  const std::size_t n = hi - lo;
  if (n <= kSortGrain) {
    std::stable_sort(lo, hi, cmp);
    if (toBuf) std::move(lo, hi, buf);
    return;
  }
  It mid = lo + n / 2;
  BufIt bufMid = buf + n / 2;
  par_do([&] { merge_sort_rec(lo, mid, buf, !toBuf, cmp); },
         [&] { merge_sort_rec(mid, hi, bufMid, !toBuf, cmp); });
  if (toBuf) {
    par_merge(lo, mid, mid, hi, buf, cmp);
  } else {
    par_merge(buf, bufMid, bufMid, buf + n, lo, cmp);
  }
}

}  // namespace detail

/// Parallel stable sort of [lo, hi) with comparator cmp.
template <class It, class Cmp>
void sort(It lo, It hi, Cmp cmp) {
  using T = typename std::iterator_traits<It>::value_type;
  const std::size_t n = hi - lo;
  if (n <= detail::kSortGrain || num_workers() == 1) {
    std::stable_sort(lo, hi, cmp);
    return;
  }
  std::vector<T> buf(n);
  detail::merge_sort_rec(lo, hi, buf.begin(), false, cmp);
}

template <class It>
void sort(It lo, It hi) {
  pargeo::par::sort(
      lo, hi, std::less<typename std::iterator_traits<It>::value_type>{});
}

template <class T, class Cmp>
void sort(std::vector<T>& v, Cmp cmp) {
  pargeo::par::sort(v.begin(), v.end(), cmp);
}

template <class T>
void sort(std::vector<T>& v) {
  pargeo::par::sort(v.begin(), v.end());
}

/// The indices [0, n) in the order of their (key(i), i) pairs, key(i) a
/// uint64_t: sorted by key, ties by index. A stable counting scatter
/// buckets the pairs by their keys' top bits and each bucket is sorted on
/// its own, which orders the pairs as one sort would (the top bits order
/// the keys) for a fraction of its work. Keys that share their top bits
/// (equal or clustered keys) fill one bucket; a bucket past the sort grain
/// gets the parallel sort, so no input falls back to one sequential sort.
/// key(i) runs twice per index, so it should be cheap: a hash, or a load
/// from keys computed beforehand.
template <class Key>
std::vector<std::size_t> key_order(std::size_t n, Key key) {
  struct key_idx {
    std::uint64_t key;
    std::size_t idx;
    bool operator<(const key_idx& o) const {
      return key < o.key || (key == o.key && idx < o.idx);
    }
  };
  // 256-511 pairs a bucket, within 2 buckets (so the shift below stays under
  // 64) and 2^11 (so that a block's scatter writes to few enough runs at a
  // time).
  int bits = 1;
  while (bits < 11 && (n >> (bits + 9)) > 0) ++bits;
  std::vector<key_idx> ki(n);
  const std::vector<std::size_t> start = counting_scatter(
      n, std::size_t{1} << bits,
      [&key](std::size_t i) { return key_idx{key(i), i}; },
      [bits](const key_idx& x) { return x.key >> (64 - bits); }, ki.data());
  std::vector<std::size_t> out(n);
  parallel_for(
      0, start.size() - 1,
      [&](std::size_t b) {
        const auto lo = ki.begin() + start[b], hi = ki.begin() + start[b + 1];
        if (start[b + 1] - start[b] > detail::kSortGrain) {
          pargeo::par::sort(lo, hi);
        } else {
          std::sort(lo, hi);
        }
        for (std::size_t i = start[b]; i < start[b + 1]; ++i) {
          out[i] = ki[i].idx;
        }
      },
      8);
  return out;
}

}  // namespace pargeo::par
