// Parallel comparison sort: recursive merge sort with out-of-place merges,
// falling back to std::sort below the grain. Stable.
#pragma once

#include <algorithm>
#include <iterator>
#include <vector>

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

}  // namespace pargeo::par
