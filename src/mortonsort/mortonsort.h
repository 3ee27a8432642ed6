// Morton (Z-order) sorting of point sets (paper Module 2).
//
// Coordinates are quantized onto a 2^b grid over the bounding box with
// b = 64/D bits per dimension and interleaved into a 64-bit key; the
// (key, index) pairs are ordered by par::key_order. Morton order is also
// used by the Delaunay module (insertion locality), the Zd-tree, and every
// batch k-NN (`parallel_for_each`).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/point.h"
#include "parallel/scheduler.h"

namespace pargeo::mortonsort {

namespace detail {

// Moves bit b of the low 32 bits of x to bit 2b.
constexpr uint64_t spread2(uint64_t x) {
  x &= 0x00000000ffffffffull;
  x = (x | x << 16) & 0x0000ffff0000ffffull;
  x = (x | x << 8) & 0x00ff00ff00ff00ffull;
  x = (x | x << 4) & 0x0f0f0f0f0f0f0f0full;
  x = (x | x << 2) & 0x3333333333333333ull;
  x = (x | x << 1) & 0x5555555555555555ull;
  return x;
}

// Moves bit b of the low 21 bits of x to bit 3b.
constexpr uint64_t spread3(uint64_t x) {
  x &= 0x00000000001fffffull;
  x = (x | x << 32) & 0x001f00000000ffffull;
  x = (x | x << 16) & 0x001f0000ff0000ffull;
  x = (x | x << 8) & 0x100f00f00f00f00full;
  x = (x | x << 4) & 0x10c30c30c30c30c3ull;
  x = (x | x << 2) & 0x1249249249249249ull;
  return x;
}

}  // namespace detail

/// Interleaves the low 64/D bits of each quantized coordinate into a code:
/// bit b of q[d] becomes bit D*b + (D - 1 - d), so the highest bits of
/// q[0], ..., q[D - 1] lead. D = 2 and 3 spread each coordinate with a
/// mask-and-shift ladder; other D place the bits one at a time.
template <int D>
constexpr uint64_t interleave(const std::array<uint64_t, D>& q) {
  if constexpr (D == 2) {
    return detail::spread2(q[0]) << 1 | detail::spread2(q[1]);
  } else if constexpr (D == 3) {
    return detail::spread3(q[0]) << 2 | detail::spread3(q[1]) << 1 |
           detail::spread3(q[2]);
  } else {
    uint64_t code = 0;
    for (int b = 64 / D - 1; b >= 0; --b) {
      for (int d = 0; d < D; ++d) code = (code << 1) | ((q[d] >> b) & 1u);
    }
    return code;
  }
}

/// Morton code of p within bounding box [lo, hi] (per-dimension).
template <int D>
uint64_t morton_code(const point<D>& p, const point<D>& lo,
                     const point<D>& hi);

/// Morton codes of all points over their common bounding box (parallel).
template <int D>
std::vector<uint64_t> morton_codes(const std::vector<point<D>>& pts);

/// Indices of pts in Morton order (stable for equal codes).
template <int D>
std::vector<std::size_t> morton_order(const std::vector<point<D>>& pts);

/// Points reordered into Morton order.
template <int D>
std::vector<point<D>> morton_sort(const std::vector<point<D>>& pts);

/// Batches of fewer points than this run in input order: their queries lie
/// too far apart to share cache lines, and ordering them costs more than it
/// saves. On a 1M-point uniform BDL-tree (k = 8, 1 worker; 4-vCPU shared
/// VM, gcc -O3), ordering added 1.2 us to a 1-query batch, broke even at
/// 16-64 queries, and saved 7% a query at 256, 15-17% at 1,024 and 22-25%
/// at 16,384.
inline constexpr std::size_t kOrderedBatchMin = 256;

/// par::parallel_for over [0, pts.size()) that visits the indices in
/// morton_order, so that the calls one worker makes in a row see nearby
/// points: a batch of tree queries then finds most of the nodes it walks
/// in cache. f(i) must write only to the result slot of index i, so that
/// results stay in input order. Batches below kOrderedBatchMin run in
/// input order.
template <int D, class F>
void parallel_for_each(const std::vector<point<D>>& pts, F f,
                       std::size_t grain) {
  if (pts.size() < kOrderedBatchMin) {
    par::parallel_for(0, pts.size(), f, grain);
    return;
  }
  const std::vector<std::size_t> order = morton_order<D>(pts);
  par::parallel_for(
      0, order.size(), [&](std::size_t j) { f(order[j]); }, grain);
}

}  // namespace pargeo::mortonsort
