// 2D convex hull algorithms (paper §3).
//
// Provides the methods benchmarked in Figure 8:
//   * sequential_quickhull  — optimized sequential quickhull; stands in for
//     the paper's CGAL / Qhull baselines, which this library does not link.
//   * quickhull             — parallel recursive quickhull (PBBS-style).
//   * randinc               — parallel reservation-based randomized
//     incremental algorithm.
//   * divide_conquer        — block divide-and-conquer calling the
//     parallel quickhull on the union of block hulls.
//
// All functions return the hull as input-point indices in counter-clockwise
// order starting from the lexicographically smallest hull vertex.
#pragma once

#include <cstddef>
#include <vector>

#include "core/point.h"

namespace pargeo::hull2d {

std::vector<std::size_t> sequential_quickhull(
    const std::vector<point<2>>& pts);

std::vector<std::size_t> quickhull(const std::vector<point<2>>& pts);

/// Reservation-based parallel randomized incremental algorithm.
/// `batch_factor` is the paper's constant c: round batch = c * numProc.
/// Re-homing is winner-local: a point whose edge died tests only the two
/// new edges, then the two ring edges, of the winner that killed it, and
/// is dropped as interior if it sees none.
std::vector<std::size_t> randinc(const std::vector<point<2>>& pts,
                                 std::size_t batch_factor = 8,
                                 uint64_t seed = 1);

/// Reservation-based parallel quickhull (furthest-point batches), with the
/// same winner-local re-homing as randinc.
std::vector<std::size_t> reservation_quickhull(
    const std::vector<point<2>>& pts, std::size_t batch_factor = 8);

/// Divide-and-conquer: c*numProc blocks solved sequentially in parallel,
/// union of block hull vertices solved by the parallel algorithm.
std::vector<std::size_t> divide_conquer(const std::vector<point<2>>& pts,
                                        std::size_t block_factor = 4);

}  // namespace pargeo::hull2d
