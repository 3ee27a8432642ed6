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
/// Every outside point sits in the conflict list of one hull edge it sees.
/// A round's winners replace their visible arcs by two new edges each, and
/// only the points in the lists of the edges they killed move: each tests
/// the two new edges, then the two ring edges, of the winner that killed
/// its edge, and is dropped as interior if it sees none. The rounds depend
/// on c * numProc and the seed only, not on the schedule.
std::vector<std::size_t> randinc(const std::vector<point<2>>& pts,
                                 std::size_t batch_factor = 8,
                                 uint64_t seed = 1);

/// Reservation-based parallel quickhull: the same rounds and conflict
/// lists as randinc, with batches of the furthest point of each edge's
/// list (ties as in sequential_quickhull), smallest index first.
std::vector<std::size_t> reservation_quickhull(
    const std::vector<point<2>>& pts, std::size_t batch_factor = 8);

/// Divide-and-conquer: c*numProc blocks solved sequentially in parallel,
/// union of block hull vertices solved by the parallel algorithm.
std::vector<std::size_t> divide_conquer(const std::vector<point<2>>& pts,
                                        std::size_t block_factor = 4);

}  // namespace pargeo::hull2d
