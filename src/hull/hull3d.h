// 3D convex hull algorithms (paper §3).
//
// Methods benchmarked in Figure 9:
//   * sequential_quickhull   — optimized sequential quickhull with conflict
//     lists; stands in for the CGAL / Qhull baselines.
//   * randinc                — parallel reservation-based randomized
//     incremental algorithm (paper's first parallel implementation).
//   * reservation_quickhull  — parallel quickhull via the same reservation
//     machinery (furthest-point batches).
//   * divide_conquer         — block divide-and-conquer.
//   * pseudohull             — Tang et al.'s point-culling heuristic with a
//     recursion threshold, finished by reservation_quickhull (paper §3).
//
// Facets are returned with outward orientation: for every facet (a, b, c),
// all input points p satisfy orient3d(a, b, c, p) <= 0.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/point.h"

namespace pargeo::hull3d {

/// Triangle mesh output: each facet is a triple of input-point indices.
struct mesh {
  std::vector<std::array<std::size_t, 3>> facets;
};

/// Instrumentation counters for the Figure 12 reservation-overhead study.
struct stats {
  std::size_t points_touched = 0;  // conflict points (re)distributed
  std::size_t facets_touched = 0;  // visible facets scanned/reserved
};

mesh sequential_quickhull(const std::vector<point<3>>& pts,
                          stats* st = nullptr);

/// Reservation-based parallel randomized incremental hull. Every outside
/// point sits in the conflict list of one facet it sees. Each round a batch
/// of c * numProc points reserves its visible facets and their ring; the
/// winners replace their regions by fans, and only the points in the lists
/// of the facets they killed move: each tests the fan, then the ring, of
/// the winner that killed its facet, and is dropped as interior if it sees
/// neither. The rounds, and so `st`, depend on c * numProc and the seed
/// only, not on the schedule.
mesh randinc(const std::vector<point<3>>& pts, std::size_t batch_factor = 8,
             uint64_t seed = 1, stats* st = nullptr);

/// The same reservation rounds and conflict lists as randinc, with batches
/// of the furthest point of each facet's list (ties to the smaller index,
/// as in sequential_quickhull), smallest index first.
mesh reservation_quickhull(const std::vector<point<3>>& pts,
                           std::size_t batch_factor = 8,
                           stats* st = nullptr);

mesh divide_conquer(const std::vector<point<3>>& pts,
                    std::size_t block_factor = 4);

/// Pseudohull point culling; `threshold` is the facet point-count below
/// which recursion stops (prevents stack overflow on skewed data, paper §3).
mesh pseudohull(const std::vector<point<3>>& pts,
                std::size_t threshold = 64);

/// Sorted unique vertex indices of a hull mesh.
std::vector<std::size_t> hull_vertices(const mesh& m);

/// Number of points remaining after pseudohull culling (exposed for the
/// Figure 9 discussion of output-size effects); runs culling only.
std::size_t pseudohull_survivors(const std::vector<point<3>>& pts,
                                 std::size_t threshold = 64);

}  // namespace pargeo::hull3d
