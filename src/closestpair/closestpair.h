// Closest pair and bichromatic closest pair (paper Module 2).
//
// The closest pair is computed via data-parallel 2-nearest-neighbor
// queries over the kd-tree (the closest pair is realized at some point's
// nearest neighbor). The bichromatic closest pair (BCCP) uses a dual-tree
// branch-and-bound traversal; the same primitive computes the BCCP of two
// nodes of one tree, which the EMST module calls for the WSPD pairs its
// rounds cannot prune.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "kdtree/kdtree.h"

namespace pargeo::closestpair {

struct pair_result {
  std::size_t i = 0;  // index into the first point set
  std::size_t j = 0;  // index into the second (same set for closest_pair)
  double dist_sq = std::numeric_limits<double>::infinity();
};

/// Closest pair of distinct indices in `pts` (n >= 2). Distinct points at
/// distance 0 (duplicates) are valid results.
template <int D>
pair_result closest_pair(const std::vector<point<D>>& pts);

/// Closest pair (a, b) with a drawn from `red` and b from `blue`.
template <int D>
pair_result bichromatic_closest_pair(const std::vector<point<D>>& red,
                                     const std::vector<point<D>>& blue);

/// BCCP between the point ranges of two nodes of one tree, given by slot.
/// Returns original input-point indices. Sequential (callers parallelize
/// across node pairs).
template <int D>
pair_result bccp_nodes(const kdtree::tree<D>& t, std::uint32_t a,
                       std::uint32_t b);

}  // namespace pargeo::closestpair
