// Euclidean minimum spanning tree via WSPD + Kruskal (paper Module 3), in
// the rounds of MemoGFK (Wang, Yu, Gu and Shun, SIGMOD 2021).
//
// For separation s >= 2 the EMST is a subset of the BCCP edges of the
// WSPD pairs (Callahan–Kosaraju). Rather than computing one BCCP per pair,
// each round over the leaf-size-1 kd-tree (1) takes as its upper bound
// rho_hi the smallest box distance of an unconnected pair with more than
// beta points, (2) walks the WSPD recursion again (wspd::traverse),
// skipping pairs already connected, at box distance >= rho_hi, or whose
// farthest points are closer than rho_lo, and computes BCCPs (in
// parallel) for the rest, (3) sorts the edges with weight in
// [rho_lo, rho_hi) and runs Kruskal on them, and (4) labels every tree
// node whose points share one component, sets rho_lo = rho_hi and doubles
// beta. Once beta >= n, rho_hi is infinite and the round completes the
// tree, so there are at most ceil(log2 n) + 1 rounds.
#pragma once

#include <cstddef>
#include <vector>

#include "core/point.h"

namespace pargeo::emst {

struct edge {
  std::size_t u, v;  // u < v
  double weight;     // Euclidean distance
};

/// EMST edges (n-1 of them for n >= 2; duplicate points yield zero-weight
/// edges), sorted by weight with ties broken by (u, v). The result does
/// not depend on the number of workers.
template <int D>
std::vector<edge> emst(const std::vector<point<D>>& pts);

/// Sum of EMST edge weights.
double total_weight(const std::vector<edge>& edges);

}  // namespace pargeo::emst
