// Well-separated pair decomposition (Callahan–Kosaraju) over the kd-tree
// (paper Module 2). Used by the EMST, spanner, and clustering pipelines.
//
// Two tree nodes are s-well-separated when the distance between their
// bounding boxes is at least s times the larger box radius (half-diameter).
// The decomposition covers every unordered point pair exactly once.
//
// The recursion that finds the pairs exists once, as `traverse`. Its
// callers steer it through hooks, as ParGeo's own wspd.h does: `decompose`
// keeps every pair, and the EMST's rounds prune the recursion by
// connectivity and distance and act on the pairs it still reaches. Pairs
// and hooks name nodes by slot (`tree::node_at`).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kdtree/kdtree.h"
#include "parallel/parallel.h"

namespace pargeo::wspd {

/// Two nodes of a tree, by slot.
struct node_pair {
  std::uint32_t a, b;
};

template <int D>
bool well_separated(const kdtree::tree<D>& t, std::uint32_t a,
                    std::uint32_t b, double s) {
  const aabb<D>& ba = t.node_at(a).box;
  const aabb<D>& bb = t.node_at(b).box;
  const double r_sq = std::max(ba.diameter_sq(), bb.diameter_sq()) / 4.0;
  return ba.dist_sq(bb) >= s * s * r_sq;
}

namespace detail {

// Recursions over more points than this fork; smaller ones run
// sequentially.
inline constexpr std::size_t kForkPoints = 8192;

// Runs first(out) and second(out) in parallel with the result of running
// them in sequence: second writes a private vector appended afterwards.
template <class T, class F, class G>
void fork_in_order(std::vector<T>& out, F first, G second) {
  std::vector<T> tail;
  par::par_do([&] { first(out); }, [&] { second(tail); });
  out.insert(out.end(), tail.begin(), tail.end());
}

template <int D, class Hooks, class T>
void find_pairs(const kdtree::tree<D>& t, std::uint32_t a, std::uint32_t b,
                double s, Hooks& h, std::vector<T>& out) {
  if (!h.moveon(a, b)) return;
  if (well_separated<D>(t, a, b, s)) {
    h.run(a, b, out);
    return;
  }
  // Split the node with the larger diameter (leaves cannot be split).
  const auto& na = t.node_at(a);
  const auto& nb = t.node_at(b);
  const bool split_b =
      na.is_leaf() ||
      (!nb.is_leaf() && nb.box.diameter_sq() > na.box.diameter_sq());
  const auto& split = split_b ? nb : na;
  const std::uint32_t other = split_b ? a : b;
  if (split.is_leaf()) {
    // Two non-separated leaves (duplicate or near-duplicate points): emit
    // the leaf pair as a unit so the decomposition still covers every
    // point pair exactly once.
    h.run(a, b, out);
    return;
  }
  auto left = [&](std::vector<T>& o) {
    find_pairs<D>(t, split.left, other, s, h, o);
  };
  auto right = [&](std::vector<T>& o) {
    find_pairs<D>(t, split.right, other, s, h, o);
  };
  if (na.size() + nb.size() > kForkPoints) {
    fork_in_order(out, left, right);
  } else {
    left(out);
    right(out);
  }
}

template <int D, class Hooks, class T>
void node_pairs(const kdtree::tree<D>& t, std::uint32_t at, double s,
                Hooks& h, std::vector<T>& out) {
  if (!h.start(at)) return;
  const auto& nd = t.node_at(at);
  if (nd.is_leaf()) {
    // Unsplittable multi-point leaf: a self-pair covering its internal
    // point pairs (see decompose).
    if (nd.size() > 1) h.run(at, at, out);
    return;
  }
  auto left = [&](std::vector<T>& o) { node_pairs<D>(t, nd.left, s, h, o); };
  auto right = [&](std::vector<T>& o) {
    node_pairs<D>(t, nd.right, s, h, o);
  };
  auto cross = [&](std::vector<T>& o) {
    find_pairs<D>(t, nd.left, nd.right, s, h, o);
  };
  if (nd.size() > kForkPoints) {
    fork_in_order(out, left, [&](std::vector<T>& o) {
      fork_in_order(o, right, cross);
    });
  } else {
    left(out);
    right(out);
    cross(out);
  }
}

}  // namespace detail

/// The s-WSPD recursion over `t`, steered by three hooks on `h`, which
/// may be called concurrently from several workers and name nodes by slot:
///   - `bool start(nd)`: false skips every pair inside node nd;
///   - `bool moveon(a, b)`: false skips the pair (a, b) and every pair
///     between their descendants, so return false only when none of those
///     is wanted either (prunes on connectivity or box distance qualify:
///     going down, box distances only grow and box spans only shrink);
///   - `void run(a, b, out)`: receives each pair the recursion reaches and
///     may append to `out`.
/// `out` ends up as if the recursion had run sequentially: node pairs of a
/// node's left subtree, of its right subtree, then across the two.
template <int D, class Hooks, class T>
void traverse(const kdtree::tree<D>& t, double s, Hooks& h,
              std::vector<T>& out) {
  detail::node_pairs<D>(t, kdtree::kRoot, s, h, out);
}

/// Computes the s-WSPD of the tree's point set. Parallel recursion; the
/// result order is deterministic (traverse's order).
///
/// Leaves are not split further, so (a) a leaf holding more than one point
/// yields a *self-pair* (a == b) covering its internal point pairs, and
/// (b) two non-separated leaves (duplicate or near-duplicate points) are
/// emitted as a regular pair even though they violate the separation
/// criterion. Build the tree with leaf_size = 1 for a textbook WSPD.
template <int D>
std::vector<node_pair> decompose(const kdtree::tree<D>& t, double s = 2.0);

/// A t-spanner edge set from the WSPD: one representative edge per pair
/// (indices are the tree's original input-point ids). Guarantees spanning
/// ratio t for t > 1.
template <int D>
std::vector<std::pair<std::size_t, std::size_t>> spanner(
    const kdtree::tree<D>& t, double stretch);

}  // namespace pargeo::wspd
