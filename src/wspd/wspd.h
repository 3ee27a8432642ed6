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
// connectivity and distance and act on the pairs it still reaches.
#pragma once

#include <cstddef>
#include <vector>

#include "kdtree/kdtree.h"
#include "parallel/parallel.h"

namespace pargeo::wspd {

template <int D>
struct node_pair {
  const typename kdtree::tree<D>::node* a;
  const typename kdtree::tree<D>::node* b;
};

template <int D>
bool well_separated(const typename kdtree::tree<D>::node* a,
                    const typename kdtree::tree<D>::node* b, double s) {
  const double ra_sq = a->box.diameter_sq() / 4.0;
  const double rb_sq = b->box.diameter_sq() / 4.0;
  const double r_sq = std::max(ra_sq, rb_sq);
  return a->box.dist_sq(b->box) >= s * s * r_sq;
}

namespace detail {

template <int D>
using node_t = typename kdtree::tree<D>::node;

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
void find_pairs(const node_t<D>* a, const node_t<D>* b, double s, Hooks& h,
                std::vector<T>& out) {
  if (!h.moveon(a, b)) return;
  if (well_separated<D>(a, b, s)) {
    h.run(a, b, out);
    return;
  }
  // Split the node with the larger diameter (leaves cannot be split).
  const node_t<D>* split = a;
  const node_t<D>* other = b;
  if (a->is_leaf() ||
      (!b->is_leaf() && b->box.diameter_sq() > a->box.diameter_sq())) {
    split = b;
    other = a;
  }
  if (split->is_leaf()) {
    // Two non-separated leaves (duplicate or near-duplicate points): emit
    // the leaf pair as a unit so the decomposition still covers every
    // point pair exactly once.
    h.run(a, b, out);
    return;
  }
  auto left = [&](std::vector<T>& o) {
    find_pairs<D>(split->left, other, s, h, o);
  };
  auto right = [&](std::vector<T>& o) {
    find_pairs<D>(split->right, other, s, h, o);
  };
  if (split->size() + other->size() > kForkPoints) {
    fork_in_order(out, left, right);
  } else {
    left(out);
    right(out);
  }
}

template <int D, class Hooks, class T>
void node_pairs(const node_t<D>* nd, double s, Hooks& h, std::vector<T>& out) {
  if (!h.start(nd)) return;
  if (nd->is_leaf()) {
    // Unsplittable multi-point leaf: a self-pair covering its internal
    // point pairs (see decompose).
    if (nd->size() > 1) h.run(nd, nd, out);
    return;
  }
  auto left = [&](std::vector<T>& o) { node_pairs<D>(nd->left, s, h, o); };
  auto right = [&](std::vector<T>& o) { node_pairs<D>(nd->right, s, h, o); };
  auto cross = [&](std::vector<T>& o) {
    find_pairs<D>(nd->left, nd->right, s, h, o);
  };
  if (nd->size() > kForkPoints) {
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
/// may be called concurrently from several workers:
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
  detail::node_pairs<D>(t.root(), s, h, out);
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
std::vector<node_pair<D>> decompose(const kdtree::tree<D>& t,
                                    double s = 2.0);

/// A t-spanner edge set from the WSPD: one representative edge per pair
/// (indices are the tree's original input-point ids). Guarantees spanning
/// ratio t for t > 1.
template <int D>
std::vector<std::pair<std::size_t, std::size_t>> spanner(
    const kdtree::tree<D>& t, double stretch);

}  // namespace pargeo::wspd
