// Structure checks for the two static kd-trees, shared by their own suites
// and the builder's worker-count suite (test_tree_build.cpp).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bdltree/veb_tree.h"
#include "kdtree/kdtree.h"

namespace pargeo::testutil {

/// Every node's box contains its points; children partition the range and
/// are non-empty.
template <int D>
void check_structure(const kdtree::tree<D>& t) {
  std::vector<const typename kdtree::tree<D>::node*> stack{t.root()};
  while (!stack.empty()) {
    const auto* nd = stack.back();
    stack.pop_back();
    for (std::size_t i = nd->lo; i < nd->hi; ++i) {
      ASSERT_TRUE(nd->box.contains(t.point_at(i)));
    }
    if (!nd->is_leaf()) {
      ASSERT_EQ(nd->left->lo, nd->lo);
      ASSERT_EQ(nd->left->hi, nd->right->lo);
      ASSERT_EQ(nd->right->hi, nd->hi);
      ASSERT_GT(nd->left->size(), 0u);
      ASSERT_GT(nd->right->size(), 0u);
      stack.push_back(nd->left);
      stack.push_back(nd->right);
    }
  }
}

/// Walks a vEB tree's child links from the root and checks every internal
/// node: distinct in-range children whose point ranges split the parent's
/// and whose boxes lie inside the parent's. Every node must be reached
/// exactly once, every leaf at the same depth, and the leaves must tile
/// [0, n) in order. Returns the number of levels.
inline int expect_sound_links(const bdltree::veb_tree<2>& t, std::size_t n) {
  using node2 = bdltree::veb_tree<2>::node;
  std::vector<int> visits(t.num_nodes(), 0);
  std::vector<std::pair<std::uint32_t, int>> stack{{0, 1}};
  std::vector<const node2*> leaves;
  int leafDepth = -1;
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    EXPECT_LT(idx, t.num_nodes());
    if (idx >= t.num_nodes()) continue;
    ++visits[idx];
    const node2& nd = t.node_at(idx);
    EXPECT_LE(nd.lo, nd.hi);
    EXPECT_EQ(nd.live, nd.hi - nd.lo);
    if (nd.split_dim < 0) {
      if (leafDepth < 0) leafDepth = depth;
      EXPECT_EQ(depth, leafDepth) << "leaf " << idx;
      leaves.push_back(&nd);
      continue;
    }
    EXPECT_NE(nd.left, nd.right);
    EXPECT_NE(nd.left, idx);
    EXPECT_NE(nd.right, idx);
    if (nd.left >= t.num_nodes() || nd.right >= t.num_nodes()) {
      ADD_FAILURE() << "child index out of range at node " << idx;
      continue;
    }
    const node2& l = t.node_at(nd.left);
    const node2& r = t.node_at(nd.right);
    EXPECT_EQ(l.lo, nd.lo);
    EXPECT_EQ(l.hi, r.lo);
    EXPECT_EQ(r.hi, nd.hi);
    EXPECT_TRUE(l.box.inside(nd.box)) << "node " << idx;
    EXPECT_TRUE(r.box.inside(nd.box)) << "node " << idx;
    // Push right first so leaves pop left to right.
    stack.push_back({nd.right, depth + 1});
    stack.push_back({nd.left, depth + 1});
  }
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << "node " << i;
  }
  std::uint32_t next = 0;
  for (const node2* leaf : leaves) {
    EXPECT_EQ(leaf->lo, next);
    next = leaf->hi;
  }
  EXPECT_EQ(next, n);
  return leafDepth;
}

}  // namespace pargeo::testutil
