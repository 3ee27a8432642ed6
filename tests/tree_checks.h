// The structure check of the two static kd-trees, which share one node
// format (kdtree/node.h); used by their own suites and the builder's
// worker-count suite (test_tree_build.cpp).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "kdtree/node.h"

namespace pargeo::testutil {

/// Walks a static kd-tree (`kdtree::tree` or `bdltree::veb_tree`) of n
/// points, whose node slots lie below `slots`, from its root, and checks:
/// every link is in range and every node is reached once; the children
/// split their parent's range, both non-empty when it holds two or more
/// points, and their boxes lie inside its box; a leaf's box holds its
/// points; every live count is its range's size (nothing erased); and the
/// leaves tile [0, n) in order. Returns the leaves' depths (the root's is
/// 1), left to right.
template <class Tree>
std::vector<int> check_nodes(const Tree& t, std::size_t slots,
                             std::size_t n) {
  std::vector<int> visits(slots, 0);
  std::vector<std::pair<std::uint32_t, int>> stack{{kdtree::kRoot, 1}};
  std::vector<int> depths;
  std::uint32_t next = 0;  // where the next leaf must start
  while (!stack.empty()) {
    const auto [at, depth] = stack.back();
    stack.pop_back();
    if (at >= slots) {
      ADD_FAILURE() << "link to slot " << at << " out of range";
      continue;
    }
    if (++visits[at] > 1) {
      ADD_FAILURE() << "slot " << at << " reached twice";
      continue;
    }
    const auto& nd = t.node_at(at);
    EXPECT_LE(nd.lo, nd.hi) << "slot " << at;
    EXPECT_EQ(nd.live, nd.hi - nd.lo) << "slot " << at;
    if (nd.is_leaf()) {
      EXPECT_EQ(nd.lo, next) << "slot " << at;
      next = nd.hi;
      for (std::uint32_t i = nd.lo; i < nd.hi; ++i) {
        EXPECT_TRUE(nd.box.contains(t.point_at(i))) << "slot " << at;
      }
      depths.push_back(depth);
      continue;
    }
    if (nd.left >= slots || nd.right >= slots) {
      ADD_FAILURE() << "child link out of range at slot " << at;
      continue;
    }
    const auto& l = t.node_at(nd.left);
    const auto& r = t.node_at(nd.right);
    EXPECT_EQ(l.lo, nd.lo) << "slot " << at;
    EXPECT_EQ(l.hi, r.lo) << "slot " << at;
    EXPECT_EQ(r.hi, nd.hi) << "slot " << at;
    if (nd.size() >= 2) {
      EXPECT_GT(l.size(), 0u) << "slot " << at;
      EXPECT_GT(r.size(), 0u) << "slot " << at;
    }
    EXPECT_TRUE(l.box.inside(nd.box)) << "slot " << at;
    EXPECT_TRUE(r.box.inside(nd.box)) << "slot " << at;
    // Push right first so leaves pop left to right.
    stack.push_back({nd.right, depth + 1});
    stack.push_back({nd.left, depth + 1});
  }
  EXPECT_EQ(next, n);
  return depths;
}

}  // namespace pargeo::testutil
