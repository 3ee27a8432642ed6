// The builder both static kd-trees share (kdtree/build.h), at 1, 2 and 4
// workers on degenerate input past the parallel-split cutoff: the same
// tree at every worker count, every node at the same slot, and the same
// WSPD node pairs in the same order; the split contract at every node, the
// parallel split against the sequential selection it replaces, k-NN
// against brute force, and node arrays that start on a cache line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bdltree/veb_tree.h"
#include "datagen/datagen.h"
#include "kdtree/build.h"
#include "kdtree/kdtree.h"
#include "test_util.h"
#include "tree_checks.h"
#include "wspd/wspd.h"

using namespace pargeo;
using kdtree::split_policy;

namespace {

using P = point<2>;

// Past kParallelSplitCutoff, so the root takes the parallel split.
constexpr std::size_t kN = kdtree::kParallelSplitCutoff + 9000;
constexpr int kWorkers[] = {1, 2, 4};

struct input {
  const char* name;
  std::vector<P> pts;
};

std::vector<input> inputs() {
  std::vector<input> in;
  auto up = datagen::uniform<2>(kN, 91);
  in.push_back({"uniform", up});
  std::sort(up.begin(), up.end());
  in.push_back({"ascending", up});
  std::reverse(up.begin(), up.end());
  in.push_back({"descending", up});
  in.push_back({"identical", std::vector<P>(kN, P{{3, 3}})});
  std::vector<P> line(kN);
  for (std::size_t i = 0; i < kN; ++i) line[i] = P{{double(i), 0}};
  in.push_back({"collinear", line});
  // A 330 x 330 lattice in row order, every third site twice.
  std::vector<P> lat;
  for (int s = 0; s < 330 * 330; ++s) {
    const P p{{double(s % 330), double(s / 330)}};
    lat.push_back(p);
    if (s % 3 == 0) lat.push_back(p);
  }
  in.push_back({"lattice with duplicates", lat});
  return in;
}

// Every point of a[lo, mid) is <= v along dim, every one of a[mid, hi) is
// >= v.
template <class At>
void expect_split(At at, std::size_t lo, std::size_t mid, std::size_t hi,
                  int dim, double v) {
  std::size_t bad = 0;
  for (std::size_t i = lo; i < mid; ++i) bad += at(i)[dim] > v;
  for (std::size_t i = mid; i < hi; ++i) bad += at(i)[dim] < v;
  EXPECT_EQ(bad, 0u) << "node over [" << lo << ", " << hi << ")";
}

// The range's n/2-th smallest coordinate, by the sequential selection.
template <class At>
double nth_oracle(At at, std::size_t lo, std::size_t hi, int dim) {
  std::vector<double> c;
  for (std::size_t i = lo; i < hi; ++i) c.push_back(at(i)[dim]);
  std::nth_element(c.begin(), c.begin() + c.size() / 2, c.end());
  return c[c.size() / 2];
}

constexpr std::size_t kQueries = 6;

const P& query(const std::vector<P>& pts, std::size_t q) {
  return pts[q * 7919 % kN];
}

// The 5 nearest squared distances of each query, by brute force.
std::vector<std::vector<double>> brute_rows(const std::vector<P>& pts) {
  std::vector<std::vector<double>> rows;
  for (std::size_t q = 0; q < kQueries; ++q) {
    rows.push_back(testutil::brute_knn_dists(pts, query(pts, q), 5));
  }
  return rows;
}

// --- both trees -----------------------------------------------------------

// A node and its slot.
using node_row = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                            std::uint32_t, std::uint32_t, std::uint32_t, int,
                            double, P, P>;

// A tree's nodes in pre-order from the root, each with its slot, so that
// two trees compare equal only if every node sits at the same slot with the
// same contents and links.
template <class Tree>
std::vector<node_row> node_rows(const Tree& t) {
  std::vector<node_row> out;
  std::vector<std::uint32_t> stack{kdtree::kRoot};
  while (!stack.empty()) {
    const std::uint32_t at = stack.back();
    stack.pop_back();
    const auto& nd = t.node_at(at);
    out.emplace_back(at, nd.lo, nd.hi, nd.live, nd.left, nd.right,
                     nd.split_dim, nd.split_val, nd.box.lo, nd.box.hi);
    if (!nd.is_leaf()) {
      stack.push_back(nd.right);
      stack.push_back(nd.left);
    }
  }
  return out;
}

// Every internal node splits its range by the policy's contract.
template <class Tree>
void expect_split_contract(const Tree& t, split_policy pol) {
  const auto at = [&](std::size_t i) { return t.point_at(i); };
  std::vector<std::uint32_t> stack{kdtree::kRoot};
  while (!stack.empty()) {
    const auto& nd = t.node_at(stack.back());
    stack.pop_back();
    if (nd.is_leaf()) continue;
    const std::size_t mid = t.node_at(nd.left).hi;
    expect_split(at, nd.lo, mid, nd.hi, nd.split_dim, nd.split_val);
    if (pol == split_policy::object_median) {
      ASSERT_EQ(mid - nd.lo, nd.size() / 2);
      if (nd.size() > kdtree::kParallelSplitCutoff) {
        EXPECT_EQ(nd.split_val,
                  nth_oracle(at, nd.lo, nd.hi, nd.split_dim));
      }
    }
    stack.push_back(nd.left);
    stack.push_back(nd.right);
  }
}

using veb = bdltree::veb_tree<2>;

std::vector<double> veb_knn(const veb& t, const P& q) {
  kdtree::knn_buffer buf(5);
  t.knn(q, 0, buf);
  std::vector<double> d;
  for (const auto& e : buf.finish()) d.push_back(t.point_at(e.id).dist_sq(q));
  return d;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> wspd_pairs(
    const kdtree::tree<2>& t) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& pr : wspd::decompose<2>(t)) out.emplace_back(pr.a, pr.b);
  return out;
}

}  // namespace

TEST(TreeBuild, SameTreeAtEveryWorkerCountOnDegenerateInput) {
  for (const input& in : inputs()) {
    const std::vector<P>& pts = in.pts;
    ASSERT_GT(pts.size(), kdtree::kParallelSplitCutoff);
    const auto brute = brute_rows(pts);
    for (const auto pol :
         {split_policy::object_median, split_policy::spatial_median}) {
      for (const std::size_t leaf : {1u, 16u}) {
        SCOPED_TRACE(::testing::Message()
                     << "kdtree " << in.name << " policy=" << int(pol)
                     << " leaf=" << leaf);
        std::vector<std::vector<std::size_t>> ids;
        std::vector<std::vector<node_row>> nodes;
        std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
            pairs;
        for (const int w : kWorkers) {
          testutil::scoped_workers workers(w);
          const kdtree::tree<2> t(pts, pol, leaf);
          ids.emplace_back();
          for (std::size_t i = 0; i < t.size(); ++i) {
            ids.back().push_back(t.id_of(i));
          }
          nodes.push_back(node_rows(t));
          pairs.push_back(wspd_pairs(t));
          if (w != 4) continue;
          testutil::check_nodes(t, t.num_slots(), pts.size());
          expect_split_contract(t, pol);
          for (std::size_t q = 0; q < kQueries; ++q) {
            std::vector<double> got;
            for (const auto& e : t.knn(query(pts, q), 5)) {
              got.push_back(e.dist_sq);
            }
            EXPECT_EQ(got, brute[q]) << "query " << q;
          }
        }
        for (const std::size_t w : {1u, 2u}) {
          EXPECT_TRUE(ids[w] == ids[0]) << "workers=" << kWorkers[w];
          EXPECT_TRUE(nodes[w] == nodes[0]) << "workers=" << kWorkers[w];
          EXPECT_TRUE(pairs[w] == pairs[0]) << "workers=" << kWorkers[w];
        }
      }
      SCOPED_TRACE(::testing::Message()
                   << "veb_tree " << in.name << " policy=" << int(pol));
      std::vector<std::vector<P>> orders;
      std::vector<std::vector<node_row>> nodes;
      for (const int w : kWorkers) {
        testutil::scoped_workers workers(w);
        const veb t(pts, pol);
        orders.push_back(t.gather());
        nodes.push_back(node_rows(t));
        if (w != 4) continue;
        testutil::check_nodes(t, t.num_nodes(), pts.size());
        expect_split_contract(t, pol);
        for (std::size_t q = 0; q < kQueries; ++q) {
          EXPECT_EQ(veb_knn(t, query(pts, q)), brute[q]) << "query " << q;
        }
      }
      for (const std::size_t w : {1u, 2u}) {
        EXPECT_TRUE(orders[w] == orders[0]) << "workers=" << kWorkers[w];
        EXPECT_TRUE(nodes[w] == nodes[0]) << "workers=" << kWorkers[w];
      }
    }
  }
}

// The parallel split reorders a range exactly as a stable three-way
// partition around the sequential selection's median would.
TEST(TreeBuild, ParallelSplitIsAStableThreeWayPartitionAtTheMedian) {
  auto cases = inputs();
  // Every point the selection samples is far above the rest, so its
  // bracket misses the median and the selection falls back to all points.
  auto poisoned = datagen::uniform<2>(kN, 93);
  for (std::size_t j = 0; j < 4096; ++j) {
    poisoned[par::rand_at(kN, j) % kN] = P{{1e9 + double(j), 1e9}};
  }
  cases.push_back({"sample-poisoned", poisoned});
  for (const input& in : cases) {
    const std::vector<P>& pts = in.pts;
    for (const int dim : {0, 1}) {
      SCOPED_TRACE(::testing::Message() << in.name << " dim=" << dim);
      const std::size_t n = pts.size();
      const double v =
          nth_oracle([&](std::size_t i) { return pts[i]; }, 0, n, dim);
      auto want = pts;
      const auto eq = std::stable_partition(
          want.begin(), want.end(), [&](const P& p) { return p[dim] < v; });
      std::stable_partition(eq, want.end(),
                            [&](const P& p) { return p[dim] == v; });
      for (const int w : kWorkers) {
        testutil::scoped_workers workers(w);
        auto got = pts;
        kdtree::raw_buffer<P> scratch(n);
        const kdtree::cut c = kdtree::split(
            got.data(), n, dim, split_policy::object_median, scratch.data());
        EXPECT_EQ(c.at, n / 2);
        EXPECT_EQ(c.value, v);
        EXPECT_TRUE(got == want) << "workers=" << w;
      }
    }
  }
}

// Both trees' node arrays start on a cache line, so each 64-byte D = 2 node
// sits in one line instead of straddling two.
TEST(TreeBuild, NodeArraysStartOnACacheLine) {
  static_assert(sizeof(kdtree::node<2>) == 64);
  for (const std::size_t n : {std::size_t{100000}, std::size_t{1000000}}) {
    const auto pts = datagen::uniform<2>(n, 95);
    const kdtree::tree<2> kd(pts, split_policy::object_median, 16);
    const veb vt(pts, split_policy::object_median);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&kd.node_at(0)) % 64, 0u)
        << "kdtree n=" << n;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&vt.node_at(0)) % 64, 0u)
        << "veb_tree n=" << n;
  }
}
