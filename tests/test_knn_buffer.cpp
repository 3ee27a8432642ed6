// Tests for the k-NN candidate buffer: the k best (dist, id) pairs, kept
// sorted, with an exact bound once k are held, inline up to kInline pairs
// and on the heap past it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "kdtree/knn_buffer.h"

using pargeo::kdtree::knn_buffer;

TEST(KnnBuffer, KeepsKSmallest) {
  knn_buffer buf(3);
  for (int i = 10; i >= 1; --i) {
    buf.insert(static_cast<double>(i), static_cast<std::size_t>(i));
  }
  auto out = buf.finish();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].dist_sq, 1.0);
  EXPECT_EQ(out[1].dist_sq, 2.0);
  EXPECT_EQ(out[2].dist_sq, 3.0);
}

TEST(KnnBuffer, BoundIsInfUntilKSeen) {
  knn_buffer buf(4);
  EXPECT_TRUE(std::isinf(buf.bound()));
  buf.insert(1.0, 1);
  buf.insert(2.0, 2);
  buf.insert(3.0, 3);
  EXPECT_TRUE(std::isinf(buf.bound()));
  buf.insert(4.0, 4);
  EXPECT_EQ(buf.bound(), 4.0);
}

TEST(KnnBuffer, BoundIsTheKthSmallestOnceKHeld) {
  for (const std::size_t k : {1u, 10u, 16u, 17u, 100u}) {
    SCOPED_TRACE(k);
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> dist(0, 1);
    knn_buffer buf(k);
    std::vector<double> sorted;  // every distance inserted so far
    for (int i = 0; i < 3000; ++i) {
      const double d = dist(rng);
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), d), d);
      buf.insert(d, static_cast<std::size_t>(i));
      if (sorted.size() >= k) {
        ASSERT_EQ(buf.bound(), sorted[k - 1]) << "after insert " << i;
      } else {
        ASSERT_TRUE(std::isinf(buf.bound()));
      }
    }
    auto out = buf.finish();
    ASSERT_EQ(out.size(), k);
    for (std::size_t j = 0; j < k; ++j) EXPECT_EQ(out[j].dist_sq, sorted[j]);
  }
}

TEST(KnnBuffer, ZeroKHoldsNothing) {
  knn_buffer buf(0);
  EXPECT_TRUE(buf.full());
  EXPECT_LT(buf.bound(), 0.0);
  buf.insert(0.0, 1);
  buf.insert(5.0, 2);
  buf.insert(-std::numeric_limits<double>::infinity(), 3);
  EXPECT_TRUE(buf.finish().empty());
  buf.reset();
  EXPECT_LT(buf.bound(), 0.0);
}

TEST(KnnBuffer, FewerThanKCandidates) {
  knn_buffer buf(5);
  buf.insert(2.0, 0);
  buf.insert(1.0, 1);
  auto out = buf.finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1u);
}

TEST(KnnBuffer, TiesBrokenById) {
  knn_buffer buf(2);
  buf.insert(1.0, 9);
  buf.insert(1.0, 3);
  buf.insert(1.0, 5);
  auto out = buf.finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 3u);
  EXPECT_EQ(out[1].id, 5u);
}

TEST(KnnBuffer, ResetClearsState) {
  knn_buffer buf(2);
  buf.insert(1.0, 1);
  buf.insert(2.0, 2);
  buf.insert(3.0, 3);
  buf.reset();
  EXPECT_TRUE(std::isinf(buf.bound()));
  buf.insert(7.0, 7);
  auto out = buf.finish();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 7u);
}

TEST(KnnBuffer, ManyInsertsPastInlineCapacity) {
  for (const std::size_t k : {17u, 100u}) {
    SCOPED_TRACE(k);
    knn_buffer buf(k);
    // Strictly decreasing distances make every insert displace the k-th.
    for (int i = 0; i < 100000; ++i) {
      buf.insert(1e6 - i, static_cast<std::size_t>(i));
    }
    auto out = buf.finish();
    ASSERT_EQ(out.size(), k);
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(out[j].dist_sq, 1e6 - 99999 + static_cast<double>(j));
    }
  }
}
