// Tests for Morton-code computation and Z-order sorting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/aabb.h"
#include "datagen/datagen.h"
#include "mortonsort/mortonsort.h"
#include "parallel/random.h"
#include "test_util.h"

using namespace pargeo;

TEST(Morton, CodeMonotoneAlongDiagonal) {
  const point<2> lo{{0, 0}}, hi{{100, 100}};
  uint64_t prev = 0;
  for (int i = 0; i <= 100; ++i) {
    const point<2> p{{static_cast<double>(i), static_cast<double>(i)}};
    const uint64_t c = mortonsort::morton_code<2>(p, lo, hi);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Morton, CornerCodes) {
  const point<2> lo{{0, 0}}, hi{{1, 1}};
  EXPECT_EQ(mortonsort::morton_code<2>(lo, lo, hi), 0u);
  const uint64_t maxCode = mortonsort::morton_code<2>(hi, lo, hi);
  EXPECT_EQ(maxCode, ~uint64_t{0});  // 32 bits per dim, all ones
}

TEST(Morton, QuantizationClampsOutOfRange) {
  const point<2> lo{{0, 0}}, hi{{1, 1}};
  const point<2> below{{-5, -5}}, above{{7, 7}};
  EXPECT_EQ(mortonsort::morton_code<2>(below, lo, hi), 0u);
  EXPECT_EQ(mortonsort::morton_code<2>(above, lo, hi),
            mortonsort::morton_code<2>(hi, lo, hi));
}

TEST(Morton, OrderIsPermutation) {
  auto pts = datagen::uniform<3>(5000, 5);
  auto ord = mortonsort::morton_order<3>(pts);
  std::vector<uint8_t> seen(pts.size(), 0);
  for (const std::size_t i : ord) {
    ASSERT_LT(i, pts.size());
    ASSERT_FALSE(seen[i]);
    seen[i] = 1;
  }
}

TEST(Morton, SortedCodesAreNondecreasing) {
  auto pts = datagen::visualvar<2>(10000, 6);
  auto sorted = mortonsort::morton_sort<2>(pts);
  auto codes = mortonsort::morton_codes<2>(sorted);
  EXPECT_TRUE(std::is_sorted(codes.begin(), codes.end()));
}

TEST(Morton, SortPreservesMultiset) {
  auto pts = datagen::uniform<2>(3000, 7);
  auto sorted = mortonsort::morton_sort<2>(pts);
  auto a = pts, b = sorted;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(Morton, LocalityConsecutiveCloserThanRandom) {
  // Z-order locality: average distance between consecutive points in
  // Morton order is much smaller than between random pairs.
  auto pts = datagen::uniform<2>(20000, 8);
  auto sorted = mortonsort::morton_sort<2>(pts);
  double consecutive = 0;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    consecutive += sorted[i].dist(sorted[i - 1]);
  }
  consecutive /= sorted.size() - 1;
  double random = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    random += pts[par::rand_range(1, i, pts.size())].dist(
        pts[par::rand_range(2, i, pts.size())]);
  }
  random /= 1000;
  EXPECT_LT(consecutive, random / 4);
}

TEST(Morton, HigherDims) {
  auto pts5 = datagen::uniform<5>(2000, 9);
  auto codes5 = mortonsort::morton_codes<5>(pts5);
  EXPECT_EQ(codes5.size(), pts5.size());
  auto pts7 = datagen::uniform<7>(2000, 10);
  auto sorted7 = mortonsort::morton_sort<7>(pts7);
  auto codes7 = mortonsort::morton_codes<7>(sorted7);
  EXPECT_TRUE(std::is_sorted(codes7.begin(), codes7.end()));
}

TEST(Morton, DegenerateSingleValue) {
  std::vector<point<2>> pts(100, point<2>{{5, 5}});
  auto codes = mortonsort::morton_codes<2>(pts);
  for (const auto c : codes) EXPECT_EQ(c, codes[0]);
  auto sorted = mortonsort::morton_sort<2>(pts);
  EXPECT_EQ(sorted.size(), pts.size());
}

// morton_order is one stable sort of the indices by code, at sizes around
// the sort grain, on identical points (one bucket holds every pair) and on
// a tight cluster with two far outliers (one bucket holds almost every
// pair), at 1 and 4 workers.
TEST(Morton, OrderEqualsStableSortByCode) {
  std::vector<std::vector<point<2>>> cases;
  for (const std::size_t n : {0u, 1u, 2u, 8191u, 8192u, 250000u}) {
    cases.push_back(datagen::uniform<2>(n, n + 3));
  }
  cases.emplace_back(250000, point<2>{{4, 4}});
  // 60,000 distinct codes in one bucket: the cluster spans ~245 units.
  auto cluster = datagen::uniform<2>(60000, 11);
  cluster.push_back(point<2>{{1e6, 1e6}});
  cluster.push_back(point<2>{{-1e6, 1e6}});
  cases.push_back(cluster);
  for (const int w : {1, 4}) {
    testutil::scoped_workers workers(w);
    for (const auto& pts : cases) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << pts.size() << " workers=" << w);
      aabb<2> box;
      for (const auto& p : pts) box.extend(p);
      std::vector<uint64_t> codes;
      for (const auto& p : pts) {
        codes.push_back(mortonsort::morton_code<2>(p, box.lo, box.hi));
      }
      std::vector<std::size_t> want(pts.size());
      for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
      std::stable_sort(want.begin(), want.end(),
                       [&](std::size_t a, std::size_t b) {
                         return codes[a] < codes[b];
                       });
      EXPECT_TRUE(mortonsort::morton_order<2>(pts) == want);
    }
  }
}

// The bit loop that built every code before the mask-and-shift ladders,
// kept as the oracle: bit b of q[d] lands at bit D*b + (D - 1 - d).
template <int D>
uint64_t interleave_bit_loop(const std::array<uint64_t, D>& q) {
  uint64_t code = 0;
  for (int b = 64 / D - 1; b >= 0; --b) {
    for (int d = 0; d < D; ++d) code = (code << 1) | ((q[d] >> b) & 1u);
  }
  return code;
}

// Random cells, and the extreme ones: 0, the largest cell, alternating
// bits, single bits, and bits above the cell width (which both ignore).
template <int D>
void expect_interleave_matches_bit_loop() {
  constexpr uint64_t kMax = (uint64_t{1} << (64 / D)) - 1;
  const uint64_t extremes[] = {0,
                               kMax,
                               0x5555555555555555ull & kMax,
                               0xaaaaaaaaaaaaaaaaull & kMax,
                               1,
                               uint64_t{1} << (64 / D - 1),
                               kMax - 1,
                               ~uint64_t{0}};
  std::vector<std::array<uint64_t, D>> cells;
  for (const uint64_t a : extremes) {
    for (const uint64_t b : extremes) {
      std::array<uint64_t, D> q{};
      for (int d = 0; d < D; ++d) q[d] = d % 2 == 0 ? a : b;
      cells.push_back(q);
    }
  }
  for (uint64_t i = 0; i < 100000; ++i) {
    std::array<uint64_t, D> q{};
    for (int d = 0; d < D; ++d) q[d] = par::rand_at(D, i * D + d) & kMax;
    cells.push_back(q);
  }
  for (const auto& q : cells) {
    ASSERT_EQ(mortonsort::interleave<D>(q), interleave_bit_loop<D>(q))
        << "cell " << q[0] << ", " << q[1];
  }
}

TEST(Morton, InterleaveMatchesTheBitLoop) {
  expect_interleave_matches_bit_loop<2>();
  expect_interleave_matches_bit_loop<3>();
  expect_interleave_matches_bit_loop<5>();
}

// morton_code is the quantization followed by interleave: on random points
// it equals the bit loop over the same cells.
TEST(Morton, CodesMatchTheBitLoopOnRandomPoints) {
  const auto check = [](auto pts) {
    constexpr int D = decltype(pts)::value_type::dim;
    constexpr uint64_t kMax = (uint64_t{1} << (64 / D)) - 1;
    aabb<D> box;
    for (const auto& p : pts) box.extend(p);
    for (const auto& p : pts) {
      std::array<uint64_t, D> q{};
      for (int d = 0; d < D; ++d) {
        const double f = std::clamp(
            (p[d] - box.lo[d]) / (box.hi[d] - box.lo[d]), 0.0, 1.0);
        q[d] = std::min(kMax,
                        static_cast<uint64_t>(f * static_cast<double>(kMax)));
      }
      ASSERT_EQ(mortonsort::morton_code<D>(p, box.lo, box.hi),
                interleave_bit_loop<D>(q));
    }
  };
  check(datagen::uniform<2>(20000, 12));
  check(datagen::uniform<3>(20000, 13));
}
