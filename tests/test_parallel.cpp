// Tests for the OpenMP-backed parallel substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "parallel/parallel.h"
#include "test_util.h"

namespace par = pargeo::par;

TEST(Scheduler, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  par::parallel_for(0, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ParallelForEmptyAndSingle) {
  int count = 0;
  par::parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  par::parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, ParDoRunsBoth) {
  int a = 0, b = 0;
  par::par_do([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Scheduler, NestedParDoInsideParallelFor) {
  std::vector<int> out(64, 0);
  par::parallel_for(
      0, 16,
      [&](std::size_t i) {
        par::par_do([&] { out[4 * i] = 1; out[4 * i + 1] = 1; },
                    [&] { out[4 * i + 2] = 1; out[4 * i + 3] = 1; });
      },
      1);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 64);
}

TEST(Primitives, ReduceSum) {
  std::vector<int64_t> v(100000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int64_t>(i);
  const int64_t n = static_cast<int64_t>(v.size());
  EXPECT_EQ(par::sum(v), n * (n - 1) / 2);
}

TEST(Primitives, ReduceEmpty) {
  std::vector<int> v;
  EXPECT_EQ(par::reduce(v, 0, std::plus<int>{}), 0);
}

TEST(Primitives, MinElementIndexFindsFirstMinimum) {
  std::vector<int> v{5, 3, 9, 3, 7};
  EXPECT_EQ(par::min_element_index(v, std::less<int>{}), 1u);
}

TEST(Primitives, ScanExclusiveMatchesSerial) {
  for (const std::size_t n : {1u, 7u, 4096u, 100001u}) {
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = (i * 7) % 13;
    std::vector<std::size_t> expect(n);
    std::size_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expect[i] = acc;
      acc += v[i];
    }
    const std::size_t total = par::scan_exclusive(v);
    EXPECT_EQ(total, acc);
    EXPECT_EQ(v, expect);
  }
}

TEST(Primitives, PackAndPackIndex) {
  std::vector<int> v(1000);
  std::vector<uint8_t> flags(1000);
  for (int i = 0; i < 1000; ++i) {
    v[i] = i;
    flags[i] = (i % 3 == 0) ? 1 : 0;
  }
  auto packed = par::pack(v, flags);
  auto idx = par::pack_index(flags);
  ASSERT_EQ(packed.size(), 334u);
  ASSERT_EQ(idx.size(), 334u);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    EXPECT_EQ(packed[i] % 3, 0);
    EXPECT_EQ(static_cast<std::size_t>(packed[i]), idx[i]);
  }
}

TEST(Primitives, FilterPreservesOrder) {
  std::vector<int> v(5000);
  for (int i = 0; i < 5000; ++i) v[i] = i;
  auto evens = par::filter(v, [](int x) { return x % 2 == 0; });
  ASSERT_EQ(evens.size(), 2500u);
  for (std::size_t i = 0; i < evens.size(); ++i) {
    EXPECT_EQ(evens[i], static_cast<int>(2 * i));
  }
}

// The one blocked pack behind pack, pack_index, filter and pack_into:
// sizes around the block boundary and four keep patterns, at 1, 2 and 4
// workers, against a sequential pack. pack_into writes only its slice.
TEST(Primitives, BlockedPackMatchesSequentialAtEveryWorkerCount) {
  const std::size_t B = par::detail::kBlock;
  using keep_fn = bool (*)(std::size_t i, std::size_t n);
  const std::pair<const char*, keep_fn> patterns[] = {
      {"all", [](std::size_t, std::size_t) { return true; }},
      {"none", [](std::size_t, std::size_t) { return false; }},
      {"alternating", [](std::size_t i, std::size_t) { return i % 2 == 1; }},
      {"last", [](std::size_t i, std::size_t n) { return i + 1 == n; }},
  };
  for (const int w : {1, 2, 4}) {
    pargeo::testutil::scoped_workers workers(w);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, B - 1, B,
                                B + 1, 3 * B + 5}) {
      for (const auto& [name, keep] : patterns) {
        SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n) +
                     " workers=" + std::to_string(w));
        std::vector<long> v(n);
        std::vector<std::uint8_t> flags(n);
        std::vector<long> want;
        std::vector<std::size_t> want_index;
        for (std::size_t i = 0; i < n; ++i) {
          v[i] = static_cast<long>(7 * i + 3);
          flags[i] = keep(i, n);
          if (flags[i]) {
            want.push_back(v[i]);
            want_index.push_back(i);
          }
        }
        EXPECT_EQ(par::pack(v, flags), want);
        EXPECT_EQ(par::pack_index(flags), want_index);
        EXPECT_EQ(par::filter(v, [&](long x) {
                    return keep(static_cast<std::size_t>(x - 3) / 7, n);
                  }),
                  want);
        std::vector<long> slice(want.size() + 2, -1);
        EXPECT_EQ(par::pack_into(
                      n, [&](std::size_t i) { return flags[i] != 0; },
                      [&](std::size_t i) { return v[i]; }, slice.data() + 1),
                  want.size());
        EXPECT_EQ(slice.front(), -1);
        EXPECT_EQ(slice.back(), -1);
        EXPECT_TRUE(std::equal(want.begin(), want.end(), slice.begin() + 1));
      }
    }
  }
}

TEST(Primitives, CountIf) {
  std::vector<int> v(99999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  EXPECT_EQ(par::count_if(v, [](int x) { return x % 10 == 0; }), 10000u);
}

TEST(Primitives, FlattenConcatenatesInOrder) {
  std::vector<std::vector<int>> nested{{1, 2}, {}, {3}, {4, 5, 6}};
  auto flat = par::flatten(nested);
  EXPECT_EQ(flat, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Primitives, Tabulate) {
  auto sq = par::tabulate(100, [](std::size_t i) { return i * i; });
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(sq[i], i * i);
}

TEST(Sort, SortsLargeArrays) {
  std::vector<uint64_t> v(200000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = par::hash64(i);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  par::sort(v);
  EXPECT_EQ(v, expect);
}

TEST(Sort, StableForEqualKeys) {
  struct kv {
    int key;
    int idx;
  };
  std::vector<kv> v(50000);
  for (int i = 0; i < 50000; ++i) v[i] = {i % 7, i};
  par::sort(v, [](const kv& a, const kv& b) { return a.key < b.key; });
  for (std::size_t i = 1; i < v.size(); ++i) {
    ASSERT_LE(v[i - 1].key, v[i].key);
    if (v[i - 1].key == v[i].key) {
      ASSERT_LT(v[i - 1].idx, v[i].idx);
    }
  }
}

TEST(Sort, CustomComparatorDescending) {
  std::vector<int> v{3, 1, 4, 1, 5, 9, 2, 6};
  par::sort(v, std::greater<int>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<int>{}));
}

// Presorted runs once sent the parallel merge into unbounded recursion: it
// always split the first run, so a one-element first run that is <= all of
// a long second run recursed on its own arguments.
TEST(Sort, PresortedEqualAndRandomKeysAtFourWorkers) {
  pargeo::testutil::scoped_workers workers(4);
  struct kv {
    long key;
    std::size_t idx;
  };
  using key_fn = long (*)(std::size_t i, std::size_t n);
  const std::pair<const char*, key_fn> kinds[] = {
      {"ascending", [](std::size_t i, std::size_t) { return long(i); }},
      {"descending", [](std::size_t i, std::size_t n) { return long(n - i); }},
      {"all-equal", [](std::size_t, std::size_t) { return 7L; }},
      {"random",
       [](std::size_t i, std::size_t) { return long(par::hash64(i) % 1000); }},
      {"two-block",
       [](std::size_t i, std::size_t n) { return long(i % (n / 2)); }},
  };
  const auto by_key = [](const kv& a, const kv& b) { return a.key < b.key; };
  for (const std::size_t n : {16383u, 16384u, 100000u, 1u << 20}) {
    for (const auto& [name, key] : kinds) {
      std::vector<kv> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = {key(i, n), i};
      auto want = v;
      std::stable_sort(want.begin(), want.end(), by_key);
      par::sort(v, by_key);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(v[i].key, want[i].key) << name << " n=" << n << " i=" << i;
        ASSERT_EQ(v[i].idx, want[i].idx) << name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Random, Hash64IsDeterministicAndSpread) {
  EXPECT_EQ(par::hash64(42), par::hash64(42));
  std::set<uint64_t> vals;
  for (uint64_t i = 0; i < 1000; ++i) vals.insert(par::hash64(i));
  EXPECT_EQ(vals.size(), 1000u);
}

TEST(Random, RandDoubleInUnitInterval) {
  for (uint64_t i = 0; i < 10000; ++i) {
    const double d = par::rand_double(3, i);
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, PermutationIsBijective) {
  auto perm = par::random_permutation(12345, 7);
  std::vector<uint8_t> seen(perm.size(), 0);
  for (const std::size_t p : perm) {
    ASSERT_LT(p, perm.size());
    ASSERT_EQ(seen[p], 0);
    seen[p] = 1;
  }
}

// The bucketed permutation is the order of one plain sort of the
// (key, index) pairs, from the fewest buckets (2, up to n = 1023) to the
// most (2^11, from n = 2^20 on).
TEST(Random, PermutationEqualsSortedKeyIndexPairs) {
  for (const std::size_t n : {0, 1, 2, 16383, 16384, 500000, 1 << 20}) {
    std::vector<std::pair<uint64_t, std::size_t>> ki(n);
    for (std::size_t i = 0; i < n; ++i) ki[i] = {par::rand_at(42, i), i};
    std::sort(ki.begin(), ki.end());
    std::vector<std::size_t> want(n);
    for (std::size_t i = 0; i < n; ++i) want[i] = ki[i].second;
    for (const int w : {1, 4}) {
      pargeo::testutil::scoped_workers workers(w);
      EXPECT_TRUE(par::random_permutation(n, 42) == want)
          << "n=" << n << " workers=" << w;
    }
  }
}

TEST(Random, PermutationDependsOnSeed) {
  EXPECT_NE(par::random_permutation(1000, 1), par::random_permutation(1000, 2));
  EXPECT_EQ(par::random_permutation(1000, 5), par::random_permutation(1000, 5));
}

TEST(Random, ShufflePreservesMultiset) {
  std::vector<int> v(5000);
  for (int i = 0; i < 5000; ++i) v[i] = i % 100;
  auto s = par::random_shuffle(v, 11);
  auto a = v, b = s;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(Atomics, WriteMinConverges) {
  std::atomic<uint32_t> x{1000};
  par::parallel_for(0, 10000, [&](std::size_t i) {
    par::write_min(&x, static_cast<uint32_t>(i % 500));
  });
  EXPECT_EQ(x.load(), 0u);
}

TEST(Atomics, WriteMinReturnsWhetherWritten) {
  std::atomic<int> x{10};
  EXPECT_TRUE(par::write_min(&x, 5));
  EXPECT_FALSE(par::write_min(&x, 7));
  EXPECT_EQ(x.load(), 5);
}

TEST(Atomics, WriteMaxConverges) {
  std::atomic<uint64_t> x{0};
  par::parallel_for(0, 10000, [&](std::size_t i) {
    par::write_max(&x, static_cast<uint64_t>(i));
  });
  EXPECT_EQ(x.load(), 9999u);
}

// Property sweep: pack/scan agree across sizes including block boundaries.
class ScanSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanSweep, ScanTotalEqualsSum) {
  const std::size_t n = GetParam();
  std::vector<std::size_t> v(n, 1);
  auto copy = v;
  const std::size_t total = par::scan_exclusive(copy);
  EXPECT_EQ(total, n);
  if (n > 0) EXPECT_EQ(copy[n - 1], n - 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSweep,
                         ::testing::Values(0, 1, 2, 4095, 4096, 4097, 8192,
                                           100000));
