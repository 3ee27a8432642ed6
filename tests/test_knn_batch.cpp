// Every batch k-NN entry point — the static kd-tree, the BDL-tree and its
// snapshot view, the Zd-tree, and the B1/B2 baselines — at 1, 2 and 4
// workers on uniform and degenerate inputs. The batches are past
// par::detail::kSortGrain, so their Morton ordering spans several buckets.
// Every row equals brute force by distance; on one structure, every row is
// the same at every worker count and when the queries arrive shuffled.
// (Across two builds of a B2 tree, a distance tie may pick another point:
// its ids are point addresses.) Two builds of one BDL-tree, at 1 and at 4
// workers, and their snapshot views give the same points on ties too. k = 0
// gives empty rows through every entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bdltree/baselines.h"
#include "bdltree/bdl_tree.h"
#include "datagen/datagen.h"
#include "kdtree/kdtree.h"
#include "mortonsort/mortonsort.h"
#include "parallel/parallel.h"
#include "test_util.h"
#include "zdtree/zdtree.h"

using namespace pargeo;

namespace {

using P = point<2>;
using rows = std::vector<std::vector<P>>;

constexpr std::size_t kPoints = 3000;
constexpr std::size_t kQueries = 8200;
constexpr std::size_t kKs[] = {1, 8, 40};  // 40: past knn_buffer::kInline
constexpr int kWorkers[] = {1, 2, 4};

static_assert(kQueries > par::detail::kSortGrain);
static_assert(kQueries >= mortonsort::kOrderedBatchMin);

struct input {
  const char* name;
  std::vector<P> pts;
  std::vector<P> queries;
};

std::vector<input> inputs() {
  std::vector<input> in;
  auto pts = datagen::uniform<2>(kPoints, 41);
  auto qs = datagen::uniform<2>(kQueries, 42);
  in.push_back({"uniform", pts, qs});
  std::sort(pts.begin(), pts.end());
  std::sort(qs.begin(), qs.end());
  in.push_back({"presorted", pts, qs});
  // Every query sees only ties; some queries are the stored point itself.
  std::vector<P> near(qs);
  for (std::size_t i = 0; i < near.size(); i += 3) near[i] = P{{3, 3}};
  in.push_back({"identical", std::vector<P>(kPoints, P{{3, 3}}), near});
  // Presorted points on a line; a query halfway between two of them is
  // equally far from both.
  std::vector<P> line(kPoints), on_line(kQueries);
  for (std::size_t i = 0; i < kPoints; ++i) line[i] = P{{double(i), 0}};
  for (std::size_t i = 0; i < kQueries; ++i) {
    const double y = i % 7 == 0 ? 1 : 0;
    on_line[i] = P{{0.5 * double(i % (2 * kPoints)), y}};
  }
  in.push_back({"collinear", line, on_line});
  // A 45 x 45 lattice, every third site twice; queries at sites, cell
  // centres and edge midpoints.
  std::vector<P> lat, at_lat(kQueries);
  for (int s = 0; s < 45 * 45; ++s) {
    const P p{{double(s % 45), double(s / 45)}};
    lat.push_back(p);
    if (s % 3 == 0) lat.push_back(p);
  }
  for (std::size_t i = 0; i < kQueries; ++i) {
    const double dx = i % 3 == 1 ? 0.5 : 0, dy = i % 4 == 2 ? 0.5 : 0;
    at_lat[i] = P{{double(i % 45) + dx, double(i / 45 % 45) + dy}};
  }
  in.push_back({"lattice with duplicates", lat, at_lat});
  return in;
}

// Uneven batches, so the BDL-tree holds several trees and a buffer.
std::vector<std::vector<P>> batches(const std::vector<P>& pts) {
  std::vector<std::vector<P>> out;
  for (std::size_t lo = 0, step = pts.size() / 2; lo < pts.size();
       lo += step, step = std::max<std::size_t>(step / 3, 64)) {
    const std::size_t hi = std::min(pts.size(), lo + step);
    out.emplace_back(pts.begin() + lo, pts.begin() + hi);
  }
  return out;
}

template <class Tree>
Tree insert_all(Tree t, const std::vector<P>& pts) {
  for (const auto& b : batches(pts)) t.insert(b);
  return t;
}

// A small staging buffer, so that a few thousand points fill several trees.
bdltree::bdl_tree<2> bdl(const std::vector<P>& pts) {
  return insert_all(
      bdltree::bdl_tree<2>(bdltree::split_policy::object_median, 128), pts);
}

// A structure's batch k-NN, bound to the structure.
using batch_knn = std::function<rows(const std::vector<P>& qs, std::size_t k)>;

struct entry_point {
  const char* name;
  batch_knn (*build)(const std::vector<P>& pts);
};

const entry_point kEntryPoints[] = {
    {"kdtree::tree::knn_batch",
     [](const std::vector<P>& pts) -> batch_knn {
       auto t = std::make_shared<const kdtree::tree<2>>(pts);
       return [t, pts](const std::vector<P>& qs, std::size_t k) {
         rows out;
         for (const auto& row : t->knn_batch(qs, k)) {
           out.emplace_back();
           for (const auto& e : row) out.back().push_back(pts[e.id]);
         }
         return out;
       };
     }},
    {"bdl_tree::knn",
     [](const std::vector<P>& pts) -> batch_knn {
       auto t = std::make_shared<const bdltree::bdl_tree<2>>(bdl(pts));
       return [t](const std::vector<P>& qs, std::size_t k) {
         return t->knn(qs, k);
       };
     }},
    {"bdl_forest_view::knn",
     [](const std::vector<P>& pts) -> batch_knn {
       auto v = std::make_shared<const bdltree::bdl_forest_view<2>>(
           bdl(pts).view());
       return [v](const std::vector<P>& qs, std::size_t k) {
         return v->knn(qs, k);
       };
     }},
    {"zd_tree::knn",
     [](const std::vector<P>& pts) -> batch_knn {
       auto t = std::make_shared<const zdtree::zd_tree<2>>(pts);
       return [t](const std::vector<P>& qs, std::size_t k) {
         return t->knn(qs, k);
       };
     }},
    {"b1_tree::knn",
     [](const std::vector<P>& pts) -> batch_knn {
       auto t = std::make_shared<const bdltree::b1_tree<2>>(
           insert_all(bdltree::b1_tree<2>(), pts));
       return [t](const std::vector<P>& qs, std::size_t k) {
         return t->knn(qs, k);
       };
     }},
    {"b2_tree::knn",
     [](const std::vector<P>& pts) -> batch_knn {
       auto t = std::make_shared<const bdltree::b2_tree<2>>(
           insert_all(bdltree::b2_tree<2>(), pts));
       return [t](const std::vector<P>& qs, std::size_t k) {
         return t->knn(qs, k);
       };
     }},
};

// Row i: the smallest squared distances from qs[i], ascending, up to the
// largest k tested.
std::vector<std::vector<double>> brute_rows(const std::vector<P>& pts,
                                            const std::vector<P>& qs) {
  const std::size_t kmax = *std::max_element(std::begin(kKs), std::end(kKs));
  std::vector<std::vector<double>> out(qs.size());
  par::parallel_for(0, qs.size(), [&](std::size_t i) {
    std::vector<double> d(pts.size());
    for (std::size_t j = 0; j < pts.size(); ++j) d[j] = pts[j].dist_sq(qs[i]);
    const std::size_t k = std::min(kmax, d.size());
    std::partial_sort(d.begin(), d.begin() + k, d.end());
    d.resize(k);
    out[i] = std::move(d);
  });
  return out;
}

}  // namespace

TEST(KnnBatch, EveryEntryPointMatchesBruteForceInAnyOrderAtAnyWorkerCount) {
  for (const input& in : inputs()) {
    ASSERT_EQ(in.queries.size(), kQueries);
    const auto brute = brute_rows(in.pts, in.queries);
    const auto perm = par::random_permutation(kQueries, 43);
    std::vector<P> shuffled(kQueries);
    for (std::size_t j = 0; j < kQueries; ++j) {
      shuffled[j] = in.queries[perm[j]];
    }
    for (const entry_point& ep : kEntryPoints) {
      const batch_knn knn = ep.build(in.pts);
      for (const std::size_t k : kKs) {
        SCOPED_TRACE(::testing::Message()
                     << ep.name << " on " << in.name << " k=" << k);
        std::vector<rows> at;  // one result per worker count
        for (const int w : kWorkers) {
          testutil::scoped_workers workers(w);
          at.push_back(knn(in.queries, k));
        }
        const rows& got = at[0];
        ASSERT_EQ(got.size(), kQueries);
        std::size_t bad = 0;
        for (std::size_t i = 0; i < kQueries; ++i) {
          std::vector<double> d;
          for (const P& p : got[i]) d.push_back(p.dist_sq(in.queries[i]));
          const std::vector<double> want(
              brute[i].begin(),
              brute[i].begin() + std::min(k, brute[i].size()));
          if (d != want && bad++ < 3) ADD_FAILURE() << "row " << i;
        }
        EXPECT_EQ(bad, 0u);
        for (std::size_t w = 1; w < at.size(); ++w) {
          EXPECT_TRUE(at[w] == got) << "workers=" << kWorkers[w];
        }
        testutil::scoped_workers workers(4);
        const rows sh = knn(shuffled, k);
        ASSERT_EQ(sh.size(), kQueries);
        std::size_t moved = 0;
        for (std::size_t j = 0; j < kQueries; ++j) {
          moved += sh[j] != got[perm[j]];
        }
        EXPECT_EQ(moved, 0u) << "rows that changed when shuffled";
      }
    }
  }
}

// BDL-tree k-NN ids name a tree slot and a storage index, not an address,
// so the rows of a rebuilt forest and of a snapshot view (which copies the
// staging buffer) keep the same points on distance ties.
TEST(KnnBatch, BdlTreeTiesKeepTheSamePointsAcrossBuildsAndViews) {
  for (const input& in : inputs()) {
    if (std::string(in.name) != "collinear" &&
        std::string(in.name) != "lattice with duplicates") {
      continue;
    }
    for (const std::size_t k : kKs) {
      SCOPED_TRACE(::testing::Message() << in.name << " k=" << k);
      std::vector<rows> at;  // knn and view().knn of a build per worker count
      for (const int w : {1, 4}) {
        testutil::scoped_workers workers(w);
        const auto t = bdl(in.pts);
        at.push_back(t.knn(in.queries, k));
        at.push_back(t.view().knn(in.queries, k));
      }
      for (std::size_t j = 1; j < at.size(); ++j) {
        std::size_t differ = 0;
        for (std::size_t i = 0; i < kQueries; ++i) {
          differ += at[j][i] != at[0][i];
        }
        EXPECT_EQ(differ, 0u) << "rows that differ from the 1-worker build's "
                              << "knn, in result " << j;
      }
    }
  }
}

// k = 0 is a defined, empty row: for an ordered batch and for one below
// kOrderedBatchMin, on a non-empty structure.
TEST(KnnBatch, ZeroKGivesEmptyRowsEverywhere) {
  const auto pts = datagen::uniform<2>(kPoints, 44);
  const auto qs = datagen::uniform<2>(kQueries, 45);
  const std::vector<P> few(qs.begin(), qs.begin() + 10);
  for (const entry_point& ep : kEntryPoints) {
    const batch_knn knn = ep.build(pts);
    for (const auto* batch : {&qs, &few}) {
      const rows got = knn(*batch, 0);
      ASSERT_EQ(got.size(), batch->size()) << ep.name;
      for (const auto& row : got) ASSERT_TRUE(row.empty()) << ep.name;
    }
  }
}
