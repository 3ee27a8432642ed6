// Unit tests for the epoch/snapshot layer of spatial_index (layer 1):
// write epochs advance monotonically on every content change; isolated
// snapshots (chunk-level COW views of the BDL-tree forest) keep answering
// exactly as of their epoch while the live index absorbs further writes;
// and the read-phase runner answers a mixed read run from a snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "datagen/datagen.h"
#include "query/query_engine.h"
#include "query/spatial_index.h"
#include "test_util.h"

using namespace pargeo;

TEST(SnapshotEpochs, EpochAdvancesOnEveryContentChange) {
  auto idx = std::make_unique<query::spatial_index<2>>();
  const auto e0 = idx->epoch();
  idx->build(datagen::uniform<2>(100, 3));
  const auto e1 = idx->epoch();
  EXPECT_GT(e1, e0);
  idx->batch_insert(datagen::uniform<2>(10, 4));
  const auto e2 = idx->epoch();
  EXPECT_GT(e2, e1);
  auto victims = datagen::uniform<2>(100, 3);
  victims.resize(5);
  idx->batch_erase(victims);
  EXPECT_GT(idx->epoch(), e2);
  // Reads never advance the epoch.
  const auto e3 = idx->epoch();
  idx->batch_knn(datagen::uniform<2>(4, 5), 3);
  EXPECT_EQ(idx->epoch(), e3);
  // Neither do no-op writes: an erase that matches nothing leaves the
  // contents — and therefore the epoch — untouched.
  idx->batch_erase({point<2>{{-777, -777}}, point<2>{{-778, -778}}});
  EXPECT_EQ(idx->epoch(), e3);
  idx->batch_insert({});
  EXPECT_EQ(idx->epoch(), e3);
}

TEST(SnapshotEpochs, SnapshotCarriesEpochAndContents) {
  auto idx = std::make_unique<query::spatial_index<2>>();
  idx->build(datagen::uniform<2>(200, 7));
  auto snap = idx->snapshot();
  EXPECT_EQ(snap->epoch(), idx->epoch());
  EXPECT_EQ(snap->size(), idx->size());

  const auto queries = datagen::uniform<2>(8, 9);
  auto live = idx->batch_knn(queries, 5);
  auto snapped = snap->batch_knn(queries, 5);
  ASSERT_EQ(live.size(), snapped.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(live[i].size(), snapped[i].size()) << "query " << i;
    for (std::size_t j = 0; j < live[i].size(); ++j) {
      EXPECT_EQ(live[i][j].dist_sq(queries[i]),
                snapped[i][j].dist_sq(queries[i]));
    }
  }
}

namespace {

// Writes applied after the snapshot must be invisible to it: the isolation
// property the query_service's concurrent read drains rely on.
template <int D>
void expect_isolated_from_later_writes() {
  auto idx = std::make_unique<query::spatial_index<D>>();
  const auto initial = datagen::uniform<D>(150, 11);
  idx->build(initial);

  auto snap = idx->snapshot();
  const auto snap_epoch = snap->epoch();

  // Mutate the live index well past the snapshot: fresh inserts in a far
  // stripe plus erases of initial points.
  point<D> far{};
  for (int d = 0; d < D; ++d) far[d] = 500.0 + d;
  idx->batch_insert({far});
  auto victims = initial;
  victims.resize(40);
  idx->batch_erase(victims);

  EXPECT_GT(idx->epoch(), snap_epoch);
  EXPECT_EQ(snap->epoch(), snap_epoch);
  EXPECT_EQ(snap->size(), initial.size());

  // k-NN through the snapshot matches brute force over the ORIGINAL set.
  const auto queries = datagen::uniform<D>(6, 13);
  auto rows = snap->batch_knn(queries, 4);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = testutil::brute_knn_dists(initial, queries[i], 4);
    ASSERT_EQ(rows[i].size(), expect.size()) << "query " << i;
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(rows[i][j].dist_sq(queries[i]), expect[j])
          << "query " << i << " row " << j;
    }
  }

  // The far insert is invisible to a snapshot ball; erased points remain.
  auto balls = snap->batch_ball({far}, {0.5});
  EXPECT_TRUE(balls[0].empty());
  aabb<D> everything(initial[0], initial[0]);
  for (const auto& p : initial) everything.extend(p);
  auto ranges = snap->batch_range({everything});
  EXPECT_EQ(ranges[0].size(), initial.size());
}

}  // namespace

TEST(SnapshotIsolation, BdltreeSnapshotIgnoresLaterWrites2D) {
  // The BDL forest used to hand out pinned (non-isolated) views that
  // required the service to gate writes while reads were in flight.
  // Snapshots are now chunk-level COW forest views: fully isolated, and
  // superseded structure versions are retired through the epoch
  // reclaimer instead of blocking writers.
  expect_isolated_from_later_writes<2>();
}

TEST(SnapshotIsolation, BdltreeSnapshotIgnoresLaterWrites3D) {
  expect_isolated_from_later_writes<3>();
}

TEST(SnapshotIsolation, BdltreeSnapshotSurvivesManyWriteRounds) {
  // Rounds of insert+erase churn rebuild / merge BDL levels repeatedly;
  // a snapshot captured up front must keep answering from its original
  // chunk set no matter how much the live forest restructures.
  auto idx = std::make_unique<query::spatial_index<2>>();
  const auto initial = datagen::uniform<2>(150, 41);
  idx->build(initial);
  auto snap = idx->snapshot();

  for (int round = 0; round < 6; ++round) {
    idx->batch_insert(datagen::uniform<2>(40, 43 + round));
    auto victims = datagen::uniform<2>(40, 43 + round);
    victims.resize(20);
    idx->batch_erase(victims);
  }

  EXPECT_EQ(snap->size(), initial.size());
  const auto queries = datagen::uniform<2>(5, 47);
  auto rows = snap->batch_knn(queries, 3);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = testutil::brute_knn_dists(initial, queries[i], 3);
    ASSERT_EQ(rows[i].size(), expect.size());
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(rows[i][j].dist_sq(queries[i]), expect[j]);
    }
  }
}

TEST(SnapshotReads, ReadPhaseRunsAgainstASnapshot) {
  auto idx = std::make_unique<query::spatial_index<2>>();
  const auto initial = datagen::uniform<2>(180, 37);
  idx->build(initial);
  auto snap = idx->snapshot();
  idx->batch_insert({point<2>{{999, 999}}});  // invisible to the snapshot

  std::vector<query::request<2>> batch{
      query::request<2>::make_knn(initial[3], 4),
      query::request<2>::make_ball(point<2>{{999, 999}}, 0.5),
      query::request<2>::make_range(
          aabb<2>(point<2>{{-1, -1}}, point<2>{{1000, 1000}})),
  };
  std::vector<query::response<2>> responses(batch.size());
  query::detail::execute_read_phase_on<2>(*snap, batch, 0, batch.size(),
                                          responses);
  EXPECT_EQ(responses[0].points.size(), 4u);
  EXPECT_EQ(responses[0].points[0], initial[3]);
  EXPECT_TRUE(responses[1].points.empty());
  EXPECT_EQ(responses[2].points.size(), initial.size());
}
