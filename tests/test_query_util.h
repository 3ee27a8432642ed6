// Shared oracle helpers for the query suites: a brute-force reference
// executor that any stream can run through (`query::run_workload` drives
// it like a service), and a response-by-response comparison of a service
// run against a reference run. k-NN rows compare as distance sequences
// (equidistant ties may pick different points), range rows as exact point
// multisets, write acks as empty.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "query/query_engine.h"
#include "test_util.h"

namespace pargeo::testutil {

/// Brute-force reference: a flat point multiset that applies a batch one
/// request at a time, in order. Insert appends; erase removes one stored
/// copy per entry (a no-op if none is left); reads scan every point. Its
/// phase stats come from the same phase cut the service uses.
template <int D>
class reference_index {
 public:
  void bootstrap(const std::vector<point<D>>& pts) { pts_ = pts; }

  query::batch_result<D> execute(const std::vector<query::request<D>>& batch) {
    query::batch_result<D> out;
    query::execute_phases<D>(
        batch, out.responses, out.stats,
        [&](std::size_t begin, std::size_t end, bool) {
          for (std::size_t i = begin; i < end; ++i) {
            out.responses[i].points = apply(batch[i]);
          }
        });
    return out;
  }

  std::size_t size() const { return pts_.size(); }
  std::vector<point<D>> gather() const { return pts_; }

 private:
  std::vector<point<D>> apply(const query::request<D>& r) {
    std::vector<point<D>> row;
    switch (r.kind) {
      case query::op::insert:
        pts_.push_back(r.p);
        break;
      case query::op::erase: {
        auto it = std::find(pts_.begin(), pts_.end(), r.p);
        if (it != pts_.end()) pts_.erase(it);
        break;
      }
      case query::op::knn: {
        row = pts_;
        const std::size_t k = std::min(r.k, row.size());
        std::partial_sort(row.begin(), row.begin() + k, row.end(),
                          [&](const point<D>& a, const point<D>& b) {
                            return a.dist_sq(r.p) < b.dist_sq(r.p);
                          });
        row.resize(k);
        break;
      }
      case query::op::range_box:
        for (const auto& p : pts_) {
          if (r.box.contains(p)) row.push_back(p);
        }
        break;
      case query::op::range_ball:
        for (const auto& p : pts_) {
          if (p.dist_sq(r.p) <= r.radius * r.radius) row.push_back(p);
        }
        break;
    }
    return row;
  }

  std::vector<point<D>> pts_;
};

template <int D>
void expect_same_responses(const std::vector<query::request<D>>& reqs,
                           const std::vector<query::response<D>>& got,
                           const std::vector<query::response<D>>& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), reqs.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].kind, want[i].kind) << "response " << i;
    if (reqs[i].kind == query::op::knn) {
      ASSERT_EQ(got[i].points.size(), want[i].points.size())
          << "knn response " << i;
      for (std::size_t j = 0; j < got[i].points.size(); ++j) {
        EXPECT_EQ(got[i].points[j].dist_sq(reqs[i].p),
                  want[i].points[j].dist_sq(reqs[i].p))
            << "knn response " << i << " row " << j;
      }
    } else if (query::is_read(reqs[i].kind)) {
      auto a = got[i].points;
      auto b = want[i].points;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "range response " << i;
    } else {
      EXPECT_TRUE(got[i].points.empty()) << "write ack " << i;
    }
  }
}

/// Sorted copies compared: the same point multiset.
template <int D>
void expect_same_multiset(std::vector<point<D>> got,
                          std::vector<point<D>> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want);
}

}  // namespace pargeo::testutil
