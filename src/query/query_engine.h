// Request and result types and the phase cut of the query subsystem.
//
// A client hands the query_service a heterogeneous, ordered batch of tagged
// requests (insert / erase / k-NN / box range / ball range) and gets back
// one `ticket_result`: a `response` per request, in submission order, and
// the ticket's measured latency. The service executes each shard's share
// of a batch with POP-style batching (Narayanan et al., 2021), using the
// pieces defined here:
//
//   1. *Partition*: `phase_end` cuts a batch into phase groups — maximal
//      runs of same-class requests (insert | erase | read). Phase
//      boundaries preserve program order between writes and reads; within
//      a phase, requests are independent by construction.
//   2. *Execute*: a write phase becomes one batched update (the paper's
//      batch-dynamic entry points). `detail::execute_read_phase_on` splits
//      a read phase by operation shape (k-NN per distinct k, box ranges,
//      ball ranges) and runs each part as one data-parallel index call.
//   3. *Merge*: rows are scattered back into per-request `response` slots,
//      so callers see answers in submission order.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/aabb.h"
#include "core/point.h"

namespace pargeo::query {

enum class op : uint8_t { insert, erase, knn, range_box, range_ball };

inline const char* op_name(op o) {
  switch (o) {
    case op::insert: return "insert";
    case op::erase: return "erase";
    case op::knn: return "knn";
    case op::range_box: return "range_box";
    case op::range_ball: return "range_ball";
  }
  return "?";
}

/// True for operations that do not modify the index.
inline bool is_read(op o) {
  return o == op::knn || o == op::range_box || o == op::range_ball;
}

/// One tagged operation. Field use by kind: insert/erase -> p; knn -> p, k;
/// range_ball -> p (center), radius; range_box -> box.
template <int D>
struct request {
  op kind = op::knn;
  point<D> p{};
  std::size_t k = 0;
  double radius = 0;
  aabb<D> box{};

  static request make_insert(const point<D>& pt) {
    request r;
    r.kind = op::insert;
    r.p = pt;
    return r;
  }
  static request make_erase(const point<D>& pt) {
    request r;
    r.kind = op::erase;
    r.p = pt;
    return r;
  }
  static request make_knn(const point<D>& q, std::size_t k) {
    request r;
    r.kind = op::knn;
    r.p = q;
    r.k = k;
    return r;
  }
  static request make_range(const aabb<D>& b) {
    request r;
    r.kind = op::range_box;
    r.box = b;
    return r;
  }
  static request make_ball(const point<D>& center, double radius) {
    request r;
    r.kind = op::range_ball;
    r.p = center;
    r.radius = radius;
    return r;
  }
};

/// Answer for one request, in submission order. Write acknowledgements have
/// empty `points`; k-NN rows are sorted by distance, range rows unordered.
template <int D>
struct response {
  op kind = op::knn;
  std::vector<point<D>> points;
};

/// A completed batch as its submitter sees it: the rows, the latency the
/// service measured for this ticket, and the epochs it ran at.
template <int D>
struct ticket_result {
  std::vector<response<D>> responses;  // responses[i] answers batch[i]
  /// submit() -> responses ready, on the service's telemetry clock: the
  /// same nanosecond delta the `completion` stage histogram records.
  double latency_seconds = 0;
  /// For snapshot-path read groups: the largest shard epoch the reads
  /// observed (0 for write/mixed groups — those read the live index).
  std::uint64_t snapshot_epoch = 0;
  /// With an op log attached: the log epoch this batch's writes committed
  /// as (0 for read-only batches and logless services). Carry it as the
  /// `min_epoch` floor on subsequent replica_router reads for
  /// read-your-writes.
  std::uint64_t commit_epoch = 0;
  /// The batch was shed by the drain because its deadline passed while
  /// it was still queued: `responses` is empty and nothing executed.
  /// Deadline expiry is a completion, not an error — get() returns
  /// normally and callers branch on this flag.
  bool timed_out = false;
};

/// The phase cut: the end of the maximal same-class run of `batch` that
/// starts at `begin`. Reads mix freely; a write run extends while its kind
/// repeats, and any read ends it. query_service cuts each shard's
/// sub-batch with it into the batched backend calls it logs and applies.
template <int D>
std::size_t phase_end(const std::vector<request<D>>& batch,
                      std::size_t begin) {
  const bool read_phase = is_read(batch[begin].kind);
  std::size_t end = begin + 1;
  while (end < batch.size() &&
         (read_phase ? is_read(batch[end].kind)
                     : batch[end].kind == batch[begin].kind)) {
    ++end;
  }
  return end;
}

namespace detail {

/// One read phase against any query target — the live `spatial_index<D>`
/// or an epoch `index_snapshot<D>` (both expose the same batch_knn /
/// batch_range / batch_ball shape). Shards the run by operation shape,
/// executes each shard with the target's data-parallel batch call, and
/// scatters rows back into the per-request response slots.
template <int D, class Target>
void execute_read_phase_on(const Target& target,
                           const std::vector<request<D>>& batch,
                           std::size_t begin, std::size_t end,
                           std::vector<response<D>>& responses) {
  std::map<std::size_t, std::vector<std::size_t>> knn_shards;  // k -> reqs
  std::vector<std::size_t> box_shard, ball_shard;
  for (std::size_t i = begin; i < end; ++i) {
    switch (batch[i].kind) {
      case op::knn: knn_shards[batch[i].k].push_back(i); break;
      case op::range_box: box_shard.push_back(i); break;
      default: ball_shard.push_back(i); break;
    }
  }

  for (const auto& [k, idx] : knn_shards) {
    if (k == 0) continue;  // k-NN with k=0: empty rows, skip the backend
    std::vector<point<D>> queries;
    queries.reserve(idx.size());
    for (std::size_t i : idx) queries.push_back(batch[i].p);
    auto rows = target.batch_knn(queries, k);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      responses[idx[j]].points = std::move(rows[j]);
    }
  }
  if (!box_shard.empty()) {
    std::vector<aabb<D>> boxes;
    boxes.reserve(box_shard.size());
    for (std::size_t i : box_shard) boxes.push_back(batch[i].box);
    auto rows = target.batch_range(boxes);
    for (std::size_t j = 0; j < box_shard.size(); ++j) {
      responses[box_shard[j]].points = std::move(rows[j]);
    }
  }
  if (!ball_shard.empty()) {
    std::vector<point<D>> centers;
    std::vector<double> radii;
    centers.reserve(ball_shard.size());
    radii.reserve(ball_shard.size());
    for (std::size_t i : ball_shard) {
      centers.push_back(batch[i].p);
      radii.push_back(batch[i].radius);
    }
    auto rows = target.batch_ball(centers, radii);
    for (std::size_t j = 0; j < ball_shard.size(); ++j) {
      responses[ball_shard[j]].points = std::move(rows[j]);
    }
  }
}

}  // namespace detail

/// p in [0, 100]; nearest-rank percentile of `v` (0 for empty input).
double percentile(std::vector<double> v, double p);

}  // namespace pargeo::query
