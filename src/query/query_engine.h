// Batched mixed-workload execution engine (query subsystem, layer 2 of 3).
//
// Accepts a heterogeneous, ordered stream of tagged requests (insert /
// erase / k-NN / box range / ball range) and executes it against any
// spatial_index backend with POP-style batching (Narayanan et al., 2021):
//
//   1. *Partition*: the stream is cut into phase groups — maximal runs of
//      same-class requests (insert | erase | read). Phase boundaries
//      preserve program order between writes and reads; within a phase,
//      requests are independent by construction.
//   2. *Execute*: a write phase becomes one batched update (the paper's
//      batch-dynamic entry points). A read phase is sharded by operation
//      shape (k-NN per distinct k, box ranges, ball ranges); each shard
//      executes data-parallel via pargeo::par inside the backend.
//   3. *Merge*: shard results are scattered back into per-request
//      `response` slots, so callers see answers in submission order.
//
// Per-phase wall-clock timings are recorded; a request's reported latency
// is its phase's duration (requests in a phase complete together).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/timer.h"
#include "query/spatial_index.h"

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
  std::size_t phase = 0;  // phase group this request executed in
  std::vector<point<D>> points;
};

struct phase_stats {
  op kind;                   // representative op class of the phase
  std::size_t num_requests;  // requests executed in the phase
  double seconds;            // wall-clock of the phase
};

struct engine_stats {
  std::size_t num_requests = 0;
  std::size_t num_reads = 0;
  std::size_t num_writes = 0;
  double seconds = 0;
  std::vector<phase_stats> phases;

  std::size_t num_phases() const { return phases.size(); }
  double ops_per_sec() const {
    return seconds > 0 ? static_cast<double>(num_requests) / seconds : 0;
  }
  void accumulate(const engine_stats& o) {
    num_requests += o.num_requests;
    num_reads += o.num_reads;
    num_writes += o.num_writes;
    seconds += o.seconds;
    phases.insert(phases.end(), o.phases.begin(), o.phases.end());
  }
};

template <int D>
struct batch_result {
  std::vector<response<D>> responses;  // responses[i] answers batch[i]
  engine_stats stats;
};

/// The phase cut, the one rule every batch executor shares: the end of the
/// maximal same-class run of `batch` that starts at `begin`. Reads mix
/// freely; a write run extends while its kind repeats, and any read ends
/// it. query_service cuts each shard's sub-batch with it into the
/// batched backend calls it logs and applies.
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

/// Shared phase discipline for batch executors: cuts `batch` with
/// phase_end, invokes `on_phase(begin, end, read_phase)` for each run, and
/// stamps responses' kind/phase ids plus all timing stats. A request's
/// reported latency is its phase's duration (phases complete together).
template <int D, class PhaseFn>
void execute_phases(const std::vector<request<D>>& batch,
                    std::vector<response<D>>& responses, engine_stats& stats,
                    PhaseFn&& on_phase) {
  responses.resize(batch.size());
  stats.num_requests = batch.size();

  timer total;
  std::size_t begin = 0;
  while (begin < batch.size()) {
    const std::size_t end = phase_end<D>(batch, begin);
    const bool read_phase = is_read(batch[begin].kind);

    timer phase_clock;
    on_phase(begin, end, read_phase);
    const double secs = phase_clock.elapsed();
    if (read_phase) {
      stats.num_reads += end - begin;
    } else {
      stats.num_writes += end - begin;
    }

    const std::size_t phase_id = stats.phases.size();
    for (std::size_t i = begin; i < end; ++i) {
      responses[i].kind = batch[i].kind;
      responses[i].phase = phase_id;
    }
    stats.phases.push_back({batch[begin].kind, end - begin, secs});
    begin = end;
  }
  stats.seconds = total.elapsed();
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

/// One same-kind write run `batch[begin, end)` as a single batched update:
/// all payload points of the run go through the backend's batch entry
/// point at once.
template <int D>
void apply_write_run(spatial_index<D>& index,
                     const std::vector<request<D>>& batch, std::size_t begin,
                     std::size_t end) {
  std::vector<point<D>> pts;
  pts.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) pts.push_back(batch[i].p);
  if (batch[begin].kind == op::insert) {
    index.batch_insert(pts);
  } else {
    index.batch_erase(pts);
  }
}

}  // namespace detail

/// Executes request batches against one backend. Not thread-safe: callers
/// submit batches from one thread and the engine parallelizes internally
/// (the paper's model — parallelism lives inside the batch).
template <int D>
class query_engine {
 public:
  explicit query_engine(std::unique_ptr<spatial_index<D>> index)
      : index_(std::move(index)) {}

  spatial_index<D>& index() { return *index_; }
  const spatial_index<D>& index() const { return *index_; }

  /// Loads the initial point set (replacing any current contents).
  void bootstrap(const std::vector<point<D>>& pts) { index_->build(pts); }

  /// Executes `batch` and returns per-request responses plus timing stats.
  batch_result<D> execute(const std::vector<request<D>>& batch) {
    batch_result<D> result;
    execute_phases<D>(batch, result.responses, result.stats,
                      [&](std::size_t begin, std::size_t end, bool read) {
                        if (read) {
                          detail::execute_read_phase_on<D>(*index_, batch,
                                                           begin, end,
                                                           result.responses);
                        } else {
                          detail::apply_write_run<D>(*index_, batch, begin,
                                                     end);
                        }
                      });
    return result;
  }

 private:
  std::unique_ptr<spatial_index<D>> index_;
};

// The common dimensions are instantiated once in query.cpp.
extern template class query_engine<2>;
extern template class query_engine<3>;

/// p in [0, 100]; nearest-rank percentile of `v` (0 for empty input).
double percentile(std::vector<double> v, double p);

}  // namespace pargeo::query
