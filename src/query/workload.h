// Synthetic mixed-workload driver (query subsystem, layer 3 of 3).
//
// Turns a declarative spec into an initial point set plus a deterministic,
// ordered request stream for benchmarking and fuzzing the query engine:
// operation mix by fractions, payload points drawn uniform / clustered
// (datagen::visualvar) / with skewed-Zipf key reuse (hot points are
// re-inserted, re-queried, and re-erased, producing duplicates and
// contended keys like a caching tier would see). Everything is a pure
// function of (spec, index), so two runs — or a service and the
// brute-force reference of the tests — replay the identical stream.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "parallel/random.h"
#include "query/query_engine.h"

namespace pargeo::query {

/// `skewed` and `drifting` are the adversarial modes for spatial
/// sharding: payload points concentrate in a small corner cube of the
/// occupied space (`workload_spec::skew_frac` of each side), so under
/// stripe routing nearly every write lands in one shard. `skewed` pins
/// the hot cube at the origin corner; `drifting` slides it along the
/// main diagonal over the life of the stream, so stripes that were
/// balanced at bootstrap go stale and stay stale.
///
/// `churn` models an arrive/depart population (moving objects, session
/// stores, TTL-expired fleets): payload geometry is uniform, but erases
/// target the OLDEST live point instead of a random pool sample, so
/// every erase removes exactly one resident point (FIFO departure, the
/// order TTL expiry retires them in) and `insert_frac`/`erase_frac` act
/// as arrival/departure rates — equal rates hold the resident set size
/// at steady state instead of letting it grow with the stream.
enum class distribution { uniform, clustered, zipf, skewed, drifting, churn };

inline const char* distribution_name(distribution d) {
  switch (d) {
    case distribution::uniform: return "uniform";
    case distribution::clustered: return "clustered";
    case distribution::zipf: return "zipf";
    case distribution::skewed: return "skewed";
    case distribution::drifting: return "drifting";
    case distribution::churn: return "churn";
  }
  return "?";
}

inline distribution distribution_from_string(const std::string& s) {
  if (s == "uniform") return distribution::uniform;
  if (s == "clustered") return distribution::clustered;
  if (s == "zipf") return distribution::zipf;
  if (s == "skewed") return distribution::skewed;
  if (s == "drifting") return distribution::drifting;
  if (s == "churn") return distribution::churn;
  throw std::invalid_argument(
      "unknown distribution '" + s +
      "' (want uniform|clustered|zipf|skewed|drifting|churn)");
}

struct workload_spec {
  std::size_t initial_points = 10000;
  std::size_t num_ops = 100000;
  std::size_t batch_size = 2048;  // requests per engine batch

  // Operation mix; fractions are normalized by their sum.
  double insert_frac = 0.1;
  double erase_frac = 0.1;
  double knn_frac = 0.6;
  double range_frac = 0.1;
  double ball_frac = 0.1;

  std::size_t k = 8;           // k-NN neighbors
  double range_extent = 4.0;   // box half-width; ball radius scales on it
  distribution dist = distribution::uniform;
  double zipf_s = 1.2;         // Zipf exponent for key reuse (dist == zipf)
  /// Fraction of zipf payload points drawn from the hot-key pool instead
  /// of fresh space (dist == zipf). Higher values model cache-friendlier
  /// traffic: the same keys are re-queried, re-inserted, and re-erased.
  double zipf_hot_frac = 0.8;
  /// Side of the hot payload cube as a fraction of the occupied cube's
  /// side (dist == skewed or drifting). Payload points — inserts, query
  /// centers, box corners — are drawn from that cube, so both the write
  /// mass and the read interest concentrate spatially; erase targets
  /// still sample the whole pool.
  double skew_frac = 0.1;
  uint64_t seed = 1;

  /// Derived coordinate scale for stream payloads, matching the cube the
  /// live point set actually occupies: datagen fills [0, sqrt(initial)]^D,
  /// so queries and new inserts are drawn from that same cube (the stream
  /// densifies it rather than probing empty space beyond it). Workloads
  /// that start empty scale by their expected insert volume instead.
  double side() const {
    if (initial_points > 0) {
      return std::sqrt(static_cast<double>(initial_points));
    }
    const double fsum =
        insert_frac + erase_frac + knn_frac + range_frac + ball_frac;
    const double expected_inserts =
        fsum > 0 ? static_cast<double>(num_ops) * (insert_frac / fsum)
                 : static_cast<double>(num_ops);
    return std::sqrt(std::max(1.0, expected_inserts));
  }
};

/// Spec parameterized by a single read fraction: reads split 70% k-NN /
/// 15% box range / 15% ball range, writes split evenly between inserts and
/// erases — the mix `pargeo_query` drives. Performance numbers come from
/// perfbench/; EXPERIMENTS.md points at the archived single-run sweeps
/// over this mix.
inline workload_spec make_read_write_spec(std::size_t initial_points,
                                          std::size_t num_ops,
                                          double read_frac) {
  workload_spec spec;
  spec.initial_points = initial_points;
  spec.num_ops = num_ops;
  const double write_frac = 1.0 - read_frac;
  spec.insert_frac = write_frac / 2;
  spec.erase_frac = write_frac / 2;
  spec.knn_frac = read_frac * 0.70;
  spec.range_frac = read_frac * 0.15;
  spec.ball_frac = read_frac * 0.15;
  return spec;
}

/// Steady-state churn spec: `arrival_frac` of ops insert fresh points,
/// `departure_frac` erase the oldest live point (FIFO, see
/// distribution::churn), and the rest read (70% k-NN / 15% box / 15%
/// ball, as in make_read_write_spec). With arrival == departure the
/// resident set stays at ~initial_points for the whole stream — the mix
/// the TTL/continuous-query bench needs. Rates are normalized by their
/// sum, so arrival + departure + reads need not total 1.
inline workload_spec make_churn_spec(std::size_t initial_points,
                                     std::size_t num_ops, double arrival_frac,
                                     double departure_frac) {
  workload_spec spec;
  spec.initial_points = initial_points;
  spec.num_ops = num_ops;
  spec.dist = distribution::churn;
  spec.insert_frac = arrival_frac;
  spec.erase_frac = departure_frac;
  const double read_frac =
      std::max(0.0, 1.0 - arrival_frac - departure_frac);
  spec.knn_frac = read_frac * 0.70;
  spec.range_frac = read_frac * 0.15;
  spec.ball_frac = read_frac * 0.15;
  return spec;
}

namespace detail {

/// Bounded-Pareto inverse-CDF Zipf sampler: rank in [0, n) with
/// P(rank) ~ (rank+1)^-s. Deterministic in (u in [0,1)).
inline std::size_t zipf_rank(double u, std::size_t n, double s) {
  if (n <= 1) return 0;
  if (s == 1.0) s = 1.0 + 1e-9;  // avoid the log branch; visually identical
  const double hi = std::pow(static_cast<double>(n) + 1.0, 1.0 - s);
  const double x = std::pow(1.0 + u * (hi - 1.0), 1.0 / (1.0 - s));
  const std::size_t rank = static_cast<std::size_t>(x) - 1;
  return rank < n ? rank : n - 1;
}

}  // namespace detail

/// Initial contents of the index for `spec`.
template <int D>
std::vector<point<D>> make_initial(const workload_spec& spec) {
  switch (spec.dist) {
    case distribution::clustered:
      return datagen::visualvar<D>(spec.initial_points, spec.seed);
    default:
      return datagen::uniform<D>(spec.initial_points, spec.seed);
  }
}

/// The full ordered request stream for `spec`, with the key pool seeded by
/// `initial` (the point set the index was bootstrapped with, so erases hit
/// live points from op 0 on). Sequential by construction (later ops may
/// reference earlier inserts); cost is O(num_ops).
template <int D>
std::vector<request<D>> make_requests(const workload_spec& spec,
                                      std::vector<point<D>> initial) {
  const double fsum = spec.insert_frac + spec.erase_frac + spec.knn_frac +
                      spec.range_frac + spec.ball_frac;
  if (fsum <= 0) throw std::invalid_argument("all op fractions are zero");
  const double c_ins = spec.insert_frac / fsum;
  const double c_era = c_ins + spec.erase_frac / fsum;
  const double c_knn = c_era + spec.knn_frac / fsum;
  const double c_rng = c_knn + spec.range_frac / fsum;

  const double side = spec.side();
  const uint64_t seed = spec.seed * 0x9e3779b97f4a7c15ULL + 0x1234567;

  // Key pool: points eligible for reuse (zipf) and for erase targeting.
  std::vector<point<D>> pool = std::move(initial);
  pool.reserve(pool.size() + spec.num_ops);
  // Churn departure cursor: pool[0, churn_head) has already been erased
  // (exactly once each — FIFO), pool[churn_head, size) is the live set.
  std::size_t churn_head = 0;

  auto fresh_point = [&](std::size_t i) {
    point<D> p;
    if (spec.dist == distribution::skewed ||
        spec.dist == distribution::drifting) {
      // Hot corner cube; under `drifting` it slides along the main
      // diagonal as the stream progresses.
      const double frac = std::min(1.0, std::max(spec.skew_frac, 1e-3));
      const double width = side * frac;
      double lo = 0;
      if (spec.dist == distribution::drifting && spec.num_ops > 1) {
        lo = (side - width) * static_cast<double>(i) /
             static_cast<double>(spec.num_ops - 1);
      }
      for (int d = 0; d < D; ++d) {
        p[d] = lo + width * par::rand_double(seed + 12 + d, i);
      }
      return p;
    }
    if (spec.dist == distribution::clustered && !pool.empty()) {
      // Jitter around a random pool point: keeps new mass near clusters.
      const std::size_t c = par::rand_range(seed + 11, i, pool.size());
      for (int d = 0; d < D; ++d) {
        p[d] = pool[c][d] +
               (par::rand_double(seed + 12 + d, i) - 0.5) * side * 0.02;
      }
    } else {
      for (int d = 0; d < D; ++d) {
        p[d] = side * par::rand_double(seed + 12 + d, i);
      }
    }
    return p;
  };

  // Payload point for op i: fresh, or a reused hot key under zipf.
  auto pick_point = [&](std::size_t i) {
    if (spec.dist == distribution::zipf && !pool.empty() &&
        par::rand_double(seed + 20, i) < spec.zipf_hot_frac) {
      const std::size_t r = detail::zipf_rank(par::rand_double(seed + 21, i),
                                              pool.size(), spec.zipf_s);
      return pool[r];
    }
    return fresh_point(i);
  };

  std::vector<request<D>> reqs;
  reqs.reserve(spec.num_ops);
  for (std::size_t i = 0; i < spec.num_ops; ++i) {
    const double u = par::rand_double(seed + 1, i);
    if (u < c_ins) {
      const auto p = pick_point(i);
      pool.push_back(p);
      reqs.push_back(request<D>::make_insert(p));
    } else if (u < c_era) {
      if (spec.dist == distribution::churn) {
        // FIFO departure: retire the oldest live point, exactly once.
        if (churn_head < pool.size()) {
          reqs.push_back(request<D>::make_erase(pool[churn_head++]));
          continue;
        }
        // Population empty: arrive instead so the stream keeps moving.
        const auto p = fresh_point(i);
        pool.push_back(p);
        reqs.push_back(request<D>::make_insert(p));
        continue;
      }
      if (pool.empty()) {  // nothing to erase yet: emit an insert instead
        const auto p = fresh_point(i);
        pool.push_back(p);
        reqs.push_back(request<D>::make_insert(p));
        continue;
      }
      // Erase a pool point; under zipf the hot ranks get erased (and often
      // re-inserted) repeatedly. Absent points are legal no-ops.
      const std::size_t r =
          spec.dist == distribution::zipf
              ? detail::zipf_rank(par::rand_double(seed + 2, i), pool.size(),
                                  spec.zipf_s)
              : par::rand_range(seed + 2, i, pool.size());
      reqs.push_back(request<D>::make_erase(pool[r]));
    } else if (u < c_knn) {
      reqs.push_back(request<D>::make_knn(pick_point(i), spec.k));
    } else if (u < c_rng) {
      const auto corner = pick_point(i);
      const double w =
          spec.range_extent * (0.5 + par::rand_double(seed + 3, i));
      point<D> ext;
      for (int d = 0; d < D; ++d) ext[d] = w;
      reqs.push_back(request<D>::make_range(aabb<D>(corner, corner + ext)));
    } else {
      const double r =
          spec.range_extent * (0.25 + par::rand_double(seed + 4, i));
      reqs.push_back(request<D>::make_ball(pick_point(i), r));
    }
  }
  return reqs;
}

/// Convenience overload generating the initial set itself.
template <int D>
std::vector<request<D>> make_requests(const workload_spec& spec) {
  return make_requests<D>(spec, make_initial<D>(spec));
}

/// Runs the whole spec against `executor` — a query_service<D>, or
/// anything else with bootstrap/execute — in batches of
/// spec.batch_size and returns the accumulated stats (bootstrap time
/// excluded, as in the paper's figures). `responses`, when non-null,
/// collects every response in stream order.
template <int D, class Executor>
engine_stats run_workload(Executor& engine, const workload_spec& spec,
                          std::vector<response<D>>* responses = nullptr) {
  auto initial = make_initial<D>(spec);
  engine.bootstrap(initial);
  const auto reqs = make_requests<D>(spec, std::move(initial));
  engine_stats total;
  const std::size_t bs = std::max<std::size_t>(1, spec.batch_size);
  for (std::size_t off = 0; off < reqs.size(); off += bs) {
    const std::size_t end = std::min(reqs.size(), off + bs);
    std::vector<request<D>> batch(reqs.begin() + off, reqs.begin() + end);
    auto result = engine.execute(std::move(batch));
    if (responses) {
      // Rebase per-batch phase ids so they index the accumulated
      // total.phases, preserving the latency-lookup contract.
      const std::size_t phase_base = total.phases.size();
      for (auto& r : result.responses) {
        r.phase += phase_base;
        responses->push_back(std::move(r));
      }
    }
    total.accumulate(result.stats);
  }
  return total;
}

/// Executor adapter for run_workload that drives a replicated tier
/// (query/replica.h): bootstraps the primary and routes every batch
/// through a replica_router, splitting each mixed batch into its ordered
/// read / write runs first — the router scatters read-only batches, so a
/// client that wants read scaling must not bury its reads inside mixed
/// submissions. The last write run's commit_epoch is threaded back in as
/// the read-your-writes floor of every subsequent read run, which is the
/// pattern a well-behaved client of the replicated tier follows. Generic
/// over the router type so this header stays independent of replica.h.
template <int D, class Primary, class Router>
struct routed_executor {
  Primary& primary;
  Router& router;
  std::uint64_t floor = 0;  // commit_epoch of the latest write run

  template <class Pts>
  void bootstrap(const Pts& pts) {
    primary.bootstrap(pts);
  }
  batch_result<D> execute(std::vector<request<D>> batch) {
    batch_result<D> out;
    std::size_t i = 0;
    while (i < batch.size()) {
      const bool read = is_read(batch[i].kind);
      std::size_t j = i + 1;
      while (j < batch.size() && is_read(batch[j].kind) == read) ++j;
      auto r = router.execute(
          std::vector<request<D>>(batch.begin() + i, batch.begin() + j),
          floor);
      if (r.commit_epoch > floor) floor = r.commit_epoch;
      // Same phase-id rebasing contract as run_workload: ids index the
      // accumulated phase list.
      const std::size_t base = out.stats.phases.size();
      for (auto& resp : r.responses) {
        resp.phase += base;
        out.responses.push_back(std::move(resp));
      }
      out.stats.accumulate(r.stats);
      i = j;
    }
    return out;
  }
};

}  // namespace pargeo::query
