// Statistics, load schedules and spans for the repository benchmark.
//
// Everything here is pure and header-only so perfbench/tests can check it
// without the library: nearest-rank percentiles and the rule that a tail
// percentile is reported only with at least ten samples beyond it, the
// seeded Poisson arrival schedule of the open-loop generator, the
// offered-rate ladder that locates the load knee, and the in-memory span
// recorder the traced run uses to time calls into each layer from outside.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile `p` (0..100] among `n` samples:
/// ceil(p/100 * n), clamped to [1, n]. 0 when n == 0.
inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double exact = p / 100.0 * static_cast<double>(n);
  // Round down values that are integers up to floating-point error, so
  // p50 of 10 samples is rank 5, not 6.
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::min(n, std::max<std::size_t>(1, rank));
}

/// Nearest-rank percentile of `v` (copied and sorted). 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

/// Samples that lie beyond the nearest-rank percentile `p` of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

/// A tail percentile is reported only when at least ten samples lie
/// beyond it; below that it is one or two outliers, not a percentile.
inline bool tail_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= 10;
}

/// Median of a sample (mean of the middle two for even sizes). 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Median over the full `window_ns` windows of [t0, t0 + span_ns) of the
/// rate (per second) at which `weight`-sized completions at `done_ns`
/// landed. 0 when no full window fits.
inline double windowed_rate(const std::vector<std::uint64_t>& done_ns,
                            double weight, std::uint64_t t0,
                            std::uint64_t span_ns, std::uint64_t window_ns) {
  if (window_ns == 0) return 0;
  const std::size_t windows = span_ns / window_ns;
  if (windows == 0) return 0;
  std::vector<double> count(windows, 0);
  for (const std::uint64_t d : done_ns) {
    if (d < t0) continue;
    const std::uint64_t w = (d - t0) / window_ns;
    if (w < windows) count[w] += weight;
  }
  for (double& c : count) c /= static_cast<double>(window_ns) * 1e-9;
  return median(count);
}

/// splitmix64: the benchmark's only source of randomness for schedules.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in (0, 1) for (seed, i).
inline double unit_uniform(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t r = splitmix64(splitmix64(seed) ^ (i * 0xd1b54a32d192ed03ULL));
  return (static_cast<double>(r >> 11) + 0.5) * (1.0 / 9007199254740992.0);
}

/// Due times, in ns from the start of the stream, of a Poisson arrival
/// process at `rate` per second, up to `seconds`. A pure function of its
/// arguments, so two runs with one seed offer the identical schedule.
inline std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                                   double rate,
                                                   double seconds) {
  std::vector<std::uint64_t> due;
  if (rate <= 0 || seconds <= 0) return due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const double horizon = seconds * 1e9;
  double t = 0;
  for (std::uint64_t i = 0;; ++i) {
    t += -std::log(unit_uniform(seed, i)) / rate * 1e9;
    if (t >= horizon) break;
    due.push_back(static_cast<std::uint64_t>(t));
  }
  return due;
}

/// One rung of the offered-rate ladder.
struct rung_result {
  double offered_rps = 0;
  double achieved_rps = 0;
  double p99_ms = 0;
  std::size_t samples = 0;
};

/// A rung passes when its p99 is supported by the sample count, meets
/// `limit_ms`, and the service kept up: achieved >= 0.95 x offered.
inline bool rung_passes(const rung_result& r, double limit_ms) {
  return tail_supported(r.samples, 99) && r.p99_ms <= limit_ms &&
         r.achieved_rps >= 0.95 * r.offered_rps;
}

/// The ladder climbs in the given (increasing) order and stops at the
/// first failing rung; the result is the last rung passed before it, or 0
/// when the first rung already fails. A later rung that passes again after
/// a failure does not count: past the knee the backlog only grows.
inline double max_rate(const std::vector<rung_result>& ladder,
                       double limit_ms) {
  double best = 0;
  for (const auto& r : ladder) {
    if (!rung_passes(r, limit_ms)) break;
    best = r.offered_rps;
  }
  return best;
}

/// Spans recorded around calls into the library: name, start, end, and
/// the span that caused them. Kept in memory; summarized and written out
/// when the run ends. One recorder per thread (no locking).
class span_recorder {
 public:
  struct span {
    std::uint32_t name = 0;
    std::int64_t parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  explicit span_recorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its id (-1 when disabled).
  std::int64_t open(const std::string& name, std::uint64_t now_ns,
                    std::int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(span{intern(name), parent, now_ns, now_ns});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void close(std::int64_t id, std::uint64_t now_ns) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns;
  }

  const std::vector<span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Durations (ns) of every span named `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (names_[s.name] == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  /// Summed self time (ns) of spans named `name`: each span's duration
  /// minus the part its direct children cover.
  double self_ns(const std::string& name) const {
    std::vector<double> child(spans_.size(), 0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    double total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (names_[spans_[i].name] == name) {
        total += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
                 child[i];
      }
    }
    return total;
  }

 private:
  std::uint32_t intern(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  bool enabled_;
  std::vector<span> spans_;
  std::vector<std::string> names_;
};

}  // namespace perfbench
