// Tests for the benchmark's own statistics (perfbench/stats.h): the
// nearest-rank percentile and the ten-samples-beyond tail rule, the seeded
// arrival schedule, and the offered-rate ladder's knee logic.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile() {
  using perfbench::percentile;
  check(percentile({}, 50) == 0, "empty sample reads 0");
  check(percentile({7}, 50) == 7 && percentile({7}, 99) == 7,
        "single sample is every percentile");
  check(percentile(one_to(10), 50) == 5, "p50 of 1..10 is 5 (rank 5)");
  check(percentile(one_to(10), 51) == 6, "p51 of 1..10 is 6 (rank ceil(5.1))");
  check(percentile(one_to(100), 99) == 99, "p99 of 1..100 is 99");
  check(percentile(one_to(1000), 99) == 990, "p99 of 1..1000 is 990");
  check(percentile(one_to(4), 100) == 4, "p100 is the max");
  check(percentile(one_to(4), 0) == 1, "p0 clamps to rank 1");
}

void test_tail_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_supported;
  check(samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  check(tail_supported(1000, 99), "p99 supported at n = 1000");
  check(!tail_supported(999, 99), "p99 unsupported at n = 999 (9 beyond)");
  check(!tail_supported(100, 99), "p99 unsupported at n = 100");
  check(tail_supported(100, 50), "p50 supported at n = 100");
  check(!tail_supported(0, 50), "nothing is supported without samples");
  check(tail_supported(10000, 99.9) && !tail_supported(9999, 99.9),
        "p99.9 needs 10000 samples");
}

void test_windows() {
  using perfbench::windowed_rate;
  check(perfbench::median({3, 1, 2}) == 2 && perfbench::median({4, 1, 3, 2}) == 2.5,
        "median of odd and even samples");
  // 3 full 1-s windows; completions of weight 2.
  std::vector<std::uint64_t> done = {100, 200, 1'000'000'100, 2'000'000'000,
                                     2'500'000'000, 2'600'000'000,
                                     3'100'000'000};
  check(windowed_rate(done, 2, 0, 3'500'000'000, 1'000'000'000) == 4,
        "median of per-window rates (4, 2, 6 per s)");
  check(windowed_rate(done, 1, 0, 500, 1'000'000'000) == 0,
        "no full window: rate 0");
}

void test_schedule() {
  const auto a = perfbench::poisson_schedule(42, 1000, 10);
  const auto b = perfbench::poisson_schedule(42, 1000, 10);
  const auto c = perfbench::poisson_schedule(43, 1000, 10);
  check(a == b, "same seed gives the same schedule");
  check(a != c, "another seed gives another schedule");
  check(a.size() > 9500 && a.size() < 10500,
        "~rate x seconds arrivals (" + std::to_string(a.size()) + ")");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  check(increasing, "due times strictly increase");
  check(!a.empty() && a.back() < 10'000'000'000ULL, "all due within horizon");
  // Mean gap 1 ms within 5%; Poisson gaps have stddev == mean.
  double sum = 0, sq = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double g = static_cast<double>(a[i] - a[i - 1]) * 1e-6;
    sum += g;
    sq += g * g;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n, sd = std::sqrt(sq / n - mean * mean);
  check(std::abs(mean - 1.0) < 0.05, "mean gap ~1 ms");
  check(std::abs(sd - 1.0) < 0.1, "exponential gaps (sd ~ mean)");
  check(perfbench::poisson_schedule(1, 0, 10).empty(), "rate 0: no arrivals");
}

perfbench::rung_result rung(double offered, double achieved, double p99,
                            std::size_t n = 4000) {
  return {offered, achieved, p99, n};
}

void test_ladder() {
  using perfbench::max_rate;
  const double limit = 50;
  check(max_rate({}, limit) == 0, "empty ladder: 0");
  check(max_rate({rung(1000, 1000, 60)}, limit) == 0,
        "first rung over the latency limit: 0");
  check(max_rate({rung(1000, 1000, 5), rung(2000, 1990, 8),
                  rung(4000, 3000, 9)},
                 limit) == 2000,
        "achieved < 0.95 x offered fails the rung");
  check(max_rate({rung(1000, 1000, 5), rung(2000, 2000, 80),
                  rung(4000, 4000, 9)},
                 limit) == 1000,
        "the climb stops at the first failing rung");
  check(max_rate({rung(1000, 1000, 5), rung(2000, 2000, 50)}, limit) == 2000,
        "p99 equal to the limit passes");
  check(max_rate({rung(1000, 1000, 5, 999)}, limit) == 0,
        "a rung whose p99 is unsupported fails");
  check(perfbench::rung_passes(rung(1000, 950, 1), limit),
        "achieved exactly 0.95 x offered passes");
}

void test_spans() {
  perfbench::span_recorder off(false);
  check(off.open("x", 1) == -1 && off.spans().empty(), "disabled: no spans");
  perfbench::span_recorder on(true);
  const auto p = on.open("parent", 100);
  const auto c1 = on.open("child", 110, p);
  on.close(c1, 130);
  const auto c2 = on.open("child", 140, p);
  on.close(c2, 150);
  on.close(p, 200);
  check(on.durations("child") == std::vector<double>{20, 10},
        "child durations");
  check(on.self_ns("parent") == 70, "parent self time = 100 - 30");
  check(on.self_ns("child") == 30, "leaf self time = duration");
}

}  // namespace

int main() {
  test_percentile();
  test_tail_rule();
  test_windows();
  test_schedule();
  test_ladder();
  test_spans();
  if (failures) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
