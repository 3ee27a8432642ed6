// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every bench prints self-describing rows (dataset, method, value) so the
// EXPERIMENTS.md tables can be regenerated by re-running the binaries.
// Sizes are scaled down to run in minutes on a few cores: the paper's
// 10M-point datasets default to PARGEO_N points (env override), and its
// 100M datasets to 4x that.
#pragma once

#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/timer.h"

namespace pargeo::bench {

// ---- build provenance ------------------------------------------------------
// Stamped into every bench's `meta` JSON row so EXPERIMENTS.md tables are
// attributable to a binary. The PARGEO_* macros come from CMake
// (target_compile_definitions on the bench targets); the fallbacks keep
// ad-hoc compiles working.

/// Compiler id and version, e.g. "gcc 13.2.0".
inline std::string compiler_id() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

/// CMAKE_BUILD_TYPE the binary was built with.
inline const char* build_type() {
#ifdef PARGEO_BUILD_TYPE
  return PARGEO_BUILD_TYPE[0] != '\0' ? PARGEO_BUILD_TYPE : "unspecified";
#else
  return "unknown";
#endif
}

/// PARGEO_SANITIZE the binary was built with ("none" when clean).
inline const char* sanitize_flags() {
#ifdef PARGEO_SANITIZE_STR
  return PARGEO_SANITIZE_STR;
#else
  return "none";
#endif
}

/// Short git SHA of the checkout CMake configured from.
inline const char* git_sha() {
#ifdef PARGEO_GIT_SHA
  return PARGEO_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Base dataset size (paper: 10M). Override with env PARGEO_N.
inline std::size_t base_n() {
  if (const char* e = std::getenv("PARGEO_N")) {
    return static_cast<std::size_t>(std::atoll(e));
  }
  return 50000;
}

/// Large dataset size (paper: 100M).
inline std::size_t large_n() { return 4 * base_n(); }

/// Minimum wall-clock seconds of `f` over `reps` timed runs, with no
/// warmup run (a single cold run at the default reps = 1).
template <class F>
double time_op(F&& f, int reps = 1) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    timer t;
    f();
    best = std::min(best, t.elapsed());
  }
  return best;
}

/// Thread counts to sweep: 1, 2, 4, ... up to the hardware limit. On a
/// single-core host this is just {1}, so no row measures a speedup.
inline std::vector<int> thread_sweep() {
  std::vector<int> ts;
  const int maxT = omp_get_num_procs();
  for (int t = 1; t <= maxT; t *= 2) ts.push_back(t);
  if (ts.back() != maxT) ts.push_back(maxT);
  return ts;
}

struct scoped_threads {
  explicit scoped_threads(int t) : prev_(omp_get_max_threads()) {
    omp_set_num_threads(t);
  }
  ~scoped_threads() { omp_set_num_threads(prev_); }

 private:
  int prev_;
};

inline void print_header(const std::string& title,
                         const std::string& columns) {
  std::printf("\n=== %s ===\n%s\n", title.c_str(), columns.c_str());
}

inline void print_row(const std::string& dataset, const std::string& method,
                      double ms) {
  std::printf("%-18s %-16s %12.2f ms\n", dataset.c_str(), method.c_str(),
              ms);
}

inline void print_throughput_row(const std::string& impl, int threads,
                                 double ops_per_sec) {
  std::printf("%-14s threads=%-3d %14.0f ops/s\n", impl.c_str(), threads,
              ops_per_sec);
}

}  // namespace pargeo::bench
