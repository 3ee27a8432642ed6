// google-benchmark micro suite for kd-tree construction and queries.
#include <benchmark/benchmark.h>

#include "datagen/datagen.h"
#include "kdtree/kdtree.h"

using namespace pargeo;

static void BM_KdBuildObject2d(benchmark::State& state) {
  auto pts = datagen::uniform<2>(state.range(0), 1);
  for (auto _ : state) {
    kdtree::tree<2> t(pts, kdtree::split_policy::object_median);
    benchmark::DoNotOptimize(t.node_at(kdtree::kRoot));
  }
  state.SetItemsProcessed(state.iterations() * pts.size());
}
BENCHMARK(BM_KdBuildObject2d)->Arg(1 << 14)->Arg(1 << 17);

static void BM_KdBuildSpatial2d(benchmark::State& state) {
  auto pts = datagen::uniform<2>(state.range(0), 1);
  for (auto _ : state) {
    kdtree::tree<2> t(pts, kdtree::split_policy::spatial_median);
    benchmark::DoNotOptimize(t.node_at(kdtree::kRoot));
  }
  state.SetItemsProcessed(state.iterations() * pts.size());
}
BENCHMARK(BM_KdBuildSpatial2d)->Arg(1 << 14)->Arg(1 << 17);

static void BM_KdKnn(benchmark::State& state) {
  auto pts = datagen::uniform<2>(1 << 16, 1);
  kdtree::tree<2> t(pts);
  const std::size_t k = state.range(0);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.knn(pts[q++ % pts.size()], k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdKnn)->Arg(1)->Arg(5)->Arg(20);

static void BM_KdRangeBall(benchmark::State& state) {
  auto pts = datagen::uniform<2>(1 << 16, 1);
  kdtree::tree<2> t(pts);
  const double r = std::sqrt(static_cast<double>(pts.size())) *
                   (state.range(0) / 1000.0);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.range_ball(pts[q++ % pts.size()], r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdRangeBall)->Arg(10)->Arg(50)->Arg(200);

static void BM_KdKnn5d(benchmark::State& state) {
  auto pts = datagen::uniform<5>(1 << 15, 1);
  kdtree::tree<5> t(pts);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.knn(pts[q++ % pts.size()], 5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdKnn5d);

BENCHMARK_MAIN();
