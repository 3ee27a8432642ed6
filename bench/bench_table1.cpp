// Reproduces paper Table 1: single-threaded time (T1), all-threads time
// (TP), and self-relative speedup for every ParGeo operation on uniform
// hypercube data. Batch-dynamic updates use batches of 10% of the input.
//
// Paper sizes: 10M points. Default here: PARGEO_N (see bench_common.h).
#include <functional>

#include "bench_common.h"
#include "pargeo.h"

using namespace pargeo;
using namespace pargeo::bench;

namespace {

void report(const char* name, const std::function<void()>& op) {
  double t1, tp;
  {
    scoped_threads st(1);
    t1 = time_op(op);
  }
  tp = time_op(op);  // all available threads
  std::printf("%-38s %10.3fs %10.3fs %8.2fx\n", name, t1, tp, t1 / tp);
}

}  // namespace

int main() {
  const std::size_t n = base_n();
  std::printf(
      "Table 1 reproduction (n=%zu; paper used 10M on 36 cores; %s)\n", n,
      kTimingNote);
  std::printf("%-38s %11s %11s %9s\n", "Implementation", "T1", "TP",
              "Speedup");

  const auto u2 = datagen::uniform<2>(n, 1);
  const auto u3 = datagen::uniform<3>(n, 1);
  const auto u5 = datagen::uniform<5>(n, 1);
  const auto u7 = datagen::uniform<7>(n, 1);

  report("kd-tree Build (2d)", [&] { kdtree::tree<2> t(u2); });
  report("kd-tree Build (5d)", [&] { kdtree::tree<5> t(u5); });
  {
    kdtree::tree<2> t2(u2);
    report("kd-tree k-NN (2d, k=5)", [&] { t2.knn_batch(u2, 5); });
    const double r = std::sqrt(static_cast<double>(n)) * 0.02;
    report("kd-tree Range Search (2d)", [&] {
      par::parallel_for(
          0, u2.size(), [&](std::size_t i) { t2.range_ball(u2[i], r); },
          64);
    });
  }
  {
    const std::size_t batch = n / 10;
    report("Batch-dynamic kd-tree Construct (5d)", [&] {
      bdltree::bdl_tree<5> t;
      t.insert(u5);
    });
    bdltree::bdl_tree<5> t;
    t.insert(u5);
    std::vector<point<5>> b(u5.begin(), u5.begin() + batch);
    report("Batch-dynamic kd-tree Insert (5d)", [&] { t.insert(b); });
    report("Batch-dynamic kd-tree Delete (5d)", [&] { t.erase(b); });
  }
  {
    kdtree::tree<2> t2(u2);
    report("WSPD (2d)", [&] { wspd::decompose<2>(t2, 2.0); });
  }
  report("EMST (2d)", [&] { emst::emst<2>(u2); });
  report("Convex Hull (2d)", [&] { hull2d::divide_conquer(u2); });
  report("Convex Hull (3d)", [&] { hull3d::divide_conquer(u3); });
  report("Smallest Enclosing Ball (2d)", [&] { seb::sampling<2>(u2); });
  report("Smallest Enclosing Ball (5d)", [&] { seb::sampling<5>(u5); });
  report("Closest Pair (2d)", [&] { closestpair::closest_pair<2>(u2); });
  report("Closest Pair (3d)", [&] { closestpair::closest_pair<3>(u3); });
  report("k-NN Graph (2d, k=5)", [&] { graphgen::knn_graph(u2, 5); });
  report("Delaunay Graph (2d)", [&] { graphgen::delaunay_graph(u2); });
  report("Gabriel Graph (2d)", [&] { graphgen::gabriel_graph(u2); });
  report("beta-skeleton Graph (2d, beta=2)",
         [&] { graphgen::beta_skeleton(u2, 2.0); });
  report("Spanner (2d, t=2)", [&] { graphgen::spanner(u2, 2.0); });
  report("Morton Sort (7d)", [&] { mortonsort::morton_sort<7>(u7); });
  return 0;
}
