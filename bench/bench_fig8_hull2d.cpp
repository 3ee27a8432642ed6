// Reproduces paper Figure 8: 2D convex hull running times across methods
// and datasets (2D-IS/OS/U/OC at the base size; OS/OC at the large size).
//
// `SeqBaseline` is our optimized sequential quickhull standing in for the
// paper's CGAL and Qhull bars; neither library is a dependency.
#include "bench_common.h"
#include "datagen/datagen.h"
#include "hull/hull2d.h"

using namespace pargeo;
using namespace pargeo::bench;

namespace {

void run_dataset(const std::string& name, const std::vector<point<2>>& pts) {
  print_row(name, "SeqBaseline",
            1e3 * time_op([&] { hull2d::sequential_quickhull(pts); }));
  print_row(name, "RandInc", 1e3 * time_op([&] { hull2d::randinc(pts); }));
  print_row(name, "QuickHull",
            1e3 * time_op([&] { hull2d::quickhull(pts); }));
  print_row(name, "ResQuickHull",
            1e3 * time_op([&] { hull2d::reservation_quickhull(pts); }));
  print_row(name, "DivideConquer",
            1e3 * time_op([&] { hull2d::divide_conquer(pts); }));
}

}  // namespace

int main() {
  const std::size_t n = base_n();
  const std::size_t big = large_n();
  print_header("Figure 8: 2D convex hull running times",
               "dataset            method                   time");
  run_dataset("2D-IS-" + std::to_string(n), datagen::in_sphere<2>(n, 1));
  run_dataset("2D-OS-" + std::to_string(n), datagen::on_sphere<2>(n, 2));
  run_dataset("2D-U-" + std::to_string(n), datagen::uniform<2>(n, 3));
  run_dataset("2D-OC-" + std::to_string(n), datagen::on_cube<2>(n, 4));
  run_dataset("2D-OS-" + std::to_string(big),
              datagen::on_sphere<2>(big, 5));
  run_dataset("2D-OC-" + std::to_string(big), datagen::on_cube<2>(big, 6));
  return 0;
}
