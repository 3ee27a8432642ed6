// Reproduces paper Figure 9: 3D convex hull running times across methods
// and datasets. The Thai-statue / Dragon scans are not shipped;
// `datagen::synthetic_statue` is their proxy.
// Also prints pseudohull survivor counts, which drive the paper's
// discussion of why Pseudo loses on large-output datasets.
#include "bench_common.h"
#include "datagen/datagen.h"
#include "hull/hull3d.h"

using namespace pargeo;
using namespace pargeo::bench;

namespace {

void run_dataset(const std::string& name, const std::vector<point<3>>& pts) {
  print_row(name, "SeqBaseline",
            1e3 * time_op([&] { hull3d::sequential_quickhull(pts); }));
  print_row(name, "RandInc", 1e3 * time_op([&] { hull3d::randinc(pts); }));
  print_row(name, "QuickHull",
            1e3 * time_op([&] { hull3d::reservation_quickhull(pts); }));
  print_row(name, "DivideConquer",
            1e3 * time_op([&] { hull3d::divide_conquer(pts); }));
  print_row(name, "Pseudo",
            1e3 * time_op([&] { hull3d::pseudohull(pts); }));
  const auto out = hull3d::hull_vertices(hull3d::sequential_quickhull(pts));
  std::printf("%-18s output hull size %zu, pseudohull survivors %zu\n",
              name.c_str(), out.size(), hull3d::pseudohull_survivors(pts));
}

}  // namespace

int main() {
  const std::size_t n = base_n();
  const std::size_t big = large_n();
  print_header("Figure 9: 3D convex hull running times",
               "dataset            method                   time");
  run_dataset("3D-IS-" + std::to_string(n), datagen::in_sphere<3>(n, 1));
  run_dataset("3D-OS-" + std::to_string(n), datagen::on_sphere<3>(n, 2));
  run_dataset("3D-U-" + std::to_string(n), datagen::uniform<3>(n, 3));
  run_dataset("3D-OC-" + std::to_string(n), datagen::on_cube<3>(n, 4));
  run_dataset("3D-Thai-proxy", datagen::synthetic_statue(n / 2, 5));
  run_dataset("3D-Dragon-proxy", datagen::synthetic_statue(n / 3, 6));
  run_dataset("3D-OS-" + std::to_string(big),
              datagen::on_sphere<3>(big, 7));
  run_dataset("3D-OC-" + std::to_string(big), datagen::on_cube<3>(big, 8));
  return 0;
}
