// Ablation benches for the hull design constants:
//   * divide-and-conquer block constant c (blocks = c * numProc)
//   * pseudohull recursion stop threshold
//   * reservation batch constant c (batch = c * numProc)
#include "bench_common.h"
#include "datagen/datagen.h"
#include "hull/hull2d.h"
#include "hull/hull3d.h"

using namespace pargeo;
using namespace pargeo::bench;

int main() {
  const std::size_t n = base_n();

  print_header("Ablation: 2D divide-and-conquer block factor",
               "dataset / c / time");
  auto u2 = datagen::uniform<2>(n, 1);
  for (const std::size_t c : {1u, 2u, 4u, 8u, 16u, 32u}) {
    std::printf("2D-U  c=%-4zu %10.2f ms\n", c,
                1e3 * time_op([&] { hull2d::divide_conquer(u2, c); }));
  }

  print_header("Ablation: 3D divide-and-conquer block factor",
               "dataset / c / time");
  auto u3 = datagen::uniform<3>(n, 2);
  for (const std::size_t c : {1u, 2u, 4u, 8u, 16u}) {
    std::printf("3D-U  c=%-4zu %10.2f ms\n", c,
                1e3 * time_op([&] { hull3d::divide_conquer(u3, c); }));
  }

  print_header("Ablation: pseudohull stop threshold", "threshold / time");
  auto is3 = datagen::in_sphere<3>(n, 3);
  for (const std::size_t thr : {8u, 32u, 64u, 256u, 1024u}) {
    std::printf("3D-IS thr=%-5zu %10.2f ms (survivors %zu)\n", thr,
                1e3 * time_op([&] { hull3d::pseudohull(is3, thr); }),
                hull3d::pseudohull_survivors(is3, thr));
  }

  print_header("Ablation: reservation batch factor (3D quickhull)",
               "c / time");
  for (const std::size_t c : {1u, 4u, 8u, 32u, 128u}) {
    std::printf("3D-IS c=%-4zu %10.2f ms\n", c,
                1e3 * time_op([&] { hull3d::reservation_quickhull(is3, c); }));
  }
  return 0;
}
