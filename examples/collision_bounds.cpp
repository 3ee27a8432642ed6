// Bounding-volume computation for a scanned object (the graphics/robotics
// workload from the paper's introduction): convex hull + smallest
// enclosing ball of a scanned-surface point cloud, comparing the hull
// algorithms and verifying the ball against the hull.
//
//   $ ./collision_bounds [n]
#include <cstdio>
#include <cstdlib>

#include "pargeo.h"

using namespace pargeo;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::atoll(argv[1]) : 200000;
  // Proxy for a dense 3D scan such as the paper's Thai-statue / Dragon
  // datasets, which are not shipped.
  auto cloud = datagen::synthetic_statue(n, 3);
  std::printf("collision bounds for a %zu-point scanned surface\n", n);

  timer t;
  auto meshDq = hull3d::divide_conquer(cloud);
  const double tDq = t.elapsed();
  t.reset();
  auto meshPs = hull3d::pseudohull(cloud);
  const double tPs = t.elapsed();
  t.reset();
  auto meshSeq = hull3d::sequential_quickhull(cloud);
  const double tSeq = t.elapsed();

  std::printf("hull facets: d&c %zu (%.1f ms), pseudo %zu (%.1f ms), "
              "seq %zu (%.1f ms)\n",
              meshDq.facets.size(), 1e3 * tDq, meshPs.facets.size(),
              1e3 * tPs, meshSeq.facets.size(), 1e3 * tSeq);
  std::printf("methods agree: %s\n",
              hull3d::hull_vertices(meshDq) == hull3d::hull_vertices(meshPs)
                  ? "yes"
                  : "NO (bug!)");

  t.reset();
  auto ball = seb::sampling<3>(cloud);
  std::printf("bounding sphere: radius %.3f (%.1f ms)\n", ball.radius,
              1e3 * t.elapsed());

  // The ball must cover every hull vertex (hence the whole cloud).
  bool ok = true;
  for (const std::size_t v : hull3d::hull_vertices(meshDq)) {
    ok = ok && ball.contains(cloud[v], 1e-7);
  }
  std::printf("sphere covers hull: %s\n", ok ? "yes" : "NO (bug!)");

  // Volume of the hull via the divergence theorem (signed tetrahedra).
  double vol = 0;
  for (const auto& f : meshDq.facets) {
    const auto& a = cloud[f[0]];
    const auto& b = cloud[f[1]];
    const auto& c = cloud[f[2]];
    vol += a.dot(cross(b, c)) / 6.0;
  }
  const double rb = ball.radius;
  std::printf("hull volume %.1f vs sphere volume %.1f (ratio %.2f)\n",
              std::abs(vol), 4.0 / 3.0 * 3.14159265358979 * rb * rb * rb,
              std::abs(vol) / (4.0 / 3.0 * 3.14159265358979 * rb * rb * rb));
  return 0;
}
