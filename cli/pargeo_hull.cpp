// CLI: convex hull of a CSV point set.
//
//   pargeo_hull <2|3> <in.csv> [method] [out.csv]
//
// methods (2D): seq | quickhull | randinc | resquickhull | dc (default)
// methods (3D): seq | randinc | quickhull | dc (default) | pseudo
// Writes hull vertex indices (2D: CCW order; 3D: one facet per line).
// A dimension other than exactly "2" or "3", or a method its dimension
// does not have, is a usage error (exit 2); a run that fails exits 1.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>

#include "core/timer.h"
#include "hull/hull2d.h"
#include "hull/hull3d.h"
#include "io/io.h"

using namespace pargeo;

namespace {

using hull2d_fn =
    std::function<std::vector<std::size_t>(const std::vector<point<2>>&)>;
using hull3d_fn = std::function<hull3d::mesh(const std::vector<point<3>>&)>;

const std::map<std::string, hull2d_fn> kMethods2d = {
    {"seq", [](const auto& p) { return hull2d::sequential_quickhull(p); }},
    {"quickhull", [](const auto& p) { return hull2d::quickhull(p); }},
    {"randinc", [](const auto& p) { return hull2d::randinc(p); }},
    {"resquickhull",
     [](const auto& p) { return hull2d::reservation_quickhull(p); }},
    {"dc", [](const auto& p) { return hull2d::divide_conquer(p); }},
};

const std::map<std::string, hull3d_fn> kMethods3d = {
    {"seq", [](const auto& p) { return hull3d::sequential_quickhull(p); }},
    {"randinc", [](const auto& p) { return hull3d::randinc(p); }},
    {"quickhull",
     [](const auto& p) { return hull3d::reservation_quickhull(p); }},
    {"dc", [](const auto& p) { return hull3d::divide_conquer(p); }},
    {"pseudo", [](const auto& p) { return hull3d::pseudohull(p); }},
};

int run2d(const std::string& in, const hull2d_fn& method,
          const std::string& out) {
  auto pts = io::read_csv<2>(in);
  timer t;
  const auto hull = method(pts);
  std::printf("%zu points -> %zu hull vertices in %.1f ms\n", pts.size(),
              hull.size(), 1e3 * t.elapsed());
  if (!out.empty()) {
    std::ofstream o(out);
    for (const std::size_t v : hull) o << v << '\n';
  }
  return 0;
}

int run3d(const std::string& in, const hull3d_fn& method,
          const std::string& out) {
  auto pts = io::read_csv<3>(in);
  timer t;
  const auto m = method(pts);
  std::printf("%zu points -> %zu facets (%zu vertices) in %.1f ms\n",
              pts.size(), m.facets.size(), hull3d::hull_vertices(m).size(),
              1e3 * t.elapsed());
  if (!out.empty()) {
    std::ofstream o(out);
    for (const auto& f : m.facets) {
      o << f[0] << ',' << f[1] << ',' << f[2] << '\n';
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <2|3> <in.csv> [method] [out.csv]\n",
                 argv[0]);
    return 2;
  }
  const std::string dim = argv[1];
  const std::string in = argv[2];
  const std::string method = argc > 3 ? argv[3] : "dc";
  const std::string out = argc > 4 ? argv[4] : "";
  if (dim != "2" && dim != "3") {
    std::fprintf(stderr, "dim must be 2 or 3 (got '%s')\n", dim.c_str());
    return 2;
  }
  const bool known = dim == "2" ? kMethods2d.count(method) != 0
                                : kMethods3d.count(method) != 0;
  if (!known) {
    std::fprintf(stderr, "unknown %sD method '%s'\n", dim.c_str(),
                 method.c_str());
    return 2;
  }
  try {
    return dim == "2" ? run2d(in, kMethods2d.at(method), out)
                      : run3d(in, kMethods3d.at(method), out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
