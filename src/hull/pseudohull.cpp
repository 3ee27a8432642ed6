// Pseudohull point culling (Tang et al., adapted for multicore — paper §3).
//
// Starting from the initial tetrahedron, each facet is recursively grown
// toward the furthest point among the points above it, splitting its point
// set across three child facets. Points below all children are interior to
// the growing pseudohull and are discarded. Recursion stops when a facet
// owns at most `threshold` points (stack-depth safeguard from the paper);
// the survivors plus all pseudohull vertices feed the final parallel
// reservation-based quickhull.
#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>

#include "hull/hull3d.h"
#include "hull/hull3d_impl.h"
#include "parallel/parallel.h"

namespace pargeo::hull3d {

using namespace detail;

namespace {

struct cull_context {
  const std::vector<pt>& pts;
  std::size_t threshold;
  std::mutex out_mutex;
  std::vector<std::size_t> survivors;

  void emit(const std::vector<std::size_t>& ids,
            const std::array<std::size_t, 3>& v) {
    std::lock_guard<std::mutex> g(out_mutex);
    survivors.insert(survivors.end(), ids.begin(), ids.end());
    survivors.insert(survivors.end(), v.begin(), v.end());
  }
};

// A facet of the growing pseudohull: its vertices, outward as in
// hull3d_impl.h, and its plane.
struct growing {
  std::array<std::size_t, 3> v;
  facet_plane plane;
};

growing make_growing(const std::vector<pt>& pts, std::size_t a,
                     std::size_t b, std::size_t c) {
  return {{a, b, c}, facet_plane(pts[a], pts[b], pts[c])};
}

void grow(cull_context& ctx, const growing& f, std::vector<std::size_t> own) {
  if (own.size() <= ctx.threshold) {
    ctx.emit(own, f.v);
    return;
  }
  const auto& pts = ctx.pts;
  // Furthest point from the facet plane (unnormalized distance suffices).
  std::size_t p = own[0];
  double bd = f.plane.dist(pts[p]);
  for (const std::size_t q : own) {
    const double d = f.plane.dist(pts[q]);
    if (d > bd || (d == bd && q < p)) {
      bd = d;
      p = q;
    }
  }
  // Split the points among the three child facets; points below all three
  // are inside tetra(a, b, c, p) and hence interior -> dropped.
  const auto [a, b, c] = f.v;
  const growing kids[3] = {make_growing(pts, a, b, p),
                           make_growing(pts, b, c, p),
                           make_growing(pts, c, a, p)};
  std::vector<std::size_t> s[3];
  for (const std::size_t q : own) {
    if (q == p) continue;
    for (int k = 0; k < 3; ++k) {
      if (visible(pts, kids[k].v, kids[k].plane, pts[q])) {
        s[k].push_back(q);
        break;
      }
    }
  }
  own.clear();
  own.shrink_to_fit();
  const bool spawn = s[0].size() + s[1].size() + s[2].size() > 4096;
  if (spawn) {
    par::par_do3([&] { grow(ctx, kids[0], std::move(s[0])); },
                 [&] { grow(ctx, kids[1], std::move(s[1])); },
                 [&] { grow(ctx, kids[2], std::move(s[2])); });
  } else {
    for (int k = 0; k < 3; ++k) grow(ctx, kids[k], std::move(s[k]));
  }
}

std::vector<std::size_t> cull(const std::vector<pt>& pts,
                              std::size_t threshold) {
  cull_context ctx{pts, threshold, {}, {}};
  const auto simplex = initial_simplex(pts);
  // Build the four outward root facets (reusing the tetrahedron helper via
  // a throwaway arena just for orientation/adjacency bookkeeping).
  facet_arena arena;
  auto tetra = make_tetrahedron(pts, arena, simplex);
  std::array<std::vector<std::size_t>, 4> own;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i == simplex[0] || i == simplex[1] || i == simplex[2] ||
        i == simplex[3]) {
      continue;
    }
    for (int t = 0; t < 4; ++t) {
      if (visible(pts, tetra[t], pts[i])) {
        own[t].push_back(i);
        break;
      }
    }
  }
  for (const std::size_t s : simplex) ctx.survivors.push_back(s);
  par::parallel_for(
      0, 4,
      [&](std::size_t t) {
        grow(ctx, {tetra[t]->v, tetra[t]->plane}, std::move(own[t]));
      },
      1);
  auto& sv = ctx.survivors;
  std::sort(sv.begin(), sv.end());
  sv.erase(std::unique(sv.begin(), sv.end()), sv.end());
  return sv;
}

}  // namespace

std::size_t pseudohull_survivors(const std::vector<pt>& pts,
                                 std::size_t threshold) {
  return cull(pts, threshold).size();
}

mesh pseudohull(const std::vector<pt>& pts, std::size_t threshold) {
  auto survivors = cull(pts, threshold);
  std::vector<pt> sub(survivors.size());
  par::parallel_for(0, survivors.size(),
                    [&](std::size_t i) { sub[i] = pts[survivors[i]]; });
  auto m = reservation_quickhull(sub);
  par::parallel_for(0, m.facets.size(), [&](std::size_t i) {
    for (auto& v : m.facets[i]) v = survivors[v];
  });
  return m;
}

}  // namespace pargeo::hull3d
