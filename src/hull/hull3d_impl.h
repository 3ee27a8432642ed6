// Facet machinery shared by the 3D hull algorithms: the facet (a
// reservation::cell with its plane and neighbours), the initial simplex,
// and the visible region of a point and its replacement by a fan, which
// sequential_quickhull and the reservation rounds (reservation.h) both use.
//
// Orientation convention (matches Shewchuk's orient3d): facets are stored
// counter-clockwise as seen from outside, so for a facet (a, b, c) and any
// interior point q, orient3d(a, b, c, q) > 0, and a point p is *visible*
// from the facet (outside its plane) iff orient3d(a, b, c, p) < 0.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/point.h"
#include "core/predicates.h"
#include "hull/reservation.h"
#include "parallel/parallel.h"

namespace pargeo::hull3d::detail {

using pt = point<3>;

/// A hull facet. Its conflict list (reservation::cell::conflicts) holds the
/// outside points homed on it.
struct facet : reservation::cell {
  std::array<std::size_t, 3> v{};
  // nbr[i] is the facet across directed edge (v[i], v[(i+1)%3]).
  std::array<facet*, 3> nbr{};
  pt normal{};        // unnormalized outward normal
  double offset = 0;  // plane: normal . x == offset

  /// Positive outside the facet plane; used for furthest-point selection.
  double plane_dist(const pt& p) const { return normal.dot(p) - offset; }
};

using facet_arena = reservation::cell_arena<facet>;

/// Strict visibility predicate (filtered, escalates to long double).
inline bool visible(const std::vector<pt>& pts, const facet* f,
                    const pt& p) {
  return orient3d(pts[f->v[0]], pts[f->v[1]], pts[f->v[2]], p) < 0;
}

inline void set_plane(const std::vector<pt>& pts, facet* f) {
  const pt& a = pts[f->v[0]];
  f->normal = cross(pts[f->v[1]] - a, pts[f->v[2]] - a);
  f->offset = f->normal.dot(a);
}

/// The first index in [0, n) with the largest key(i), or n if no key is
/// positive. A parallel reduction.
template <class Key>
std::size_t first_max(std::size_t n, const Key& key) {
  struct keyed {
    double k;
    std::size_t i;
  };
  struct view {
    std::size_t n;
    const Key& key;
    std::size_t size() const { return n; }
    keyed operator[](std::size_t i) const { return {key(i), i}; }
  };
  const keyed best = par::reduce(
      view{n, key}, keyed{0, n}, [](const keyed& x, const keyed& y) {
        return y.k > x.k || (y.k == x.k && y.i < x.i) ? y : x;
      });
  return best.k > 0 ? best.i : n;
}

/// Picks four affinely independent points, preferring spread-out extremes:
/// the lexicographic minimum and maximum, the point furthest from their
/// line, and the point furthest from the plane of those three, each the
/// first index among equals. Throws std::invalid_argument if the input is
/// degenerate (flat in 3D).
inline std::array<std::size_t, 4> initial_simplex(
    const std::vector<pt>& pts) {
  const std::size_t n = pts.size();
  if (n < 4) throw std::invalid_argument("3D hull needs >= 4 points");
  const std::size_t a = par::min_element_index(
      pts, [](const pt& x, const pt& y) { return x < y; });
  const std::size_t b = par::min_element_index(
      pts, [](const pt& x, const pt& y) { return y < x; });
  if (pts[a] == pts[b]) {
    throw std::invalid_argument("3D hull of identical points");
  }
  const pt ab = pts[b] - pts[a];
  const std::size_t c = first_max(n, [&](std::size_t i) {
    return cross(ab, pts[i] - pts[a]).length_sq();
  });
  if (c == n) throw std::invalid_argument("3D hull of collinear points");
  const std::size_t d = first_max(n, [&](std::size_t i) {
    return std::abs(orient3d(pts[a], pts[b], pts[c], pts[i]));
  });
  if (d == n || orient3d(pts[a], pts[b], pts[c], pts[d]) == 0) {
    throw std::invalid_argument("3D hull of coplanar points");
  }
  return {a, b, c, d};
}

/// Builds the four outward-oriented facets of the initial tetrahedron and
/// wires their adjacency. Returns the facet pointers.
inline std::array<facet*, 4> make_tetrahedron(
    const std::vector<pt>& pts, facet_arena& arena,
    const std::array<std::size_t, 4>& s) {
  static constexpr int tri[4][3] = {
      {0, 1, 2}, {0, 2, 3}, {0, 3, 1}, {1, 3, 2}};
  std::array<facet*, 4> fs{};
  for (int t = 0; t < 4; ++t) {
    facet* f = arena.alloc();
    f->v = {s[tri[t][0]], s[tri[t][1]], s[tri[t][2]]};
    const std::size_t other = s[0] + s[1] + s[2] + s[3] - f->v[0] -
                              f->v[1] - f->v[2];
    // Orient so the opposite tetrahedron vertex is inside (positive side).
    if (orient3d(pts[f->v[0]], pts[f->v[1]], pts[f->v[2]], pts[other]) < 0) {
      std::swap(f->v[1], f->v[2]);
    }
    set_plane(pts, f);
    fs[t] = f;
  }
  // Adjacency by matching reversed directed edges.
  for (int i = 0; i < 4; ++i) {
    for (int e = 0; e < 3; ++e) {
      const std::size_t u = fs[i]->v[e];
      const std::size_t w = fs[i]->v[(e + 1) % 3];
      for (int j = 0; j < 4; ++j) {
        if (j == i) continue;
        for (int e2 = 0; e2 < 3; ++e2) {
          if (fs[j]->v[e2] == w && fs[j]->v[(e2 + 1) % 3] == u) {
            fs[i]->nbr[e] = fs[j];
          }
        }
      }
    }
  }
  return fs;
}

/// The visible region of a point: facets it can see, the horizon (directed
/// edges of visible facets whose neighbor is not visible), and the distinct
/// alive facets just outside the horizon ("ring").
struct region {
  std::vector<facet*> visible;
  std::vector<std::pair<facet*, int>> horizon;  // (visible facet, edge idx)
  std::vector<facet*> ring;
  std::vector<facet*> stack;  // find_region's work stack
};

inline bool contains(const std::vector<facet*>& v, const facet* f) {
  return std::find(v.begin(), v.end(), f) != v.end();
}

/// Depth-first collection of the visible region starting from `f0`, which
/// must be visible from p. Read-only, so safe to run concurrently for many
/// points. Regions hold a few dozen facets, so membership is a linear scan:
/// a facet has been reached iff it is on the stack or already visited.
inline void find_region(const std::vector<pt>& pts, const pt& p, facet* f0,
                        region& out) {
  out.visible.clear();
  out.horizon.clear();
  out.ring.clear();
  out.stack.assign(1, f0);
  while (!out.stack.empty()) {
    facet* f = out.stack.back();
    out.stack.pop_back();
    out.visible.push_back(f);
    for (int e = 0; e < 3; ++e) {
      facet* g = f->nbr[e];
      if (contains(out.visible, g) || contains(out.stack, g)) continue;
      if (visible(pts, g, p)) {
        out.stack.push_back(g);
      } else {
        out.horizon.emplace_back(f, e);
        if (!contains(out.ring, g)) out.ring.push_back(g);
      }
    }
  }
}

/// Replaces the visible region of apex point `p` (index into pts) with a
/// fan of new facets over the horizon, one per horizon edge in horizon
/// order, and marks the old facets dead. The caller must own every facet in
/// `r.visible` and `r.ring` (reservation winners / sequential).
inline void replace_region(const std::vector<pt>& pts, facet_arena& arena,
                           std::size_t p, const region& r,
                           std::vector<facet*>& fan) {
  const std::size_t h = r.horizon.size();
  fan.resize(h);
  for (std::size_t i = 0; i < h; ++i) {
    auto [f, e] = r.horizon[i];
    const std::size_t u = f->v[e];
    const std::size_t w = f->v[(e + 1) % 3];
    facet* g = f->nbr[e];
    facet* x = arena.alloc();
    x->v = {u, w, p};
    set_plane(pts, x);
    x->nbr = {g, nullptr, nullptr};
    // Rewire g's edge (w, u) to the new facet.
    for (int e2 = 0; e2 < 3; ++e2) {
      if (g->v[e2] == w && g->v[(e2 + 1) % 3] == u) {
        g->nbr[e2] = x;
        break;
      }
    }
    fan[i] = x;
  }
  // Fan adjacency: edge (w, p) borders the facet starting at w; edge (p, u)
  // borders the facet ending at u.
  for (facet* x : fan) {
    for (facet* y : fan) {
      if (y->v[0] == x->v[1]) x->nbr[1] = y;
      if (y->v[1] == x->v[0]) x->nbr[2] = y;
    }
    if (x->nbr[1] == nullptr || x->nbr[2] == nullptr) {
      throw std::logic_error("3D hull: horizon is not a closed cycle");
    }
  }
  for (facet* f : r.visible) f->dead = true;
}

}  // namespace pargeo::hull3d::detail
