// Facet machinery shared by the 3D hull algorithms: the facet (a
// reservation::cell with its plane and neighbours), the initial simplex,
// and the visible region of a point and its replacement by a fan, which
// sequential_quickhull and the reservation rounds (reservation.h) both use.
//
// Orientation convention (matches Shewchuk's orient3d): facets are stored
// counter-clockwise as seen from outside, so for a facet (a, b, c) and any
// interior point q, orient3d(a, b, c, q) > 0, and a point p is *visible*
// from the facet (outside its plane) iff orient3d(a, b, c, p) < 0.
//
// Visibility is decided on the facet's stored plane where a forward error
// bound allows (Shewchuk's static filter, DCG 1997). With eps = 2^-53,
// u = fl(b - a), w = fl(c - a), n = fl(u x w) and
// M = (|u_y w_z| + |u_z w_y|, |u_z w_x| + |u_x w_z|, |u_x w_y| + |u_y w_x|),
// each n_i is within 4 eps M_i of the exact normal's. For d = fl(p - a),
// t = fl(n . d) adds at most 4 eps sum |n_i| |d_i| more, so t is within about
// 9 eps sum M_i |d_i| of the exact N . (p - a). The facet keeps
// err_i = 12 eps M_i, which leaves a margin for the rounding of the bound
// e = sum err_i |d_i| itself: t > e proves p outside, t < -e inside, and
// anything else goes to orient3d. The bound assumes no product underflowed
// or overflowed: a plane whose cross product lost bits to underflow never
// decides, and neither does an e that is zero or subnormal or a t that is
// not finite.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/point.h"
#include "core/predicates.h"
#include "hull/reservation.h"
#include "parallel/parallel.h"

namespace pargeo::hull3d::detail {

using pt = point<3>;

/// A facet's plane, computed once from its vertices a, b, c, with the error
/// weights of the visibility filter (see the header).
struct facet_plane {
  pt origin{};        // a, the first vertex
  pt normal{};        // fl((b - a) x (c - a)), pointing outward
  pt err{};           // per-axis error weights
  double offset = 0;  // normal . a: the plane is normal . x == offset

  facet_plane() = default;
  facet_plane(const pt& a, const pt& b, const pt& c) : origin(a) {
    const pt u = b - a, w = c - a;
    normal = cross(u, w);
    offset = normal.dot(a);
    bool lost = false;
    const auto mag = [&](double x, double y) {
      const double m = std::abs(x * y);
      lost = lost || (m < kMin && x != 0 && y != 0);
      return m;
    };
    err[0] = kErr * (mag(u[1], w[2]) + mag(u[2], w[1]));
    err[1] = kErr * (mag(u[2], w[0]) + mag(u[0], w[2]));
    err[2] = kErr * (mag(u[0], w[1]) + mag(u[1], w[0]));
    if (lost) err = pt{{kInf, kInf, kInf}};
  }

  /// Positive outside the plane; used for furthest-point selection.
  double dist(const pt& p) const { return normal.dot(p) - offset; }

  /// The filter's verdict on p: +1 if p is certainly outside the plane, -1
  /// if certainly not, 0 if the bound cannot tell (p on or near the plane).
  int side(const pt& p) const {
    const double dx = p[0] - origin[0], dy = p[1] - origin[1],
                 dz = p[2] - origin[2];
    const double t = normal[0] * dx + normal[1] * dy + normal[2] * dz;
    const double e = err[0] * std::abs(dx) + err[1] * std::abs(dy) +
                     err[2] * std::abs(dz);
    if (!(e >= kMin && std::abs(t) <= kMax)) return 0;
    return t > e ? 1 : t < -e ? -1 : 0;
  }

 private:
  static constexpr double kErr = 12 * 0x1p-53;  // 12 eps
  static constexpr double kMin = std::numeric_limits<double>::min();
  static constexpr double kMax = std::numeric_limits<double>::max();
  static constexpr double kInf = std::numeric_limits<double>::infinity();
};

/// A hull facet. Its conflict list (reservation::cell::conflicts) holds the
/// outside points homed on it.
struct facet : reservation::cell {
  std::array<std::size_t, 3> v{};
  // nbr[i] is the facet across directed edge (v[i], v[(i+1)%3]).
  std::array<facet*, 3> nbr{};
  facet_plane plane;
};

using facet_arena = reservation::cell_arena<facet>;

/// Strict visibility of p from the facet with vertices v and plane h:
/// orient3d(a, b, c, p) < 0, decided by the plane filter where it can.
inline bool visible(const std::vector<pt>& pts,
                    const std::array<std::size_t, 3>& v,
                    const facet_plane& h, const pt& p) {
  if (const int s = h.side(p)) return s > 0;
  return orient3d(pts[v[0]], pts[v[1]], pts[v[2]], p) < 0;
}

inline bool visible(const std::vector<pt>& pts, const facet* f,
                    const pt& p) {
  return visible(pts, f->v, f->plane, p);
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
    f->plane = facet_plane(pts[f->v[0]], pts[f->v[1]], pts[f->v[2]]);
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
    x->plane = facet_plane(pts[u], pts[w], pts[p]);
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
