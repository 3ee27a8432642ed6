// Shared internal facet machinery for the 3D hull algorithms.
//
// Orientation convention (matches Shewchuk's orient3d): facets are stored
// counter-clockwise as seen from outside, so for a facet (a, b, c) and any
// interior point q, orient3d(a, b, c, q) > 0, and a point p is *visible*
// from the facet (outside its plane) iff orient3d(a, b, c, p) < 0.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/point.h"
#include "core/predicates.h"

namespace pargeo::hull3d::detail {

using pt = point<3>;

inline constexpr uint32_t kNoReservation =
    std::numeric_limits<uint32_t>::max();

struct facet {
  std::array<std::size_t, 3> v{};
  // nbr[i] is the facet across directed edge (v[i], v[(i+1)%3]).
  std::array<facet*, 3> nbr{};
  pt normal{};        // unnormalized outward normal
  double offset = 0;  // plane: normal . x == offset
  std::atomic<uint32_t> rsv{kNoReservation};
  std::atomic<uint64_t> best{0};
  uint32_t winner = 0;  // reservation hulls: slot of the winner that killed it
  bool dead = false;
  std::vector<std::size_t> conflicts;  // sequential algorithm only

  /// Positive outside the facet plane; used for furthest-point selection.
  double plane_dist(const pt& p) const { return normal.dot(p) - offset; }
};

/// Pointer-stable chunked facet allocator, safe for concurrent alloc().
class facet_arena {
 public:
  static constexpr std::size_t kBlockBits = 14;
  static constexpr std::size_t kBlock = std::size_t{1} << kBlockBits;
  static constexpr std::size_t kMaxBlocks = 1 << 14;  // ~268M facets cap

  facet* alloc() {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    while (i >= cap_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> g(grow_);
      const std::size_t cap = cap_.load(std::memory_order_relaxed);
      if (i >= cap) {
        const std::size_t b = cap >> kBlockBits;
        if (b >= kMaxBlocks) throw std::bad_alloc();
        blocks_[b] = std::make_unique<facet[]>(kBlock);
        cap_.store(cap + kBlock, std::memory_order_release);
      }
    }
    return get(i);
  }

  std::size_t size() const { return next_.load(std::memory_order_relaxed); }
  facet* get(std::size_t i) {
    return &blocks_[i >> kBlockBits][i & (kBlock - 1)];
  }

 private:
  std::array<std::unique_ptr<facet[]>, kMaxBlocks> blocks_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> cap_{0};
  std::mutex grow_;
};

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

/// Picks four affinely independent points, preferring spread-out extremes.
/// Throws std::invalid_argument if the input is degenerate (flat in 3D).
inline std::array<std::size_t, 4> initial_simplex(
    const std::vector<pt>& pts) {
  const std::size_t n = pts.size();
  if (n < 4) throw std::invalid_argument("3D hull needs >= 4 points");
  std::size_t a = 0, b = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (pts[i] < pts[a]) a = i;
    if (pts[b] < pts[i]) b = i;
  }
  if (pts[a] == pts[b]) {
    throw std::invalid_argument("3D hull of identical points");
  }
  const pt ab = pts[b] - pts[a];
  std::size_t c = n;
  double bestC = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = cross(ab, pts[i] - pts[a]).length_sq();
    if (d > bestC) {
      bestC = d;
      c = i;
    }
  }
  if (c == n) throw std::invalid_argument("3D hull of collinear points");
  std::size_t d = n;
  double bestD = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double vol = std::abs(orient3d(pts[a], pts[b], pts[c], pts[i]));
    if (vol > bestD) {
      bestD = vol;
      d = i;
    }
  }
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
};

/// Depth-first collection of the visible region starting from `f0`, which
/// must be visible from p. Read-only with local visited set, so safe to run
/// concurrently for many points.
inline void find_region(const std::vector<pt>& pts, const pt& p, facet* f0,
                        region& out) {
  out.visible.clear();
  out.horizon.clear();
  out.ring.clear();
  std::unordered_set<facet*> vis;
  vis.reserve(16);
  std::vector<facet*> stack{f0};
  vis.insert(f0);
  std::unordered_set<facet*> ringSet;
  while (!stack.empty()) {
    facet* f = stack.back();
    stack.pop_back();
    out.visible.push_back(f);
    for (int e = 0; e < 3; ++e) {
      facet* g = f->nbr[e];
      if (vis.count(g)) continue;
      if (visible(pts, g, p)) {
        vis.insert(g);
        stack.push_back(g);
      } else {
        out.horizon.emplace_back(f, e);
        if (ringSet.insert(g).second) out.ring.push_back(g);
      }
    }
  }
}

/// Replaces the visible region of apex point `p` (index into pts) with a
/// fan of new facets over the horizon and marks the old facets dead.
/// Returns the new facets. The caller must own every facet in `r.visible`
/// and `r.ring` (reservation winners / sequential).
inline std::vector<facet*> replace_region(const std::vector<pt>& pts,
                                          facet_arena& arena, std::size_t p,
                                          const region& r) {
  const std::size_t h = r.horizon.size();
  std::vector<facet*> nf(h);
  std::unordered_map<std::size_t, facet*> byStart, byEnd;
  byStart.reserve(h);
  byEnd.reserve(h);
  for (std::size_t i = 0; i < h; ++i) {
    auto [f, e] = r.horizon[i];
    const std::size_t u = f->v[e];
    const std::size_t w = f->v[(e + 1) % 3];
    facet* g = f->nbr[e];
    facet* x = arena.alloc();
    x->v = {u, w, p};
    set_plane(pts, x);
    x->nbr[0] = g;
    // Rewire g's edge (w, u) to the new facet.
    for (int e2 = 0; e2 < 3; ++e2) {
      if (g->v[e2] == w && g->v[(e2 + 1) % 3] == u) {
        g->nbr[e2] = x;
        break;
      }
    }
    nf[i] = x;
    byStart[u] = x;
    byEnd[w] = x;
  }
  // Fan adjacency: edge (w, p) borders the facet starting at w; edge (p, u)
  // borders the facet ending at u.
  for (facet* x : nf) {
    x->nbr[1] = byStart.at(x->v[1]);
    x->nbr[2] = byEnd.at(x->v[0]);
  }
  for (facet* f : r.visible) f->dead = true;
  return nf;
}

}  // namespace pargeo::hull3d::detail
