#include "hull/hull3d.h"

#include <algorithm>
#include <deque>

#include "hull/hull3d_impl.h"
#include "parallel/parallel.h"

namespace pargeo::hull3d {

using namespace detail;

namespace {

mesh emit_mesh(facet_arena& arena) {
  mesh m;
  const std::size_t total = arena.size();
  m.facets.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const facet* f = arena.get(i);
    if (!f->dead) m.facets.push_back(f->v);
  }
  return m;
}

// Selects the conflict point of f furthest from its plane (ties by index).
std::size_t furthest_conflict(const std::vector<pt>& pts, const facet* f) {
  std::size_t best = f->conflicts[0];
  double bd = f->plane.dist(pts[best]);
  for (const std::size_t q : f->conflicts) {
    const double d = f->plane.dist(pts[q]);
    if (d > bd || (d == bd && q < best)) {
      bd = d;
      best = q;
    }
  }
  return best;
}

// The first facet of the new fan, then of the ring, that p sees; nullptr
// if none, i.e. p is interior.
facet* new_home(const std::vector<pt>& pts, const pt& p,
                const std::vector<facet*>& fan,
                const std::vector<facet*>& ring) {
  for (facet* f : fan) {
    if (visible(pts, f, p)) return f;
  }
  for (facet* f : ring) {
    if (visible(pts, f, p)) return f;
  }
  return nullptr;
}

}  // namespace

std::vector<std::size_t> hull_vertices(const mesh& m) {
  std::vector<std::size_t> vs;
  vs.reserve(3 * m.facets.size());
  for (const auto& f : m.facets) {
    vs.insert(vs.end(), f.begin(), f.end());
  }
  std::sort(vs.begin(), vs.end());
  vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
  return vs;
}

// ---------------------------------------------------------------------
// Sequential quickhull with conflict lists (the CGAL/Qhull stand-in)
// ---------------------------------------------------------------------

mesh sequential_quickhull(const std::vector<pt>& pts, stats* st) {
  facet_arena arena;
  const auto simplex = initial_simplex(pts);
  auto tetra = make_tetrahedron(pts, arena, simplex);

  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i == simplex[0] || i == simplex[1] || i == simplex[2] ||
        i == simplex[3]) {
      continue;
    }
    for (facet* f : tetra) {
      if (visible(pts, f, pts[i])) {
        f->conflicts.push_back(i);
        break;
      }
    }
  }

  std::deque<facet*> work(tetra.begin(), tetra.end());
  region r;
  std::vector<facet*> nf;
  while (!work.empty()) {
    facet* f = work.front();
    work.pop_front();
    if (f->dead || f->conflicts.empty()) continue;
    const std::size_t p = furthest_conflict(pts, f);
    find_region(pts, pts[p], f, r);
    if (st != nullptr) st->facets_touched += r.visible.size();
    replace_region(pts, arena, p, r, nf);
    // Redistribute conflict points of the dead region to the new fan,
    // falling back to the ring; a point that sees neither is interior.
    // This is complete. A point that saw a dead facet and is still outside
    // the hull either sees a fan facet, or its visible region lies among
    // the old facets. On the old hull that region was connected and held
    // the dead facet, so it crosses the horizon into the ring, whose facets
    // survive with their planes. The reservation rounds use the same rule.
    for (facet* df : r.visible) {
      for (const std::size_t q : df->conflicts) {
        if (q == p) continue;
        if (st != nullptr) ++st->points_touched;
        facet* home = new_home(pts, pts[q], nf, r.ring);
        if (home != nullptr) {
          const bool was_empty = home->conflicts.empty();
          home->conflicts.push_back(q);
          // Ring facets may have been popped while empty; requeue them.
          if (was_empty) work.push_back(home);
        }
      }
      df->conflicts.clear();
      df->conflicts.shrink_to_fit();
    }
    for (facet* x : nf) {
      if (!x->conflicts.empty()) work.push_back(x);
    }
  }
  return emit_mesh(arena);
}

// ---------------------------------------------------------------------
// Parallel reservation-based incremental hull (randinc + quickhull)
// ---------------------------------------------------------------------

namespace {

// The 3D hooks of reservation::rounds: facets, their visible regions and
// fans.
struct facet_geometry {
  using cell = facet;
  using region = detail::region;

  const std::vector<pt>& pts;
  facet_arena& arena;

  void find(std::size_t p, facet* home, region& r) const {
    find_region(pts, pts[p], home, r);
  }
  void replace(std::size_t p, const region& r, std::vector<facet*>& fan) {
    replace_region(pts, arena, p, r, fan);
  }
  bool sees(const facet* f, std::size_t p) const {
    return visible(pts, f, pts[p]);
  }
  double dist(const facet* f, std::size_t p) const {
    return f->plane.dist(pts[p]);
  }
  // sequential_quickhull's rule: the smaller index.
  bool tie(const facet*, std::size_t a, std::size_t b) const { return a < b; }
};

mesh reservation_hull(const std::vector<pt>& pts, reservation::batch_rule rule,
                      std::size_t batch_factor, uint64_t seed, stats* st) {
  const auto simplex = initial_simplex(pts);
  facet_arena arena;
  const auto tetra = make_tetrahedron(pts, arena, simplex);
  facet_geometry geo{pts, arena};
  std::vector<std::size_t> order;
  if (rule == reservation::batch_rule::randinc) {
    order = par::random_permutation(pts.size(), seed);
  }
  reservation::rounds<facet_geometry> rounds(geo, pts.size(), rule,
                                             batch_factor, std::move(order));
  rounds.run({tetra.begin(), tetra.end()});
  if (st != nullptr) {
    st->points_touched += rounds.points_touched();
    st->facets_touched += rounds.facets_touched();
  }
  return emit_mesh(arena);
}

}  // namespace

mesh randinc(const std::vector<pt>& pts, std::size_t batch_factor,
             uint64_t seed, stats* st) {
  return reservation_hull(pts, reservation::batch_rule::randinc, batch_factor,
                          seed, st);
}

mesh reservation_quickhull(const std::vector<pt>& pts,
                           std::size_t batch_factor, stats* st) {
  return reservation_hull(pts, reservation::batch_rule::quickhull,
                          batch_factor, 1, st);
}

// ---------------------------------------------------------------------
// Divide and conquer
// ---------------------------------------------------------------------

mesh divide_conquer(const std::vector<pt>& pts, std::size_t block_factor) {
  const std::size_t n = pts.size();
  const std::size_t blocks = std::max<std::size_t>(
      1, std::min(n / 8 + 1, block_factor * par::num_workers()));
  if (blocks == 1) return sequential_quickhull(pts);
  const std::size_t per = (n + blocks - 1) / blocks;
  std::vector<std::vector<std::size_t>> partial(blocks);
  par::parallel_for(
      0, blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * per;
        const std::size_t hi = std::min(n, lo + per);
        if (lo >= hi) return;
        std::vector<pt> chunk(pts.begin() + lo, pts.begin() + hi);
        std::vector<std::size_t> vs;
        try {
          auto m = sequential_quickhull(chunk);
          vs = hull_vertices(m);
        } catch (const std::invalid_argument&) {
          // Degenerate chunk (e.g. coplanar): keep all of its points.
          vs.resize(hi - lo);
          for (std::size_t i = 0; i < vs.size(); ++i) vs[i] = i;
        }
        for (auto& v : vs) v += lo;
        partial[b] = std::move(vs);
      },
      1);
  auto candidates = par::flatten(partial);
  std::vector<pt> sub(candidates.size());
  par::parallel_for(0, candidates.size(),
                    [&](std::size_t i) { sub[i] = pts[candidates[i]]; });
  auto subMesh = reservation_quickhull(sub);
  par::parallel_for(0, subMesh.facets.size(), [&](std::size_t i) {
    for (auto& v : subMesh.facets[i]) v = candidates[v];
  });
  return subMesh;
}

}  // namespace pargeo::hull3d
