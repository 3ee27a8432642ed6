#include "hull/hull2d.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "core/predicates.h"
#include "hull/reservation.h"
#include "parallel/parallel.h"

namespace pargeo::hull2d {

namespace {

using pt = point<2>;

// A point is outside (visible from) the directed CCW hull edge (u, w) iff
// it lies strictly to the right of u->w.
inline bool visible(const pt& u, const pt& w, const pt& p) {
  return orient2d(u, w, p) < 0;
}

// Squared-ish distance proxy of p from line (u,w): |cross| is proportional
// to the true distance for a fixed edge, which is all furthest-point
// selection needs.
inline double line_dist(const pt& u, const pt& w, const pt& p) {
  return -orient2d(u, w, p);
}

// Tie-break for points equally far from line u->v: further along u->v,
// then smaller index. Picking by index alone could take a point inside a
// hull edge as a vertex.
inline bool further_along(const std::vector<pt>& pts, std::size_t u,
                          std::size_t v, std::size_t a, std::size_t b) {
  const pt dir = pts[v] - pts[u];
  const double pa = dir.dot(pts[a]);
  const double pb = dir.dot(pts[b]);
  return pa > pb || (pa == pb && a < b);
}

/// Rotates hull indices so they start at the lexicographically smallest
/// vertex; all public functions return this canonical form.
std::vector<std::size_t> canonicalize(const std::vector<pt>& pts,
                                      std::vector<std::size_t> hull) {
  if (hull.size() < 2) return hull;
  std::size_t pos = 0;
  for (std::size_t i = 1; i < hull.size(); ++i) {
    if (pts[hull[i]] < pts[hull[pos]]) pos = i;
  }
  std::rotate(hull.begin(), hull.begin() + pos, hull.end());
  return hull;
}

// ---------------------------------------------------------------------
// Sequential quickhull
// ---------------------------------------------------------------------

// Appends to `out` the chain of hull vertices strictly between u and v on
// the right side of u->v. `cand` holds candidate indices (all right of
// u->v).
void qh_chain_seq(const std::vector<pt>& pts, std::size_t u, std::size_t v,
                  std::vector<std::size_t>& cand,
                  std::vector<std::size_t>& out) {
  if (cand.empty()) return;
  std::size_t c = cand[0];
  double best = line_dist(pts[u], pts[v], pts[c]);
  for (std::size_t i : cand) {
    const double d = line_dist(pts[u], pts[v], pts[i]);
    if (d > best || (d == best && further_along(pts, u, v, i, c))) {
      best = d;
      c = i;
    }
  }
  std::vector<std::size_t> s1, s2;
  for (std::size_t i : cand) {
    if (i == c) continue;
    if (visible(pts[u], pts[c], pts[i])) {
      s1.push_back(i);
    } else if (visible(pts[c], pts[v], pts[i])) {
      s2.push_back(i);
    }
  }
  cand.clear();
  cand.shrink_to_fit();
  qh_chain_seq(pts, u, c, s1, out);
  out.push_back(c);
  qh_chain_seq(pts, c, v, s2, out);
}

// ---------------------------------------------------------------------
// Parallel recursive quickhull (PBBS-style)
// ---------------------------------------------------------------------

void qh_chain_par(const std::vector<pt>& pts, std::size_t u, std::size_t v,
                  std::vector<std::size_t> cand,
                  std::vector<std::size_t>& out) {
  constexpr std::size_t kSeqCutoff = 4096;
  if (cand.size() <= kSeqCutoff) {
    qh_chain_seq(pts, u, v, cand, out);
    return;
  }
  const std::size_t ci = par::min_element_index(
      cand, [&](std::size_t a, std::size_t b) {
        const double da = line_dist(pts[u], pts[v], pts[a]);
        const double db = line_dist(pts[u], pts[v], pts[b]);
        return da > db || (da == db && further_along(pts, u, v, a, b));
      });
  const std::size_t c = cand[ci];
  std::vector<std::size_t> s1, s2;
  par::par_do(
      [&] {
        s1 = par::filter(cand, [&](std::size_t i) {
          return i != c && visible(pts[u], pts[c], pts[i]);
        });
      },
      [&] {
        s2 = par::filter(cand, [&](std::size_t i) {
          return i != c && visible(pts[c], pts[v], pts[i]);
        });
      });
  cand.clear();
  cand.shrink_to_fit();
  std::vector<std::size_t> left, right;
  par::par_do([&] { qh_chain_par(pts, u, c, std::move(s1), left); },
              [&] { qh_chain_par(pts, c, v, std::move(s2), right); });
  out.reserve(out.size() + left.size() + right.size() + 1);
  out.insert(out.end(), left.begin(), left.end());
  out.push_back(c);
  out.insert(out.end(), right.begin(), right.end());
}

std::vector<std::size_t> hull_from_extremes(
    const std::vector<pt>& pts,
    const std::function<void(std::size_t, std::size_t,
                             std::vector<std::size_t>,
                             std::vector<std::size_t>&)>& chain) {
  const std::size_t n = pts.size();
  std::size_t a = 0, b = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (pts[i] < pts[a]) a = i;
    if (pts[b] < pts[i]) b = i;
  }
  if (pts[a] == pts[b]) return {a};  // all points identical
  std::vector<std::size_t> below, above;
  for (std::size_t i = 0; i < n; ++i) {
    if (visible(pts[a], pts[b], pts[i])) {
      below.push_back(i);
    } else if (visible(pts[b], pts[a], pts[i])) {
      above.push_back(i);
    }
  }
  std::vector<std::size_t> hull;
  hull.push_back(a);
  chain(a, b, std::move(below), hull);
  hull.push_back(b);
  chain(b, a, std::move(above), hull);
  return hull;
}

// ---------------------------------------------------------------------
// Reservation-based incremental algorithms (randinc / quickhull batches)
// ---------------------------------------------------------------------

struct edge : reservation::cell {
  std::size_t u = 0, w = 0;  // directed CCW: interior is to the left
  edge* prev = nullptr;
  edge* next = nullptr;
};

// The contiguous visible arc of a point, materialized at find time: later
// phases must not chase next/prev pointers because winners rewire the ring
// while losers' arcs still reference replaced edges.
struct arc {
  std::vector<edge*> visible;  // in CCW order
  std::vector<edge*> ring;     // the alive edges before and after the arc;
                               // one edge if they coincide
};

// The 2D hooks of reservation::rounds: edges, arcs and two-edge fans.
struct edge_geometry {
  using cell = edge;
  using region = arc;

  const std::vector<pt>& pts;
  reservation::cell_arena<edge>& arena;

  void find(std::size_t p, edge* ref, arc& a) const {
    edge* first = ref;
    while (true) {
      edge* e = first->prev;
      if (e == ref || !sees(e, p)) break;
      first = e;
    }
    a.visible.clear();
    for (edge* e = first;; e = e->next) {
      a.visible.push_back(e);
      edge* nx = e->next;
      if (nx == first || !sees(nx, p)) break;
    }
    a.ring.assign(1, first->prev);
    if (a.visible.back()->next != first->prev) {
      a.ring.push_back(a.visible.back()->next);
    }
  }
  // The fan is the two edges into and out of p, between the ring edges.
  void replace(std::size_t p, const arc& a, std::vector<edge*>& fan) const {
    edge* ringL = a.ring.front();
    edge* ringR = a.ring.back();
    edge* n1 = arena.alloc();
    edge* n2 = arena.alloc();
    n1->u = a.visible.front()->u;
    n1->w = p;
    n2->u = p;
    n2->w = a.visible.back()->w;
    n1->prev = ringL;
    n1->next = n2;
    n2->prev = n1;
    n2->next = ringR;
    ringL->next = n1;
    ringR->prev = n2;
    for (edge* e : a.visible) e->dead = true;
    fan.assign({n1, n2});
  }
  bool sees(const edge* e, std::size_t p) const {
    return visible(pts[e->u], pts[e->w], pts[p]);
  }
  double dist(const edge* e, std::size_t p) const {
    return line_dist(pts[e->u], pts[e->w], pts[p]);
  }
  // sequential_quickhull's rule: further along the edge, then the smaller
  // index.
  bool tie(const edge* e, std::size_t a, std::size_t b) const {
    return further_along(pts, e->u, e->w, a, b);
  }
};

std::vector<std::size_t> run_reservation(const std::vector<pt>& pts,
                                         reservation::batch_rule rule,
                                         std::size_t batch_factor,
                                         uint64_t seed) {
  const std::size_t n = pts.size();
  if (n == 0) return {};
  if (n == 1) return {0};
  // Point processing order: random permutation for the randomized
  // incremental variant, input order for quickhull (selection is by
  // furthest distance there).
  std::vector<std::size_t> order;
  if (rule == reservation::batch_rule::randinc) {
    order = par::random_permutation(n, seed);
  }
  const auto at = [&](std::size_t i) { return order.empty() ? i : order[i]; };

  // First two distinct points plus a non-collinear third.
  const std::size_t a = at(0);
  std::size_t b = n, c = n;
  for (std::size_t i = 1; i < n; ++i) {
    if (pts[at(i)] != pts[a]) {
      b = at(i);
      break;
    }
  }
  if (b == n) return {a};  // all identical
  for (std::size_t i = 1; i < n; ++i) {
    if (orient2d(pts[a], pts[b], pts[at(i)]) != 0) {
      c = at(i);
      break;
    }
  }
  if (c == n) {  // all collinear: hull = extreme pair
    std::size_t lo = a, hi = a;
    for (std::size_t i = 0; i < n; ++i) {
      if (pts[at(i)] < pts[lo]) lo = at(i);
      if (pts[hi] < pts[at(i)]) hi = at(i);
    }
    return canonicalize(pts, {lo, hi});
  }
  if (orient2d(pts[a], pts[b], pts[c]) < 0) std::swap(b, c);
  reservation::cell_arena<edge> arena;
  edge* e0 = arena.alloc();
  edge* e1 = arena.alloc();
  edge* e2 = arena.alloc();
  e0->u = a; e0->w = b;
  e1->u = b; e1->w = c;
  e2->u = c; e2->w = a;
  e0->next = e1; e1->next = e2; e2->next = e0;
  e0->prev = e2; e1->prev = e0; e2->prev = e1;

  edge_geometry geo{pts, arena};
  reservation::rounds<edge_geometry> rounds(geo, n, rule, batch_factor,
                                            std::move(order));
  rounds.run({e0, e1, e2});

  // Walk the final edge ring, from any alive edge, to emit the hull CCW.
  std::size_t i = 0;
  while (arena.get(i)->dead) ++i;
  std::vector<std::size_t> ccw;
  const edge* start = arena.get(i);
  const edge* e = start;
  do {
    ccw.push_back(e->u);
    e = e->next;
  } while (e != start);

  // A point collinear with a hull edge does not see it, so the hull can
  // grow past the edge's end and leave a straight-angle vertex. The polygon
  // is convex with no repeated point, so drop each vertex collinear with
  // its neighbours; hull[0], the lexicographic minimum, always stays.
  const auto hull = canonicalize(pts, std::move(ccw));
  const std::size_t h = hull.size();
  std::vector<std::size_t> strict;
  for (std::size_t k = 0; k < h; ++k) {
    if (orient2d(pts[hull[(k + h - 1) % h]], pts[hull[k]],
                 pts[hull[(k + 1) % h]]) != 0) {
      strict.push_back(hull[k]);
    }
  }
  return strict;
}

}  // namespace

std::vector<std::size_t> sequential_quickhull(
    const std::vector<pt>& pts) {
  if (pts.empty()) return {};
  auto hull = hull_from_extremes(
      pts, [&](std::size_t u, std::size_t v, std::vector<std::size_t> cand,
               std::vector<std::size_t>& out) {
        qh_chain_seq(pts, u, v, cand, out);
      });
  return canonicalize(pts, std::move(hull));
}

std::vector<std::size_t> quickhull(const std::vector<pt>& pts) {
  if (pts.empty()) return {};
  auto hull = hull_from_extremes(
      pts, [&](std::size_t u, std::size_t v, std::vector<std::size_t> cand,
               std::vector<std::size_t>& out) {
        qh_chain_par(pts, u, v, std::move(cand), out);
      });
  return canonicalize(pts, std::move(hull));
}

std::vector<std::size_t> randinc(const std::vector<pt>& pts,
                                 std::size_t batch_factor, uint64_t seed) {
  return run_reservation(pts, reservation::batch_rule::randinc, batch_factor,
                         seed);
}

std::vector<std::size_t> reservation_quickhull(
    const std::vector<pt>& pts, std::size_t batch_factor) {
  return run_reservation(pts, reservation::batch_rule::quickhull,
                         batch_factor, 1);
}

std::vector<std::size_t> divide_conquer(const std::vector<pt>& pts,
                                        std::size_t block_factor) {
  const std::size_t n = pts.size();
  if (n == 0) return {};
  const std::size_t blocks = std::max<std::size_t>(
      1, std::min(n / 4 + 1, block_factor * par::num_workers()));
  const std::size_t per = (n + blocks - 1) / blocks;
  std::vector<std::vector<std::size_t>> partial(blocks);
  par::parallel_for(
      0, blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * per;
        const std::size_t hi = std::min(n, lo + per);
        if (lo >= hi) return;
        std::vector<pt> chunk(pts.begin() + lo, pts.begin() + hi);
        auto h = sequential_quickhull(chunk);
        for (auto& v : h) v += lo;  // back to global indices
        partial[b] = std::move(h);
      },
      1);
  auto candidates = par::flatten(partial);
  std::vector<pt> sub(candidates.size());
  par::parallel_for(0, candidates.size(),
                    [&](std::size_t i) { sub[i] = pts[candidates[i]]; });
  auto subHull = quickhull(sub);
  std::vector<std::size_t> hull(subHull.size());
  par::parallel_for(0, subHull.size(),
                    [&](std::size_t i) { hull[i] = candidates[subHull[i]]; });
  return canonicalize(pts, std::move(hull));
}

}  // namespace pargeo::hull2d
