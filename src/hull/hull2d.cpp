#include "hull/hull2d.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/predicates.h"
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

constexpr uint32_t kNoReservation = std::numeric_limits<uint32_t>::max();

struct edge {
  std::size_t u = 0, w = 0;  // directed CCW: interior is to the left
  edge* prev = nullptr;
  edge* next = nullptr;
  edge* replacement = nullptr;  // the winner's first new edge once dead
  std::atomic<uint32_t> rsv{kNoReservation};
  std::atomic<uint64_t> best{0};  // quickhull furthest-point encoding
  bool dead = false;
};

inline uint64_t encode_best(double dist, uint32_t rank) {
  // Positive doubles cast to float keep order under bit reinterpretation;
  // invert rank so larger encoded value == smaller rank on distance ties.
  const float f = static_cast<float>(dist);
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(f));
  __builtin_memcpy(&bits, &f, sizeof(bits));
  return (static_cast<uint64_t>(bits) << 32) |
         static_cast<uint64_t>(~rank);
}
inline uint32_t decode_best_rank(uint64_t enc) {
  return ~static_cast<uint32_t>(enc & 0xffffffffu);
}

// Shared machinery for the two reservation-based variants. Works on a pool
// of candidate points, each holding a reference to one visible edge.
class reservation_hull {
 public:
  enum class mode { randinc, quickhull };

  reservation_hull(const std::vector<pt>& pts, mode m,
                   std::size_t batch_factor, uint64_t seed)
      : pts_(pts), mode_(m) {
    batch_ = std::max<std::size_t>(1, batch_factor * par::num_workers());
    const std::size_t n = pts.size();
    arena_ = std::make_unique<edge[]>(2 * n + 8);

    // Point processing order: random permutation for the randomized
    // incremental variant, input order for quickhull (selection is by
    // furthest-distance there).
    std::vector<std::size_t> order(n);
    if (mode_ == mode::randinc) {
      auto perm = par::random_permutation(n, seed);
      for (std::size_t i = 0; i < n; ++i) order[i] = perm[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
    }

    init_hull(order);
  }

  std::vector<std::size_t> run() {
    while (!pool_.empty()) round();
    // Walk the final edge ring to emit the hull CCW.
    std::vector<std::size_t> hull;
    edge* e = head_;
    while (e->dead) e = e->replacement;
    edge* start = e;
    do {
      hull.push_back(e->u);
      e = e->next;
    } while (e != start);
    return hull;
  }

 private:
  struct pool_entry {
    std::size_t pid;   // index into pts_
    uint32_t rank;     // fixed priority (processing order position)
    edge* ref;         // one edge this point is visible from
  };

  void init_hull(const std::vector<std::size_t>& order) {
    const std::size_t n = order.size();
    // First two distinct points plus a non-collinear third.
    std::size_t a = order[0], b = n, c = n;
    for (std::size_t i = 1; i < n; ++i) {
      if (pts_[order[i]] != pts_[a]) {
        b = order[i];
        break;
      }
    }
    if (b == n) {  // all identical
      trivial_ = {a};
      return;
    }
    for (std::size_t i = 1; i < n; ++i) {
      if (orient2d(pts_[a], pts_[b], pts_[order[i]]) != 0) {
        c = order[i];
        break;
      }
    }
    if (c == n) {  // all collinear: hull = extreme pair
      std::size_t lo = a, hi = a;
      for (std::size_t i = 0; i < n; ++i) {
        if (pts_[order[i]] < pts_[lo]) lo = order[i];
        if (pts_[hi] < pts_[order[i]]) hi = order[i];
      }
      trivial_ = {lo, hi};
      return;
    }
    if (orient2d(pts_[a], pts_[b], pts_[c]) < 0) std::swap(b, c);
    edge* e0 = alloc();
    edge* e1 = alloc();
    edge* e2 = alloc();
    e0->u = a; e0->w = b;
    e1->u = b; e1->w = c;
    e2->u = c; e2->w = a;
    e0->next = e1; e1->next = e2; e2->next = e0;
    e0->prev = e2; e1->prev = e0; e2->prev = e1;
    head_ = e0;

    // Initial assignment: each point picks one visible edge or is dropped.
    std::vector<pool_entry> pool(order.size());
    std::vector<uint8_t> keep(order.size());
    par::parallel_for(0, order.size(), [&](std::size_t i) {
      const std::size_t pid = order[i];
      edge* ref = nullptr;
      if (pid != a && pid != b && pid != c) {
        for (edge* e : {e0, e1, e2}) {
          if (visible(pts_[e->u], pts_[e->w], pts_[pid])) {
            ref = e;
            break;
          }
        }
      }
      pool[i] = {pid, static_cast<uint32_t>(i), ref};
      keep[i] = ref != nullptr;
    });
    pool_ = par::pack(pool, keep);
  }

  edge* alloc() { return &arena_[next_edge_.fetch_add(1)]; }

  // The contiguous visible arc of a candidate, materialized at find time:
  // later phases must not chase next/prev pointers because winners rewire
  // the ring while losers' arcs still reference replaced edges.
  struct arc {
    std::vector<edge*> edges;  // visible edges, in CCW order
    edge* ringL = nullptr;     // alive edge before the arc
    edge* ringR = nullptr;     // alive edge after the arc
  };
  arc find_arc(const pt& q, edge* ref) const {
    edge* first = ref;
    while (true) {
      edge* p = first->prev;
      if (p == ref || !visible(pts_[p->u], pts_[p->w], q)) break;
      first = p;
    }
    arc a;
    for (edge* e = first;; e = e->next) {
      a.edges.push_back(e);
      edge* nx = e->next;
      if (nx == first || !visible(pts_[nx->u], pts_[nx->w], q)) break;
    }
    a.ringL = first->prev;
    a.ringR = a.edges.back()->next;
    return a;
  }

  void round() {
    // --- Select batch Q ------------------------------------------------
    std::vector<std::size_t> q_idx;  // indices into pool_
    if (mode_ == mode::randinc) {
      const std::size_t take = std::min(batch_, pool_.size());
      q_idx.resize(take);
      for (std::size_t i = 0; i < take; ++i) q_idx[i] = i;
    } else {
      // Furthest point per edge: champions via atomic write_max.
      par::parallel_for(0, pool_.size(), [&](std::size_t i) {
        pool_[i].ref->best.store(0, std::memory_order_relaxed);
      });
      par::parallel_for(0, pool_.size(), [&](std::size_t i) {
        const auto& pe = pool_[i];
        const double d =
            line_dist(pts_[pe.ref->u], pts_[pe.ref->w], pts_[pe.pid]);
        par::write_max(&pe.ref->best, encode_best(d, pe.rank));
      });
      std::vector<uint8_t> champ(pool_.size());
      par::parallel_for(0, pool_.size(), [&](std::size_t i) {
        champ[i] = decode_best_rank(
                       pool_[i].ref->best.load(std::memory_order_relaxed)) ==
                   pool_[i].rank;
      });
      q_idx = par::pack_index(champ);
      if (q_idx.size() > batch_) q_idx.resize(batch_);
    }

    // --- Reserve: visible arc + bounding ring edges --------------------
    std::vector<arc> arcs(q_idx.size());
    par::parallel_for(
        0, q_idx.size(),
        [&](std::size_t i) {
          const auto& pe = pool_[q_idx[i]];
          arcs[i] = find_arc(pts_[pe.pid], pe.ref);
          for (edge* e : arcs[i].edges) par::write_min(&e->rsv, pe.rank);
          par::write_min(&arcs[i].ringL->rsv, pe.rank);
          par::write_min(&arcs[i].ringR->rsv, pe.rank);
        },
        1);

    // --- Check reservations --------------------------------------------
    std::vector<uint8_t> success(q_idx.size());
    par::parallel_for(
        0, q_idx.size(),
        [&](std::size_t i) {
          const auto& pe = pool_[q_idx[i]];
          bool ok =
              arcs[i].ringL->rsv.load(std::memory_order_relaxed) ==
                  pe.rank &&
              arcs[i].ringR->rsv.load(std::memory_order_relaxed) == pe.rank;
          for (edge* e : arcs[i].edges) {
            ok = ok && e->rsv.load(std::memory_order_relaxed) == pe.rank;
          }
          success[i] = ok;
        },
        1);

    // --- Process winners -------------------------------------------------
    par::parallel_for(
        0, q_idx.size(),
        [&](std::size_t i) {
          if (!success[i]) return;
          const auto& pe = pool_[q_idx[i]];
          edge* ringL = arcs[i].ringL;
          edge* ringR = arcs[i].ringR;
          edge* n1 = alloc();
          edge* n2 = alloc();
          n1->u = arcs[i].edges.front()->u;
          n1->w = pe.pid;
          n2->u = pe.pid;
          n2->w = arcs[i].edges.back()->w;
          n1->prev = ringL;
          n1->next = n2;
          n2->prev = n1;
          n2->next = ringR;
          ringL->next = n1;
          ringR->prev = n2;
          for (edge* e : arcs[i].edges) {
            e->dead = true;
            e->replacement = n1;
          }
        },
        1);
    // head_ may have died; fixed lazily in run() via replacement chain.

    // --- Reset reservations (winners' edges are dead; losers' need it) --
    par::parallel_for(
        0, q_idx.size(),
        [&](std::size_t i) {
          arcs[i].ringL->rsv.store(kNoReservation,
                                   std::memory_order_relaxed);
          arcs[i].ringR->rsv.store(kNoReservation,
                                   std::memory_order_relaxed);
          for (edge* e : arcs[i].edges) {
            e->rsv.store(kNoReservation, std::memory_order_relaxed);
          }
        },
        1);

    // --- Update pool: re-home points whose edge died; pack survivors ----
    std::vector<uint8_t> alive(pool_.size());
    std::vector<uint8_t> consumed(pool_.size(), 0);
    par::parallel_for(0, q_idx.size(), [&](std::size_t i) {
      if (success[i]) consumed[q_idx[i]] = 1;
    });
    par::parallel_for(0, pool_.size(), [&](std::size_t i) {
      if (consumed[i]) {
        alive[i] = 0;
        return;
      }
      auto& pe = pool_[i];
      if (!pe.ref->dead) {
        alive[i] = 1;  // edge unchanged => still visible from it
        return;
      }
      // Winner-local re-homing, argued at hull3d.cpp's sequential_quickhull:
      // the winner's new edges n1 -> n2, then the ring edges it reserved
      // (n1->prev, n2->next), which only it rewired and no winner killed.
      edge* const n1 = pe.ref->replacement;
      edge* const n2 = n1->next;
      pe.ref = nullptr;
      for (edge* e : {n1, n2, n1->prev, n2->next}) {
        if (visible(pts_[e->u], pts_[e->w], pts_[pe.pid])) {
          pe.ref = e;
          break;
        }
      }
      alive[i] = pe.ref != nullptr;
    });
    pool_ = par::pack(pool_, alive);
  }

  const std::vector<pt>& pts_;
  mode mode_;
  std::size_t batch_;
  std::unique_ptr<edge[]> arena_;
  std::atomic<std::size_t> next_edge_{0};
  edge* head_ = nullptr;
  std::vector<pool_entry> pool_;
  std::vector<std::size_t> trivial_;

 public:
  bool is_trivial() const { return head_ == nullptr; }
  const std::vector<std::size_t>& trivial_hull() const { return trivial_; }
};

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

namespace {
std::vector<std::size_t> run_reservation(const std::vector<pt>& pts,
                                         reservation_hull::mode m,
                                         std::size_t batch_factor,
                                         uint64_t seed) {
  if (pts.empty()) return {};
  if (pts.size() == 1) return {0};
  reservation_hull rh(pts, m, batch_factor, seed);
  if (rh.is_trivial()) {
    return canonicalize(pts, rh.trivial_hull());
  }
  // A point collinear with a hull edge does not see it, so the hull can
  // grow past the edge's end and leave a straight-angle vertex. The polygon
  // is convex with no repeated point, so drop each vertex collinear with
  // its neighbours; hull[0], the lexicographic minimum, always stays.
  const auto hull = canonicalize(pts, rh.run());
  const std::size_t h = hull.size();
  std::vector<std::size_t> strict;
  for (std::size_t i = 0; i < h; ++i) {
    if (orient2d(pts[hull[(i + h - 1) % h]], pts[hull[i]],
                 pts[hull[(i + 1) % h]]) != 0) {
      strict.push_back(hull[i]);
    }
  }
  return strict;
}
}  // namespace

std::vector<std::size_t> randinc(const std::vector<pt>& pts,
                                 std::size_t batch_factor, uint64_t seed) {
  return run_reservation(pts, reservation_hull::mode::randinc, batch_factor,
                         seed);
}

std::vector<std::size_t> reservation_quickhull(
    const std::vector<pt>& pts, std::size_t batch_factor) {
  return run_reservation(pts, reservation_hull::mode::quickhull,
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
