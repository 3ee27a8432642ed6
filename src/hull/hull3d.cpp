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
  double bd = f->plane_dist(pts[best]);
  for (const std::size_t q : f->conflicts) {
    const double d = f->plane_dist(pts[q]);
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
  while (!work.empty()) {
    facet* f = work.front();
    work.pop_front();
    if (f->dead || f->conflicts.empty()) continue;
    const std::size_t p = furthest_conflict(pts, f);
    find_region(pts, pts[p], f, r);
    if (st != nullptr) st->facets_touched += r.visible.size();
    auto nf = replace_region(pts, arena, p, r);
    // Redistribute conflict points of the dead region to the new fan,
    // falling back to the ring; a point that sees neither is interior.
    // This is complete. A point that saw a dead facet and is still outside
    // the hull either sees a fan facet, or its visible region lies among
    // the old facets. On the old hull that region was connected and held
    // the dead facet, so it crosses the horizon into the ring, whose facets
    // survive with their planes. reservation_hull uses the same rule.
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

inline uint64_t encode_best(double dist, uint32_t rank) {
  const float f = static_cast<float>(dist);
  uint32_t bits;
  __builtin_memcpy(&bits, &f, sizeof(bits));
  return (static_cast<uint64_t>(bits) << 32) | static_cast<uint64_t>(~rank);
}
inline uint32_t decode_best_rank(uint64_t enc) {
  return ~static_cast<uint32_t>(enc & 0xffffffffu);
}

class reservation_hull {
 public:
  enum class mode { randinc, quickhull };

  reservation_hull(const std::vector<pt>& pts, mode m,
                   std::size_t batch_factor, uint64_t seed, stats* st)
      : pts_(pts), mode_(m), st_(st) {
    batch_ = std::max<std::size_t>(1, batch_factor * par::num_workers());
    const std::size_t n = pts.size();
    std::vector<std::size_t> order(n);
    if (mode_ == mode::randinc) {
      auto perm = par::random_permutation(n, seed);
      for (std::size_t i = 0; i < n; ++i) order[i] = perm[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
    }
    const auto simplex = initial_simplex(pts);
    auto tetra = make_tetrahedron(pts, arena_, simplex);

    std::vector<pool_entry> pool(n);
    std::vector<uint8_t> keep(n);
    par::parallel_for(0, n, [&](std::size_t i) {
      const std::size_t pid = order[i];
      facet* ref = nullptr;
      if (pid != simplex[0] && pid != simplex[1] && pid != simplex[2] &&
          pid != simplex[3]) {
        for (facet* f : tetra) {
          if (visible(pts_, f, pts_[pid])) {
            ref = f;
            break;
          }
        }
      }
      pool[i] = {pid, static_cast<uint32_t>(i), ref};
      keep[i] = ref != nullptr;
    });
    pool_ = par::pack(pool, keep);
  }

  mesh run() {
    while (!pool_.empty()) round();
    return emit_mesh(arena_);
  }

 private:
  struct pool_entry {
    std::size_t pid;
    uint32_t rank;
    facet* ref;
  };

  void round() {
    // --- Batch selection -------------------------------------------------
    std::vector<std::size_t> q_idx;
    if (mode_ == mode::randinc) {
      const std::size_t take = std::min(batch_, pool_.size());
      q_idx.resize(take);
      for (std::size_t i = 0; i < take; ++i) q_idx[i] = i;
    } else {
      par::parallel_for(0, pool_.size(), [&](std::size_t i) {
        pool_[i].ref->best.store(0, std::memory_order_relaxed);
      });
      par::parallel_for(0, pool_.size(), [&](std::size_t i) {
        const auto& pe = pool_[i];
        par::write_max(
            &pe.ref->best,
            encode_best(pe.ref->plane_dist(pts_[pe.pid]), pe.rank));
      });
      std::vector<uint8_t> champ(pool_.size());
      par::parallel_for(0, pool_.size(), [&](std::size_t i) {
        champ[i] = decode_best_rank(pool_[i].ref->best.load(
                       std::memory_order_relaxed)) == pool_[i].rank;
      });
      q_idx = par::pack_index(champ);
      if (q_idx.size() > batch_) q_idx.resize(batch_);
    }

    // --- Find visible regions and reserve (visible + ring) ---------------
    std::vector<region> regions(q_idx.size());
    par::parallel_for(
        0, q_idx.size(),
        [&](std::size_t i) {
          const auto& pe = pool_[q_idx[i]];
          find_region(pts_, pts_[pe.pid], pe.ref, regions[i]);
          for (facet* f : regions[i].visible) {
            par::write_min(&f->rsv, pe.rank);
          }
          for (facet* f : regions[i].ring) {
            par::write_min(&f->rsv, pe.rank);
          }
        },
        1);
    if (st_ != nullptr) {
      for (const auto& r : regions) st_->facets_touched += r.visible.size();
    }

    // --- Check reservations ----------------------------------------------
    std::vector<uint8_t> success(q_idx.size());
    par::parallel_for(
        0, q_idx.size(),
        [&](std::size_t i) {
          const uint32_t rank = pool_[q_idx[i]].rank;
          bool ok = true;
          for (facet* f : regions[i].visible) {
            ok = ok && f->rsv.load(std::memory_order_relaxed) == rank;
          }
          for (facet* f : regions[i].ring) {
            ok = ok && f->rsv.load(std::memory_order_relaxed) == rank;
          }
          success[i] = ok;
        },
        1);

    // --- Process winners --------------------------------------------------
    std::vector<std::vector<facet*>> fans(q_idx.size());
    par::parallel_for(
        0, q_idx.size(),
        [&](std::size_t i) {
          if (!success[i]) return;
          fans[i] =
              replace_region(pts_, arena_, pool_[q_idx[i]].pid, regions[i]);
          for (facet* f : regions[i].visible) {
            f->winner = static_cast<uint32_t>(i);
          }
        },
        1);

    // --- Reset reservations -----------------------------------------------
    par::parallel_for(
        0, q_idx.size(),
        [&](std::size_t i) {
          for (facet* f : regions[i].visible) {
            f->rsv.store(kNoReservation, std::memory_order_relaxed);
          }
          for (facet* f : regions[i].ring) {
            f->rsv.store(kNoReservation, std::memory_order_relaxed);
          }
        },
        1);

    // --- Pool update: drop winners, re-home points with dead refs ---------
    // Re-home as in sequential_quickhull, against the killing winner's fan
    // and ring. Other winners cannot break that argument: this one reserved
    // its ring, so those facets are still alive, and a point outside the new
    // hull is also outside the old hull plus this winner alone.
    std::vector<uint8_t> alive(pool_.size());
    std::vector<uint8_t> consumed(pool_.size(), 0);
    par::parallel_for(0, q_idx.size(), [&](std::size_t i) {
      if (success[i]) consumed[q_idx[i]] = 1;
    });
    // Flags, not one atomic counter shared by all threads: that cost ~20%
    // of randinc (500k points, 4 threads).
    std::vector<uint8_t> rehomed(pool_.size(), 0);
    par::parallel_for(0, pool_.size(), [&](std::size_t i) {
      if (consumed[i]) {
        alive[i] = 0;
        return;
      }
      auto& pe = pool_[i];
      if (!pe.ref->dead) {
        alive[i] = 1;  // facet plane unchanged => still visible
        return;
      }
      rehomed[i] = 1;
      const uint32_t w = pe.ref->winner;
      pe.ref = new_home(pts_, pts_[pe.pid], fans[w], regions[w].ring);
      alive[i] = pe.ref != nullptr;
    });
    if (st_ != nullptr) {
      st_->points_touched +=
          par::count_if(rehomed, [](uint8_t r) { return r != 0; });
    }
    pool_ = par::pack(pool_, alive);
  }

  const std::vector<pt>& pts_;
  mode mode_;
  stats* st_;
  std::size_t batch_;
  facet_arena arena_;
  std::vector<pool_entry> pool_;
};

}  // namespace

mesh randinc(const std::vector<pt>& pts, std::size_t batch_factor,
             uint64_t seed, stats* st) {
  reservation_hull rh(pts, reservation_hull::mode::randinc, batch_factor,
                      seed, st);
  return rh.run();
}

mesh reservation_quickhull(const std::vector<pt>& pts,
                           std::size_t batch_factor, stats* st) {
  reservation_hull rh(pts, reservation_hull::mode::quickhull, batch_factor,
                      1, st);
  return rh.run();
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
