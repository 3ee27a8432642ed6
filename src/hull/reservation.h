// Reservation rounds over conflict lists, shared by the 2D and 3D hulls.
//
// The hull is a set of cells: directed edges in 2D, facets in 3D. Every
// point still outside the hull sits in the conflict list of exactly one
// alive cell that it sees, its home. A round takes a batch of outside
// points. Each finds its visible region from its home and reserves, by
// write_min of its priority, the region's cells and the ring of alive cells
// just outside it. A point that holds every reservation wins and replaces
// its region by a fan of new cells (deterministic reservations, Blelloch,
// Fineman, Gibbons and Shun, PPoPP 2012; conflict lists as in Blelloch, Gu,
// Shun and Sun, SPAA 2020). Only the points in the lists of the cells the
// winners killed move: each goes to the first cell of its winner's fan, then
// of its winner's ring, that it sees, or is dropped as interior (the proof is
// at hull3d.cpp's sequential_quickhull). The fan is new and the ring is
// reserved, so every target cell belongs to one winner and its list is
// written by one round's distribute() alone, without atomics.
//
// A round's moves are one flat sequence over all winners, cut into fixed
// blocks, so the first rounds, where one killed cell holds a large share of
// the input, are spread over every worker. Each block classifies its points,
// counts them per target cell, and then writes them at offsets fixed by a
// sequential prefix over the blocks (a stable counting sort).
//
// Batches:
//   randinc    the outside points of a random permutation, lowest rank
//              first: the last round's losers that are still outside, then
//              the next outside ranks. Priority: the rank.
//   quickhull  each cell's champion, the furthest point of its list by the
//              geometry's distance and tie rule, kept as the list is built;
//              the batch is the champions with the smallest indices.
//              Priority: the point index.
//
// A batch holds at most batch_factor x num_workers() points. Both rules
// depend on that size alone, not on the schedule, so the hull, the rounds
// and the counters repeat wherever the batch size does
// (Hull3d.RoundsDependOnTheBatchSizeOnly). At a fixed batch_factor the
// rounds and the counters change with the worker count: on 500k in-sphere
// points (perfbench's seed-1 serve_point input) at batch_factor 8, 3D
// randinc's facets_touched reads 35,191 at 1 worker and 57,258 at 4.
//
// A Geometry provides:
//   using cell = ...;    // derived from reservation::cell
//   using region = ...;  // std::vector<cell*> visible, ring
//   const std::vector<point<D>>& pts;
//   void find(std::size_t p, cell* home, region& r) const;
//   void replace(std::size_t p, const region& r, std::vector<cell*>& fan);
//       // builds the fan and marks r.visible dead
//   bool sees(const cell* c, std::size_t p) const;
//   double dist(const cell* c, std::size_t p) const;
//   bool tie(const cell* c, std::size_t a, std::size_t b) const;
//       // a beats b for champion of c at equal distance
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <queue>
#include <vector>

#include "parallel/parallel.h"

namespace pargeo::reservation {

inline constexpr uint32_t kNoReservation =
    std::numeric_limits<uint32_t>::max();

/// What a round keeps per hull cell.
struct cell {
  std::atomic<uint32_t> rsv{kNoReservation};
  bool dead = false;
  std::size_t champ = 0;               // quickhull: furthest point of the list
  std::vector<std::size_t> conflicts;  // the outside points homed here
};

/// Pointer-stable chunked cell allocator, safe for concurrent alloc(). A
/// block is allocated when the one before it fills, so a hull pays for the
/// cells it makes, not for a bound on them.
template <class T>
class cell_arena {
 public:
  static constexpr std::size_t kBlockBits = 14;
  static constexpr std::size_t kBlock = std::size_t{1} << kBlockBits;
  static constexpr std::size_t kMaxBlocks = 1 << 14;  // ~268M cells cap

  T* alloc() {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    while (i >= cap_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> g(grow_);
      const std::size_t cap = cap_.load(std::memory_order_relaxed);
      if (i >= cap) {
        const std::size_t b = cap >> kBlockBits;
        if (b >= kMaxBlocks) throw std::bad_alloc();
        blocks_[b] = std::make_unique<T[]>(kBlock);
        cap_.store(cap + kBlock, std::memory_order_release);
      }
    }
    return get(i);
  }

  std::size_t size() const { return next_.load(std::memory_order_relaxed); }
  T* get(std::size_t i) { return &blocks_[i >> kBlockBits][i & (kBlock - 1)]; }

 private:
  std::array<std::unique_ptr<T[]>, kMaxBlocks> blocks_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> cap_{0};
  std::mutex grow_;
};

enum class batch_rule { randinc, quickhull };

template <class Geometry>
class rounds {
  using cell_t = typename Geometry::cell;
  using region_t = typename Geometry::region;

 public:
  /// `order` is the randinc permutation; empty means index order.
  rounds(Geometry& geo, std::size_t n, batch_rule rule,
         std::size_t batch_factor, std::vector<std::size_t> order)
      : geo_(geo),
        rule_(rule),
        batch_(std::max<std::size_t>(1, batch_factor * par::num_workers())),
        order_(std::move(order)),
        home_(n, nullptr) {}

  /// Homes every point on the initial hull's cells, then runs rounds until
  /// no point is outside.
  void run(const std::vector<cell_t*>& start) {
    targets_ = start;
    distribute(home_.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t j = lo; j < hi; ++j) {
        moves_[j] = {j, first_seen(j, 0, static_cast<uint32_t>(start.size()))};
      }
    });
    while (select()) round();
  }

  /// Points moved off a killed cell, its winner's own point excluded
  /// (Figure 12's conflict redistribution).
  std::size_t points_touched() const { return points_touched_; }
  /// Visible cells found by the batches, winners and losers alike.
  std::size_t facets_touched() const { return facets_touched_; }

 private:
  static constexpr uint32_t kInterior = std::numeric_limits<uint32_t>::max();
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  static constexpr std::size_t kGrain = 2048;
  // The moved points sit anywhere in the input, so the loops over them
  // prefetch the point, or its home slot, this many moves ahead. On 500k
  // on-sphere points this took 3D randinc from ~0.42 to ~0.28 s (4
  // workers on a 4-vCPU Xeon VM).
  static constexpr std::size_t kAhead = 16;

  struct pick {
    std::size_t p;
    uint32_t prio;
    cell_t* home;  // p's cell when the round starts
    bool won;
  };
  struct move {
    std::size_t p;
    uint32_t to;  // index into targets_, or kInterior
  };
  // A killed cell with points, and the targets of the winner that killed it.
  struct killed {
    cell_t* c;
    std::size_t winner;
    uint32_t lo, hi;
  };
  // One block of moves: the target keys it uses, [lo, hi), with per key the
  // count (then the write offset) and, in quickhull rounds, the champion.
  struct block {
    uint32_t lo = 0, hi = 0;
    std::vector<std::size_t> at;
    std::vector<std::size_t> best;
    std::vector<double> best_d;
  };
  struct by_point {
    bool operator()(const std::pair<std::size_t, cell_t*>& a,
                    const std::pair<std::size_t, cell_t*>& b) const {
      return a.first > b.first;
    }
  };

  bool select() {
    if (rule_ == batch_rule::randinc) {
      std::size_t kept = 0;
      for (const pick& x : picks_) {
        if (!x.won && home_[x.p] != nullptr) {
          picks_[kept++] = {x.p, x.prio, home_[x.p], false};
        }
      }
      picks_.resize(kept);
      while (picks_.size() < batch_ && cursor_ < order_.size()) {
        if (cursor_ + kAhead < order_.size()) {
          __builtin_prefetch(&home_[order_[cursor_ + kAhead]]);
        }
        const std::size_t p = order_[cursor_];
        if (home_[p] != nullptr) {
          picks_.push_back(
              {p, static_cast<uint32_t>(cursor_), home_[p], false});
        }
        ++cursor_;
      }
    } else {
      picks_.clear();
      while (picks_.size() < batch_ && !champions_.empty()) {
        const auto [p, c] = champions_.top();
        champions_.pop();
        // An entry is stale once its cell died or found a further point.
        if (!c->dead && c->champ == p) {
          picks_.push_back({p, static_cast<uint32_t>(p), c, false});
        }
      }
    }
    return !picks_.empty();
  }

  void round() {
    const std::size_t m = picks_.size();
    if (regions_.size() < m) {
      regions_.resize(m);
      fans_.resize(m);
    }
    par::parallel_for(
        0, m,
        [&](std::size_t i) {
          const pick& x = picks_[i];
          region_t& r = regions_[i];
          geo_.find(x.p, x.home, r);
          for (cell_t* c : r.visible) par::write_min(&c->rsv, x.prio);
          for (cell_t* c : r.ring) par::write_min(&c->rsv, x.prio);
        },
        1);
    // A replacement writes no reservation, so checks and replacements can
    // share one loop.
    par::parallel_for(
        0, m,
        [&](std::size_t i) {
          pick& x = picks_[i];
          const region_t& r = regions_[i];
          bool ok = true;
          for (cell_t* c : r.visible) {
            ok = ok && c->rsv.load(std::memory_order_relaxed) == x.prio;
          }
          for (cell_t* c : r.ring) {
            ok = ok && c->rsv.load(std::memory_order_relaxed) == x.prio;
          }
          x.won = ok;
          if (ok) geo_.replace(x.p, r, fans_[i]);
        },
        1);

    // Each winner's targets are its fan, then its ring; its killed cells'
    // points, the winner's own point among them, are the round's moves.
    targets_.clear();
    killed_.clear();
    offsets_.clear();
    std::size_t total = 0, winners = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const pick& x = picks_[i];
      const region_t& r = regions_[i];
      facets_touched_ += r.visible.size();
      for (cell_t* c : r.visible) {
        c->rsv.store(kNoReservation, std::memory_order_relaxed);
      }
      for (cell_t* c : r.ring) {
        c->rsv.store(kNoReservation, std::memory_order_relaxed);
      }
      if (!x.won) continue;
      ++winners;
      const auto lo = static_cast<uint32_t>(targets_.size());
      targets_.insert(targets_.end(), fans_[i].begin(), fans_[i].end());
      targets_.insert(targets_.end(), r.ring.begin(), r.ring.end());
      const auto hi = static_cast<uint32_t>(targets_.size());
      for (cell_t* c : r.visible) {
        if (c->conflicts.empty()) continue;
        killed_.push_back({c, x.p, lo, hi});
        offsets_.push_back(total);
        total += c->conflicts.size();
      }
    }
    points_touched_ += total - winners;
    distribute(total, [&](std::size_t lo, std::size_t hi) {
      std::size_t k = static_cast<std::size_t>(
          std::upper_bound(offsets_.begin(), offsets_.end(), lo) -
          offsets_.begin() - 1);
      std::size_t at = lo - offsets_[k];
      for (std::size_t j = lo; j < hi; ++j, ++at) {
        if (at == killed_[k].c->conflicts.size()) {
          ++k;
          at = 0;
        }
        const killed& kc = killed_[k];
        if (at + kAhead < kc.c->conflicts.size()) {
          __builtin_prefetch(&geo_.pts[kc.c->conflicts[at + kAhead]]);
        }
        const std::size_t q = kc.c->conflicts[at];
        moves_[j] = {q, q == kc.winner ? kInterior
                                       : first_seen(q, kc.lo, kc.hi)};
      }
    });
    for (const killed& kc : killed_) {
      std::vector<std::size_t>().swap(kc.c->conflicts);
    }
    if (rule_ == batch_rule::quickhull) {
      // A loser whose cell survived with the same champion competes again;
      // distribute() queued every other champion this round made.
      for (const pick& x : picks_) {
        if (!x.won && !x.home->dead && x.home->champ == x.p) {
          champions_.push({x.p, x.home});
        }
      }
    }
  }

  // The first of targets_[lo, hi) that p sees, or kInterior.
  uint32_t first_seen(std::size_t p, uint32_t lo, uint32_t hi) const {
    for (uint32_t k = lo; k < hi; ++k) {
      if (geo_.sees(targets_[k], p)) return k;
    }
    return kInterior;
  }

  bool further(const cell_t* c, std::size_t a, double da, std::size_t b,
               double db) const {
    return da > db || (da == db && geo_.tie(c, a, b));
  }

  // Runs classify(lo, hi), which fills moves_[lo, hi), over blocks of
  // [0, total); then appends each moved point to its target's list and
  // sets every moved point's home.
  template <class Classify>
  void distribute(std::size_t total, Classify classify) {
    const bool champs = rule_ == batch_rule::quickhull;
    moves_.resize(total);
    const std::size_t nb = (total + kGrain - 1) / kGrain;
    if (blocks_.size() < nb) blocks_.resize(nb);
    par::parallel_for(
        0, nb,
        [&](std::size_t b) {
          const std::size_t lo = b * kGrain;
          const std::size_t hi = std::min(total, lo + kGrain);
          classify(lo, hi);
          block& bl = blocks_[b];
          uint32_t klo = kInterior, khi = 0;
          for (std::size_t j = lo; j < hi; ++j) {
            const uint32_t to = moves_[j].to;
            if (to == kInterior) continue;
            klo = std::min(klo, to);
            khi = std::max(khi, to + 1);
          }
          bl.lo = klo == kInterior ? 0 : klo;
          bl.hi = khi;
          const std::size_t span = bl.hi - bl.lo;
          bl.at.assign(span, 0);
          if (champs) {
            bl.best.assign(span, kNone);
            bl.best_d.assign(span, 0);
          }
          for (std::size_t j = lo; j < hi; ++j) {
            const auto [p, to] = moves_[j];
            if (to == kInterior) continue;
            const uint32_t s = to - bl.lo;
            ++bl.at[s];
            if (!champs) continue;
            const double d = geo_.dist(targets_[to], p);
            if (bl.best[s] == kNone ||
                further(targets_[to], p, d, bl.best[s], bl.best_d[s])) {
              bl.best[s] = p;
              bl.best_d[s] = d;
            }
          }
        },
        1);

    const std::size_t nt = targets_.size();
    ends_.resize(nt);
    for (std::size_t k = 0; k < nt; ++k) {
      ends_[k] = targets_[k]->conflicts.size();
    }
    if (champs) {
      best_.assign(nt, kNone);
      best_d_.resize(nt);
    }
    for (std::size_t b = 0; b < nb; ++b) {
      block& bl = blocks_[b];
      for (uint32_t k = bl.lo; k < bl.hi; ++k) {
        const std::size_t s = k - bl.lo;
        const std::size_t count = bl.at[s];
        bl.at[s] = ends_[k];
        ends_[k] += count;
        if (champs && bl.best[s] != kNone &&
            (best_[k] == kNone || further(targets_[k], bl.best[s],
                                          bl.best_d[s], best_[k],
                                          best_d_[k]))) {
          best_[k] = bl.best[s];
          best_d_[k] = bl.best_d[s];
        }
      }
    }
    for (std::size_t k = 0; k < nt; ++k) {
      cell_t* c = targets_[k];
      if (champs && best_[k] != kNone &&
          (c->conflicts.empty() ||
           further(c, best_[k], best_d_[k], c->champ,
                   geo_.dist(c, c->champ)))) {
        c->champ = best_[k];
        champions_.push({c->champ, c});
      }
      c->conflicts.resize(ends_[k]);
    }

    par::parallel_for(
        0, nb,
        [&](std::size_t b) {
          block& bl = blocks_[b];
          const std::size_t hi = std::min(total, (b + 1) * kGrain);
          for (std::size_t j = b * kGrain; j < hi; ++j) {
            if (j + kAhead < hi) {
              __builtin_prefetch(&home_[moves_[j + kAhead].p], 1);
            }
            const auto [p, to] = moves_[j];
            if (to == kInterior) {
              home_[p] = nullptr;
              continue;
            }
            cell_t* c = targets_[to];
            c->conflicts[bl.at[to - bl.lo]++] = p;
            home_[p] = c;
          }
        },
        1);
  }

  Geometry& geo_;
  batch_rule rule_;
  std::size_t batch_;
  std::vector<std::size_t> order_;
  std::vector<cell_t*> home_;  // each point's cell, nullptr once inside
  std::size_t cursor_ = 0;     // randinc: next rank to take
  std::priority_queue<std::pair<std::size_t, cell_t*>,
                      std::vector<std::pair<std::size_t, cell_t*>>, by_point>
      champions_;  // quickhull: (champion, cell), smallest champion first
  std::size_t points_touched_ = 0, facets_touched_ = 0;

  // Per-round buffers, kept to reuse their allocations.
  std::vector<pick> picks_;
  std::vector<region_t> regions_;
  std::vector<std::vector<cell_t*>> fans_;
  std::vector<cell_t*> targets_;
  std::vector<killed> killed_;
  std::vector<std::size_t> offsets_;  // killed_[k]'s first move
  std::vector<move> moves_;
  std::vector<block> blocks_;
  std::vector<std::size_t> ends_, best_;
  std::vector<double> best_d_;
};

}  // namespace pargeo::reservation
