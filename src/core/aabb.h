// Axis-aligned bounding boxes.
#pragma once

#include <algorithm>
#include <limits>

#include "core/point.h"

namespace pargeo {

/// Axis-aligned box in R^D. Empty() boxes have +inf/-inf corners so that
/// extend() works without special-casing.
template <int D>
struct aabb {
  point<D> lo, hi;

  aabb() {
    for (int i = 0; i < D; ++i) {
      lo[i] = std::numeric_limits<double>::infinity();
      hi[i] = -std::numeric_limits<double>::infinity();
    }
  }
  aabb(const point<D>& l, const point<D>& h) : lo(l), hi(h) {}

  bool empty() const { return lo[0] > hi[0]; }

  void extend(const point<D>& p) {
    for (int i = 0; i < D; ++i) {
      lo[i] = std::min(lo[i], p[i]);
      hi[i] = std::max(hi[i], p[i]);
    }
  }
  void extend(const aabb& o) {
    for (int i = 0; i < D; ++i) {
      lo[i] = std::min(lo[i], o.lo[i]);
      hi[i] = std::max(hi[i], o.hi[i]);
    }
  }

  bool contains(const point<D>& p) const {
    for (int i = 0; i < D; ++i) {
      if (p[i] < lo[i] || p[i] > hi[i]) return false;
    }
    return true;
  }

  bool intersects(const aabb& o) const {
    for (int i = 0; i < D; ++i) {
      if (o.hi[i] < lo[i] || o.lo[i] > hi[i]) return false;
    }
    return true;
  }

  /// True iff this box lies entirely inside `o`.
  bool inside(const aabb& o) const {
    for (int i = 0; i < D; ++i) {
      if (lo[i] < o.lo[i] || hi[i] > o.hi[i]) return false;
    }
    return true;
  }

  point<D> center() const { return (lo + hi) / 2.0; }

  /// Index of the widest dimension.
  int widest_dim() const {
    int d = 0;
    double w = hi[0] - lo[0];
    for (int i = 1; i < D; ++i) {
      if (hi[i] - lo[i] > w) {
        w = hi[i] - lo[i];
        d = i;
      }
    }
    return d;
  }

  double width(int i) const { return hi[i] - lo[i]; }

  double diameter_sq() const { return hi.dist_sq(lo); }
  double diameter() const { return hi.dist(lo); }

  /// Squared distance from p to the box (0 if inside).
  double dist_sq(const point<D>& p) const {
    double s = 0;
    for (int i = 0; i < D; ++i) {
      const double d = std::max({lo[i] - p[i], 0.0, p[i] - hi[i]});
      s += d * d;
    }
    return s;
  }

  /// Squared minimum distance between two boxes (0 if they intersect).
  double dist_sq(const aabb& o) const {
    double s = 0;
    for (int i = 0; i < D; ++i) {
      const double d = std::max({lo[i] - o.hi[i], 0.0, o.lo[i] - hi[i]});
      s += d * d;
    }
    return s;
  }

  /// Squared maximum distance from p to any point of the box.
  double max_dist_sq(const point<D>& p) const {
    double s = 0;
    for (int i = 0; i < D; ++i) {
      const double d = std::max(std::abs(p[i] - lo[i]), std::abs(p[i] - hi[i]));
      s += d * d;
    }
    return s;
  }

  /// Squared maximum distance between a point of this box and one of `o`.
  double max_dist_sq(const aabb& o) const {
    double s = 0;
    for (int i = 0; i < D; ++i) {
      const double d = std::max(hi[i] - o.lo[i], o.hi[i] - lo[i]);
      s += d * d;
    }
    return s;
  }
};

}  // namespace pargeo
