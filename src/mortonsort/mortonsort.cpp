#include "mortonsort/mortonsort.h"

#include <algorithm>

#include "core/aabb.h"
#include "parallel/parallel.h"

namespace pargeo::mortonsort {

namespace {

template <int D>
aabb<D> bounding_box(const std::vector<point<D>>& pts) {
  aabb<D> box;
  for (const auto& p : pts) box.extend(p);
  return box;
}

}  // namespace

template <int D>
uint64_t morton_code(const point<D>& p, const point<D>& lo,
                     const point<D>& hi) {
  constexpr int bits = 64 / D;
  constexpr uint64_t maxCell = (uint64_t{1} << bits) - 1;
  std::array<uint64_t, D> q{};
  for (int d = 0; d < D; ++d) {
    const double w = hi[d] - lo[d];
    double f = w > 0 ? (p[d] - lo[d]) / w : 0.0;
    f = std::clamp(f, 0.0, 1.0);
    q[d] = std::min(maxCell,
                    static_cast<uint64_t>(f * static_cast<double>(maxCell)));
  }
  return interleave<D>(q);
}

template <int D>
std::vector<uint64_t> morton_codes(const std::vector<point<D>>& pts) {
  const auto box = bounding_box(pts);
  std::vector<uint64_t> codes(pts.size());
  par::parallel_for(0, pts.size(), [&](std::size_t i) {
    codes[i] = morton_code<D>(pts[i], box.lo, box.hi);
  });
  return codes;
}

template <int D>
std::vector<std::size_t> morton_order(const std::vector<point<D>>& pts) {
  const auto codes = morton_codes<D>(pts);
  return par::key_order(codes.size(),
                        [&codes](std::size_t i) { return codes[i]; });
}

template <int D>
std::vector<point<D>> morton_sort(const std::vector<point<D>>& pts) {
  auto order = morton_order<D>(pts);
  std::vector<point<D>> out(pts.size());
  par::parallel_for(0, pts.size(),
                    [&](std::size_t i) { out[i] = pts[order[i]]; });
  return out;
}

#define PARGEO_MORTON_INSTANTIATE(D)                                       \
  template uint64_t morton_code<D>(const point<D>&, const point<D>&,       \
                                   const point<D>&);                       \
  template std::vector<uint64_t> morton_codes<D>(                          \
      const std::vector<point<D>>&);                                       \
  template std::vector<std::size_t> morton_order<D>(                       \
      const std::vector<point<D>>&);                                       \
  template std::vector<point<D>> morton_sort<D>(                           \
      const std::vector<point<D>>&);

PARGEO_MORTON_INSTANTIATE(2)
PARGEO_MORTON_INSTANTIATE(3)
PARGEO_MORTON_INSTANTIATE(5)
PARGEO_MORTON_INSTANTIATE(7)

}  // namespace pargeo::mortonsort
