#include "zdtree/zdtree.h"

#include <algorithm>

#include "mortonsort/mortonsort.h"
#include "parallel/parallel.h"

namespace pargeo::zdtree {

namespace {

// Fixed quantization universe: Morton codes must stay comparable across
// batches, so the grid cannot follow the data's bounding box. All library
// generators emit coordinates well inside this range.
constexpr double kUniverse = 1 << 21;

template <int D>
point<D> universe_lo() {
  point<D> p;
  for (int d = 0; d < D; ++d) p[d] = -kUniverse;
  return p;
}
template <int D>
point<D> universe_hi() {
  point<D> p;
  for (int d = 0; d < D; ++d) p[d] = kUniverse;
  return p;
}

}  // namespace

template <int D>
typename zd_tree<D>::item zd_tree<D>::make_item(const point<D>& p) const {
  return {mortonsort::morton_code<D>(p, universe_lo<D>(), universe_hi<D>()),
          p};
}

template <int D>
zd_tree<D>::zd_tree(const std::vector<point<D>>& pts) {
  items_.resize(pts.size());
  par::parallel_for(0, pts.size(),
                    [&](std::size_t i) { items_[i] = make_item(pts[i]); });
  par::sort(items_, [](const item& a, const item& b) { return a < b; });
  rebuild_boxes();
}

template <int D>
void zd_tree<D>::rebuild_boxes() {
  const std::size_t n = items_.size();
  std::size_t segs = (n + kLeaf - 1) / kLeaf;
  std::size_t p = 1;
  while (p < std::max<std::size_t>(segs, 1)) p <<= 1;
  num_leaf_segments_ = p;
  boxes_.assign(2 * p, aabb<D>{});
  par::parallel_for(
      0, segs,
      [&](std::size_t s) {
        aabb<D> b;
        const std::size_t lo = s * kLeaf;
        const std::size_t hi = std::min(n, lo + kLeaf);
        for (std::size_t i = lo; i < hi; ++i) b.extend(items_[i].p);
        boxes_[p + s] = b;
      },
      4);
  for (std::size_t i = p - 1; i >= 1; --i) {
    boxes_[i] = boxes_[2 * i];
    boxes_[i].extend(boxes_[2 * i + 1]);
  }
}

template <int D>
void zd_tree<D>::insert(const std::vector<point<D>>& batch) {
  if (batch.empty()) return;
  std::vector<item> add(batch.size());
  par::parallel_for(0, batch.size(),
                    [&](std::size_t i) { add[i] = make_item(batch[i]); });
  par::sort(add, [](const item& a, const item& b) { return a < b; });
  std::vector<item> merged(items_.size() + add.size());
  std::merge(items_.begin(), items_.end(), add.begin(), add.end(),
             merged.begin(),
             [](const item& a, const item& b) { return a < b; });
  items_ = std::move(merged);
  rebuild_boxes();
}

template <int D>
void zd_tree<D>::erase(const std::vector<point<D>>& batch) {
  if (batch.empty() || items_.empty()) return;
  std::vector<item> del(batch.size());
  par::parallel_for(0, batch.size(),
                    [&](std::size_t i) { del[i] = make_item(batch[i]); });
  par::sort(del, [](const item& a, const item& b) { return a < b; });
  // One linear co-scan removing one stored copy per batch entry.
  std::vector<item> kept;
  kept.reserve(items_.size());
  std::size_t di = 0;
  for (const auto& it : items_) {
    while (di < del.size() && del[di] < it) ++di;
    if (di < del.size() && del[di] == it) {
      ++di;  // consume this deletion
      continue;
    }
    kept.push_back(it);
  }
  items_ = std::move(kept);
  rebuild_boxes();
}

template <int D>
void zd_tree<D>::knn_rec(std::size_t node, std::size_t lo, std::size_t hi,
                         const point<D>& q, kdtree::knn_buffer& buf) const {
  if (boxes_[node].empty() || boxes_[node].dist_sq(q) >= buf.bound()) {
    return;
  }
  if (hi - lo == 1) {
    const std::size_t s = lo * kLeaf;
    const std::size_t e = std::min(items_.size(), s + kLeaf);
    for (std::size_t i = s; i < e; ++i) {
      const double d = items_[i].p.dist_sq(q);
      if (d < buf.bound()) {
        buf.insert(d, reinterpret_cast<std::size_t>(&items_[i].p));
      }
    }
    return;
  }
  const std::size_t mid = (lo + hi) / 2;
  const std::size_t l = 2 * node, r = 2 * node + 1;
  const double dl = boxes_[l].empty() ? -1 : boxes_[l].dist_sq(q);
  const double dr = boxes_[r].empty() ? -1 : boxes_[r].dist_sq(q);
  if (dr >= 0 && (dl < 0 || dr < dl)) {
    knn_rec(r, mid, hi, q, buf);
    knn_rec(l, lo, mid, q, buf);
  } else {
    knn_rec(l, lo, mid, q, buf);
    knn_rec(r, mid, hi, q, buf);
  }
}

template <int D>
std::vector<std::vector<point<D>>> zd_tree<D>::knn(
    const std::vector<point<D>>& queries, std::size_t k) const {
  std::vector<std::vector<point<D>>> out(queries.size());
  const std::size_t kk = std::min(k, items_.size());
  mortonsort::parallel_for_each(
      queries,
      [&](std::size_t qi) {
        kdtree::knn_buffer buf(kk);
        knn_rec(1, 0, num_leaf_segments_, queries[qi], buf);
        auto entries = buf.finish();
        out[qi].reserve(entries.size());
        for (const auto& e : entries) {
          out[qi].push_back(*reinterpret_cast<const point<D>*>(e.id));
        }
      },
      16);
  return out;
}

template <int D>
template <class Keep>
void zd_tree<D>::range_rec(std::size_t node, std::size_t lo, std::size_t hi,
                           const aabb<D>& query_box, const Keep& keep,
                           std::vector<point<D>>& out) const {
  if (boxes_[node].empty() || !boxes_[node].intersects(query_box)) return;
  if (hi - lo == 1) {
    const std::size_t s = lo * kLeaf;
    const std::size_t e = std::min(items_.size(), s + kLeaf);
    for (std::size_t i = s; i < e; ++i) {
      if (keep(items_[i].p)) out.push_back(items_[i].p);
    }
    return;
  }
  const std::size_t mid = (lo + hi) / 2;
  range_rec(2 * node, lo, mid, query_box, keep, out);
  range_rec(2 * node + 1, mid, hi, query_box, keep, out);
}

template <int D>
void zd_tree<D>::range_box(const aabb<D>& box,
                           std::vector<point<D>>& out) const {
  if (items_.empty()) return;
  range_rec(1, 0, num_leaf_segments_, box,
            [&](const point<D>& p) { return box.contains(p); }, out);
}

template <int D>
void zd_tree<D>::range_ball(const point<D>& center, double radius,
                            std::vector<point<D>>& out) const {
  if (items_.empty()) return;
  // Prune segments by the ball's bounding box; the leaf test is exact.
  aabb<D> bb;
  point<D> r;
  for (int d = 0; d < D; ++d) r[d] = radius;
  bb.extend(center - r);
  bb.extend(center + r);
  const double r_sq = radius * radius;
  range_rec(1, 0, num_leaf_segments_, bb,
            [&](const point<D>& p) { return p.dist_sq(center) <= r_sq; },
            out);
}

template <int D>
std::vector<point<D>> zd_tree<D>::gather() const {
  std::vector<point<D>> out(items_.size());
  par::parallel_for(0, items_.size(),
                    [&](std::size_t i) { out[i] = items_[i].p; });
  return out;
}

template class zd_tree<2>;
template class zd_tree<3>;

}  // namespace pargeo::zdtree
