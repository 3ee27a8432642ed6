#include "wspd/wspd.h"

#include <utility>

namespace pargeo::wspd {

namespace {

// Hooks that prune nothing.
struct visit_all {
  bool start(std::uint32_t) const { return true; }
  bool moveon(std::uint32_t, std::uint32_t) const { return true; }
};

struct keep_pairs : visit_all {
  void run(std::uint32_t a, std::uint32_t b,
           std::vector<node_pair>& out) const {
    out.push_back({a, b});
  }
};

// One edge between arbitrary representatives of each pair; a leaf
// self-pair contributes its full (tiny) clique so intra-leaf distances are
// spanned exactly.
template <int D>
struct spanner_edges : visit_all {
  const kdtree::tree<D>* t;
  void run(std::uint32_t a, std::uint32_t b,
           std::vector<std::pair<std::size_t, std::size_t>>& out) const {
    const auto& na = t->node_at(a);
    if (a != b) {
      out.emplace_back(t->id_of(na.lo), t->id_of(t->node_at(b).lo));
      return;
    }
    for (std::size_t x = na.lo; x < na.hi; ++x) {
      for (std::size_t y = x + 1; y < na.hi; ++y) {
        out.emplace_back(t->id_of(x), t->id_of(y));
      }
    }
  }
};

}  // namespace

template <int D>
std::vector<node_pair> decompose(const kdtree::tree<D>& t, double s) {
  keep_pairs hooks;
  std::vector<node_pair> pairs;
  traverse<D>(t, s, hooks, pairs);
  return pairs;
}

template <int D>
std::vector<std::pair<std::size_t, std::size_t>> spanner(
    const kdtree::tree<D>& t, double stretch) {
  // Callahan–Kosaraju: an s-WSPD with s = 4(t+1)/(t-1) yields a t-spanner
  // with one edge per pair.
  const double s = 4.0 * (stretch + 1.0) / (stretch - 1.0);
  spanner_edges<D> hooks{{}, &t};
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  traverse<D>(t, s, hooks, edges);
  return edges;
}

#define PARGEO_WSPD_INSTANTIATE(D)                          \
  template std::vector<node_pair> decompose<D>(             \
      const kdtree::tree<D>&, double);                      \
  template std::vector<std::pair<std::size_t, std::size_t>> \
  spanner<D>(const kdtree::tree<D>&, double);

PARGEO_WSPD_INSTANTIATE(2)
PARGEO_WSPD_INSTANTIATE(3)
PARGEO_WSPD_INSTANTIATE(5)
PARGEO_WSPD_INSTANTIATE(7)

}  // namespace pargeo::wspd
