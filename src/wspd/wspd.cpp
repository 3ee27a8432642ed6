#include "wspd/wspd.h"

#include <utility>

namespace pargeo::wspd {

namespace {

using detail::node_t;

// Hooks that prune nothing.
template <int D>
struct visit_all {
  bool start(const node_t<D>*) const { return true; }
  bool moveon(const node_t<D>*, const node_t<D>*) const { return true; }
};

template <int D>
struct keep_pairs : visit_all<D> {
  void run(const node_t<D>* a, const node_t<D>* b,
           std::vector<node_pair<D>>& out) const {
    out.push_back({a, b});
  }
};

// One edge between arbitrary representatives of each pair; a leaf
// self-pair contributes its full (tiny) clique so intra-leaf distances are
// spanned exactly.
template <int D>
struct spanner_edges : visit_all<D> {
  const kdtree::tree<D>* t;
  void run(const node_t<D>* a, const node_t<D>* b,
           std::vector<std::pair<std::size_t, std::size_t>>& out) const {
    if (a != b) {
      out.emplace_back(t->id_of(a->lo), t->id_of(b->lo));
      return;
    }
    for (std::size_t x = a->lo; x < a->hi; ++x) {
      for (std::size_t y = x + 1; y < a->hi; ++y) {
        out.emplace_back(t->id_of(x), t->id_of(y));
      }
    }
  }
};

}  // namespace

template <int D>
std::vector<node_pair<D>> decompose(const kdtree::tree<D>& t, double s) {
  keep_pairs<D> hooks;
  std::vector<node_pair<D>> pairs;
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
  template std::vector<node_pair<D>> decompose<D>(          \
      const kdtree::tree<D>&, double);                      \
  template std::vector<std::pair<std::size_t, std::size_t>> \
  spanner<D>(const kdtree::tree<D>&, double);

PARGEO_WSPD_INSTANTIATE(2)
PARGEO_WSPD_INSTANTIATE(3)
PARGEO_WSPD_INSTANTIATE(5)
PARGEO_WSPD_INSTANTIATE(7)

}  // namespace pargeo::wspd
