// Union-find with union by size and path halving (the EMST's Kruskal
// rounds and the clustering passes). Union by size bounds every tree's
// depth by log2 n, so `root` stays cheap without halving.
#pragma once

#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

namespace pargeo {

class union_find {
 public:
  explicit union_find(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// find(x) without path halving: safe to call from several threads
  /// while no find or unite runs.
  std::size_t root(std::size_t x) const {
    while (parent_[x] != x) x = parent_[x];
    return x;
  }
  /// Merges the sets of a and b; false if they were already one set.
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] > size_[b]) std::swap(a, b);
    parent_[a] = b;
    size_[b] += size_[a];
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace pargeo
