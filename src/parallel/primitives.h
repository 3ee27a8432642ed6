// Data-parallel sequence primitives: block folds, reduce, scan, pack, filter,
// counting scatter, flatten.
//
// These mirror the ParlayLib operations the ParGeo paper's pseudocode uses
// (e.g. ParallelPack on line 17 of the hull algorithm). All primitives are
// deterministic regardless of worker count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <new>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/scheduler.h"

namespace pargeo::par {

namespace detail {
inline std::size_t num_blocks(std::size_t n, std::size_t block) {
  return (n + block - 1) / block;
}
inline constexpr std::size_t kBlock = 4096;
}  // namespace detail

/// Runs f(lo, hi) over consecutive blocks of [0, n) on the workers and
/// folds the results in block order: fold(...fold(id, f(block 0))...,
/// f(last block)). With one block, f runs on the calling thread.
template <class R, class F, class Fold>
R fold_blocks(std::size_t n, R id, F f, Fold fold) {
  const std::size_t block = std::size_t{1} << 14;
  const std::size_t nb = detail::num_blocks(n, block);
  std::vector<R> part(nb, id);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        part[b] = f(b * block, std::min(n, (b + 1) * block));
      },
      1);
  R acc = id;
  for (auto& r : part) acc = fold(std::move(acc), std::move(r));
  return acc;
}

/// reduce(seq, id, op): op must be associative with identity `id`.
template <class Seq, class T, class Op>
T reduce(const Seq& s, T id, Op op) {
  const std::size_t n = s.size();
  if (n == 0) return id;
  const std::size_t block = detail::kBlock;
  const std::size_t nb = detail::num_blocks(n, block);
  if (nb <= 1) {
    T acc = id;
    for (std::size_t i = 0; i < n; ++i) acc = op(acc, s[i]);
    return acc;
  }
  std::vector<T> partial(nb, id);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        T acc = id;
        const std::size_t lo = b * block;
        const std::size_t hi = std::min(n, lo + block);
        for (std::size_t i = lo; i < hi; ++i) acc = op(acc, s[i]);
        partial[b] = acc;
      },
      1);
  T acc = id;
  for (std::size_t b = 0; b < nb; ++b) acc = op(acc, partial[b]);
  return acc;
}

/// Sum of a sequence.
template <class Seq>
auto sum(const Seq& s) {
  using T = std::decay_t<decltype(s[0])>;
  return reduce(s, T{}, std::plus<T>{});
}

/// Index of the "best" element under strict-weak comparator `less`
/// (returns the first such index; n must be > 0).
template <class Seq, class Less>
std::size_t min_element_index(const Seq& s, Less less) {
  const std::size_t n = s.size();
  const std::size_t block = detail::kBlock;
  const std::size_t nb = detail::num_blocks(n, block);
  std::vector<std::size_t> best(nb);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * block;
        const std::size_t hi = std::min(n, lo + block);
        std::size_t m = lo;
        for (std::size_t i = lo + 1; i < hi; ++i) {
          if (less(s[i], s[m])) m = i;
        }
        best[b] = m;
      },
      1);
  std::size_t m = best[0];
  for (std::size_t b = 1; b < nb; ++b) {
    if (less(s[best[b]], s[m])) m = best[b];
  }
  return m;
}

/// Exclusive prefix sum in place; returns the total.
template <class T>
T scan_exclusive(std::vector<T>& s) {
  const std::size_t n = s.size();
  if (n == 0) return T{};
  const std::size_t block = detail::kBlock;
  const std::size_t nb = detail::num_blocks(n, block);
  if (nb <= 1) {
    T acc{};
    for (std::size_t i = 0; i < n; ++i) {
      T v = s[i];
      s[i] = acc;
      acc += v;
    }
    return acc;
  }
  std::vector<T> sums(nb);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * block;
        const std::size_t hi = std::min(n, lo + block);
        T acc{};
        for (std::size_t i = lo; i < hi; ++i) acc += s[i];
        sums[b] = acc;
      },
      1);
  T total{};
  for (std::size_t b = 0; b < nb; ++b) {
    T v = sums[b];
    sums[b] = total;
    total += v;
  }
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * block;
        const std::size_t hi = std::min(n, lo + block);
        T acc = sums[b];
        for (std::size_t i = lo; i < hi; ++i) {
          T v = s[i];
          s[i] = acc;
          acc += v;
        }
      },
      1);
  return total;
}

namespace detail {

// The one pack: item(i) for each i in [0, n) with keep(i), in order of i,
// written from storage(m)[0] on, where m is the number kept. Counts each
// block's kept items on the workers, takes a prefix over the blocks, then
// writes each block from its offset; keep runs twice per element. Up to
// `grain` elements (at least one block) the range is one block on the
// calling thread, so a small pack opens no team. Returns m.
template <class Keep, class Item, class Storage>
std::size_t blocked_pack(std::size_t n, Keep keep, Item item, Storage storage,
                         std::size_t grain = kBlock) {
  const auto count = [&](std::size_t lo, std::size_t hi) {
    std::size_t c = 0;
    for (std::size_t i = lo; i < hi; ++i) c += keep(i) ? 1 : 0;
    return c;
  };
  const auto write = [&](std::size_t lo, std::size_t hi, auto* at) {
    using T = std::remove_pointer_t<decltype(at)>;
    for (std::size_t i = lo; i < hi; ++i) {
      if (keep(i)) ::new (static_cast<void*>(at++)) T(item(i));
    }
  };
  if (n <= std::max(kBlock, grain)) {
    const std::size_t m = count(0, n);
    write(0, n, storage(m));
    return m;
  }
  const std::size_t nb = num_blocks(n, kBlock);
  const std::size_t grain_blocks = std::max<std::size_t>(1, grain / kBlock);
  std::vector<std::size_t> offs(nb + 1, 0);  // offs[b + 1]: block b's count
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        offs[b + 1] = count(b * kBlock, std::min(n, (b + 1) * kBlock));
      },
      grain_blocks);
  for (std::size_t b = 0; b < nb; ++b) offs[b + 1] += offs[b];
  const auto out = storage(offs[nb]);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        write(b * kBlock, std::min(n, (b + 1) * kBlock), out + offs[b]);
      },
      grain_blocks);
  return offs[nb];
}

}  // namespace detail

/// Writes item(i) for each i in [0, n) with keep(i), in order of i, to the
/// caller's slice out[0, m), and returns m. `out` must hold every kept item
/// and may be uninitialised (items are placement-new'd). Parallel over
/// blocks of detail::kBlock above `grain` elements; the output does not
/// depend on the blocking. With keep always true it is a parallel copy.
template <class T, class Keep, class Item>
std::size_t pack_into(std::size_t n, Keep keep, Item item, T* out,
                      std::size_t grain = detail::kBlock) {
  return detail::blocked_pack(
      n, keep, item, [out](std::size_t) { return out; }, grain);
}

namespace detail {

// blocked_pack into a vector of exactly the kept items.
template <class Keep, class Item>
auto pack_vector(std::size_t n, Keep keep, Item item) {
  std::vector<std::decay_t<decltype(item(std::size_t{0}))>> out;
  blocked_pack(n, keep, item, [&out](std::size_t m) {
    out.resize(m);
    return out.data();
  });
  return out;
}

}  // namespace detail

/// pack(seq, flags): elements with flags[i] != 0, in order.
template <class Seq, class Flags>
auto pack(const Seq& s, const Flags& flags) {
  return detail::pack_vector(
      s.size(), [&](std::size_t i) { return static_cast<bool>(flags[i]); },
      [&](std::size_t i) { return s[i]; });
}

/// Indices i where flags[i] != 0, in order.
template <class Flags>
std::vector<std::size_t> pack_index(const Flags& flags) {
  return detail::pack_vector(
      flags.size(), [&](std::size_t i) { return static_cast<bool>(flags[i]); },
      [](std::size_t i) { return i; });
}

/// filter(seq, pred): elements satisfying pred, in order.
template <class Seq, class Pred>
auto filter(const Seq& s, Pred pred) {
  return detail::pack_vector(
      s.size(), [&](std::size_t i) { return static_cast<bool>(pred(s[i])); },
      [&](std::size_t i) { return s[i]; });
}

/// Count elements satisfying pred.
template <class Seq, class Pred>
std::size_t count_if(const Seq& s, Pred pred) {
  const std::size_t n = s.size();
  const std::size_t block = detail::kBlock;
  const std::size_t nb = detail::num_blocks(n, block);
  if (nb == 0) return 0;
  std::vector<std::size_t> partial(nb, 0);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * block;
        const std::size_t hi = std::min(n, lo + block);
        std::size_t c = 0;
        for (std::size_t i = lo; i < hi; ++i) c += pred(s[i]) ? 1 : 0;
        partial[b] = c;
      },
      1);
  return std::accumulate(partial.begin(), partial.end(), std::size_t{0});
}

namespace detail {

// counting_scatter's count and scatter passes. Between them,
// storage(start) returns where each bucket's items go: start[k] is where
// bucket k begins in the concatenated output, start[k + 1] where it ends.
template <class Item, class Key, class Storage>
std::vector<std::size_t> counting_scatter(std::size_t n, std::size_t buckets,
                                          Item item, Key key,
                                          Storage storage) {
  // A block writes one run per bucket: with many buckets, larger blocks
  // keep the runs long enough that two blocks rarely share a cache line.
  const std::size_t block = std::max(kBlock, 16 * buckets);
  const std::size_t nb = num_blocks(n, block);
  std::vector<std::size_t> offs(nb * buckets, 0);  // row b: block b's runs
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        // Local counters: neighbouring blocks' rows share cache lines.
        std::vector<std::size_t> count(buckets, 0);
        const std::size_t hi = std::min(n, (b + 1) * block);
        for (std::size_t i = b * block; i < hi; ++i) ++count[key(item(i))];
        std::copy(count.begin(), count.end(), offs.begin() + b * buckets);
      },
      1);
  std::vector<std::size_t> start(buckets + 1);
  std::size_t total = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    start[k] = total;
    for (std::size_t b = 0; b < nb; ++b) {
      const std::size_t c = offs[b * buckets + k];
      offs[b * buckets + k] = total - start[k];  // offset inside bucket k
      total += c;
    }
  }
  start[buckets] = total;
  const auto out = storage(start);
  using T = std::remove_pointer_t<typename decltype(out)::value_type>;
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        std::vector<std::size_t> at(offs.begin() + b * buckets,
                                    offs.begin() + (b + 1) * buckets);
        const std::size_t hi = std::min(n, (b + 1) * block);
        for (std::size_t i = b * block; i < hi; ++i) {
          auto x = item(i);
          const std::size_t k = key(x);
          ::new (static_cast<void*>(out[k] + at[k]++)) T(std::move(x));
        }
      },
      1);
  return start;
}

}  // namespace detail

/// Stable counting sort by a small key: writes item(0), ..., item(n - 1)
/// to out[0, n) so that the items of bucket 0 come first, then those of
/// bucket 1, and so on, each bucket in input order. `key(x)` is x's bucket,
/// in [0, buckets); out may be uninitialised storage (items are written by
/// placement new). One counting pass and one scatter pass, each parallel
/// over blocks; being stable, the output does not depend on the blocking.
/// Returns the bucket starts with n appended (buckets + 1 entries).
template <class T, class Item, class Key>
std::vector<std::size_t> counting_scatter(std::size_t n, std::size_t buckets,
                                          Item item, Key key, T* out) {
  return detail::counting_scatter(
      n, buckets, item, key, [out](const std::vector<std::size_t>& start) {
        std::vector<T*> at(start.size() - 1);
        for (std::size_t k = 0; k < at.size(); ++k) at[k] = out + start[k];
        return at;
      });
}

/// The same scatter into one vector per bucket: out[k] is resized to hold
/// exactly bucket k's items, in input order (out.size() == buckets). The
/// vectors are resized on the workers, so fresh pages fault on all of them.
template <class T, class Item, class Key>
void counting_scatter(std::size_t n, Item item, Key key,
                      std::vector<std::vector<T>>& out) {
  static_assert(std::is_trivially_destructible_v<T>,
                "items are placement-new'd over the resized vectors' slots");
  detail::counting_scatter(
      n, out.size(), item, key, [&out](const std::vector<std::size_t>& start) {
        std::vector<T*> at(out.size());
        parallel_for(
            0, out.size(),
            [&](std::size_t k) {
              out[k].resize(start[k + 1] - start[k]);
              at[k] = out[k].data();
            },
            1);
        return at;
      });
}

/// flatten(vector<vector<T>>): concatenation, preserving order.
template <class T>
std::vector<T> flatten(const std::vector<std::vector<T>>& nested) {
  const std::size_t m = nested.size();
  std::vector<std::size_t> offs(m);
  parallel_for(0, m, [&](std::size_t i) { offs[i] = nested[i].size(); });
  const std::size_t total = scan_exclusive(offs);
  std::vector<T> out(total);
  parallel_for(
      0, m,
      [&](std::size_t i) {
        std::copy(nested[i].begin(), nested[i].end(), out.begin() + offs[i]);
      },
      1);
  return out;
}

/// tabulate(n, f): vector {f(0), ..., f(n-1)} built in parallel.
template <class F>
auto tabulate(std::size_t n, F f) {
  using T = std::decay_t<decltype(f(std::size_t{0}))>;
  std::vector<T> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

}  // namespace pargeo::par
