// Bounded lock-free MPSC ring — the query_service's lock-free front door.
//
// Layout is the classic sequence-numbered slot array (Vyukov's bounded
// queue, restricted to a single consumer): each slot carries an atomic
// sequence counter; a producer claims a position with one CAS on the tail,
// writes the item, and *publishes* it by storing `pos + 1` into the slot's
// sequence with release order. The consumer observes publication with an
// acquire load, moves the item out, and recycles the slot by storing
// `pos + capacity`. Producers never take a lock on the fast path; the only
// producer-producer contention is the tail CAS.
//
// Blocking is futex-style, built from the primitives C++17 gives us: a
// producer that finds the ring full spins a bounded number of times (each
// failed attempt is counted in `spins()` — the service surfaces it as
// `ingest_spins`) and then parks on a mutex/condvar parking lot. The
// consumer wakes the lot only when `waiters()` says somebody is parked, so
// the uncontended path never touches the lot. The consumer parks the same
// way via `consumer_wait`; producers `kick_consumer()` after publishing
// only when the parked flag is up. Both sides bound their waits, so a lost
// wakeup race costs one timeout tick, never a deadlock; the seq_cst fences
// around the parked-flag handshake make that race next to impossible.
//
// close() wakes every parked producer and the consumer; subsequent pushes
// return push_status::closed. Items already published stay poppable — the
// consumer drains the ring to empty before shutting down.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace pargeo::query {

enum class push_status { ok, full, closed };

template <typename T>
class mpsc_ring {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit mpsc_ring(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.reset(new slot[cap]);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// One lock-free push attempt. Returns `full` without consuming `v`;
  /// `ok` moves `v` into the ring.
  push_status try_push(T& v) {
    if (closed_.load(std::memory_order_acquire)) return push_status::closed;
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      slot& s = slots_[pos & mask_];
      const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          s.item = std::move(v);
          s.seq.store(pos + 1, std::memory_order_release);
          std::atomic_thread_fence(std::memory_order_seq_cst);
          if (consumer_parked_.load(std::memory_order_relaxed)) {
            kick_consumer();
          }
          return push_status::ok;
        }
        // CAS refreshed pos; retry at the new position.
      } else if (dif < 0) {
        return push_status::full;
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Blocking push: spins while the ring is full (counted in spins()),
  /// then parks until the consumer frees a slot or the ring closes.
  push_status push(T&& v) {
    T local = std::move(v);
    for (;;) {
      for (int i = 0; i < kSpinLimit; ++i) {
        const push_status st = try_push(local);
        if (st != push_status::full) return st;
        spins_.fetch_add(1, std::memory_order_relaxed);
      }
      std::unique_lock<std::mutex> lk(prod_mu_);
      prod_waiters_.fetch_add(1, std::memory_order_seq_cst);
      // Bounded wait: a missed notify costs one tick, not a deadlock.
      prod_cv_.wait_for(lk, std::chrono::milliseconds(1), [&] {
        return closed_.load(std::memory_order_acquire) || !full_hint();
      });
      prod_waiters_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Single-consumer pop. Returns false when no published item is ready.
  bool try_pop(T& out) {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    slot& s = slots_[pos & mask_];
    const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) -
            static_cast<std::int64_t>(pos + 1) < 0) {
      return false;
    }
    out = std::move(s.item);
    s.item = T{};  // drop payload-owned resources now, not a lap later
    s.seq.store(pos + mask_ + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_release);
    if (prod_waiters_.load(std::memory_order_relaxed) > 0) {
      std::lock_guard<std::mutex> lk(prod_mu_);
      prod_cv_.notify_all();
    }
    return true;
  }

  /// True when every published item has been consumed (consumer's view;
  /// racy but conservative for anyone else).
  bool empty() const {
    const std::uint64_t pos = head_.load(std::memory_order_acquire);
    const std::uint64_t seq =
        slots_[pos & mask_].seq.load(std::memory_order_acquire);
    return static_cast<std::int64_t>(seq) -
               static_cast<std::int64_t>(pos + 1) < 0;
  }

  /// Published-but-unconsumed item count (approximate under concurrency).
  std::size_t approx_size() const {
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }

  /// Consumer-side park: blocks until `pred()` holds, a producer kicks,
  /// or `timeout` elapses. `pred` must read only atomics.
  template <typename Pred>
  void consumer_wait(std::chrono::nanoseconds timeout, Pred pred) {
    consumer_parked_.store(true, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!pred()) {
      std::unique_lock<std::mutex> lk(cons_mu_);
      cons_cv_.wait_for(lk, timeout, pred);
    }
    consumer_parked_.store(false, std::memory_order_relaxed);
  }

  /// Wake the consumer if it is (or is about to be) parked.
  void kick_consumer() {
    std::lock_guard<std::mutex> lk(cons_mu_);
    cons_cv_.notify_all();
  }

  /// Wakes every parked producer and the consumer; later pushes fail with
  /// push_status::closed. Already-published items remain poppable.
  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(prod_mu_);
      prod_cv_.notify_all();
    }
    kick_consumer();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Failed full-ring push attempts (producer spin iterations).
  std::uint64_t spins() const {
    return spins_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kSpinLimit = 64;

  struct slot {
    std::atomic<std::uint64_t> seq{0};
    T item{};
  };

  // Producer-visible fullness hint for the parking-lot predicate: the next
  // tail slot has not been recycled yet.
  bool full_hint() const {
    const std::uint64_t pos = tail_.load(std::memory_order_acquire);
    const std::uint64_t seq =
        slots_[pos & mask_].seq.load(std::memory_order_acquire);
    return static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos) < 0;
  }

  std::unique_ptr<slot[]> slots_;
  std::size_t mask_ = 1;
  alignas(64) std::atomic<std::uint64_t> tail_{0};   // producers CAS
  alignas(64) std::atomic<std::uint64_t> head_{0};   // consumer only
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> spins_{0};

  std::mutex prod_mu_;
  std::condition_variable prod_cv_;
  std::atomic<int> prod_waiters_{0};  // modified under prod_mu_

  std::mutex cons_mu_;
  std::condition_variable cons_cv_;
  std::atomic<bool> consumer_parked_{false};
};

}  // namespace pargeo::query
