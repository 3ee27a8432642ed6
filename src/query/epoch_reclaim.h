// QSBR-style epoch-based reclamation for index snapshot structure: it lets
// snapshot readers run concurrently with writers on every shard without
// a per-shard write gate (the discipline follows the quiescent-state
// reclaimers in setbench's recordmgr family).
//
// Model: a single global epoch counter plus a fixed array of reader slots.
// A reader *enters* by claiming a free slot and stamping it with the
// current epoch (RAII `guard`); while the slot is stamped, no structure
// retired at an epoch >= that stamp will be destroyed. Writers never wait
// for readers: when they supersede a structure version (a vEB tree that
// an insert cascade destroyed or a copy-on-write erase replaced) they
// `retire()` it onto a limbo list
// stamped with the current epoch and move on. At drain boundaries the
// service calls `advance_and_reclaim()`: the global epoch advances, the
// minimum epoch across occupied reader slots is computed, and every limbo
// entry retired strictly before that minimum is released.
//
// Retired objects are handed over as `shared_ptr<const void>` — the limbo
// list holds the *last* structural reference, so destruction of a retired
// version happens at a reclaim point on the drain thread (bounded, and off
// the reader tail-latency path) instead of wherever the final reader
// happens to drop its reference. A reader that still shares ownership of a
// retired version keeps it alive through the refcount regardless, so epoch
// accounting bugs can only delay reclamation, never cause use-after-free —
// but the stress oracle in tests/test_epoch_reclaim.cpp drops the refcount
// on purpose and leans on the epochs alone.
//
// Counters (surfaced as service_stats / Prometheus families):
//   retired        — versions pushed onto limbo so far
//   reclaimed      — versions destroyed by advance_and_reclaim
//   reclaim_stalls — reclaim passes that freed nothing while limbo was
//                    non-empty (an old reader is holding the epoch back)
//   epoch_lag      — global epoch minus the slowest active reader's epoch
//                    at the last reclaim pass (0 when no reader is active)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace pargeo::query {

struct reclaim_counters {
  std::uint64_t retired = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t reclaim_stalls = 0;
  std::uint64_t epoch_lag = 0;
  std::uint64_t limbo = 0;
  std::uint64_t epoch = 0;
};

class epoch_reclaimer {
 public:
  static constexpr std::size_t kMaxReaders = 64;

  class guard {
   public:
    guard() = default;
    guard(epoch_reclaimer* d, std::size_t slot) : d_(d), slot_(slot) {}
    guard(guard&& o) noexcept : d_(o.d_), slot_(o.slot_) { o.d_ = nullptr; }
    guard& operator=(guard&& o) noexcept {
      if (this != &o) {
        release();
        d_ = o.d_;
        slot_ = o.slot_;
        o.d_ = nullptr;
      }
      return *this;
    }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;
    ~guard() { release(); }

    void release() {
      if (d_) {
        d_->slots_[slot_].e.store(0, std::memory_order_release);
        d_ = nullptr;
      }
    }

   private:
    epoch_reclaimer* d_ = nullptr;
    std::size_t slot_ = 0;
  };

  /// Enter the current epoch. Blocks (yield-spin) only in the pathological
  /// case of > kMaxReaders concurrent guards; the service's reader pools
  /// are far smaller.
  guard enter() {
    const std::uint64_t e = global_.load(std::memory_order_seq_cst);
    for (;;) {
      for (std::size_t i = 0; i < kMaxReaders; ++i) {
        std::uint64_t expect = 0;
        if (slots_[i].e.compare_exchange_strong(expect, e,
                                                std::memory_order_seq_cst)) {
          return guard(this, i);
        }
      }
      std::this_thread::yield();
    }
  }

  /// Hand a superseded structure version to the limbo list. The list takes
  /// (shared) ownership; the version is destroyed by a later
  /// advance_and_reclaim once every reader that could have seen it left.
  void retire(std::shared_ptr<const void> obj) {
    if (!obj) return;
    const std::uint64_t e = global_.load(std::memory_order_seq_cst);
    std::lock_guard<std::mutex> lk(mu_);
    limbo_.push_back({e, std::move(obj)});
    retired_.fetch_add(1, std::memory_order_relaxed);
    limbo_depth_.store(limbo_.size(), std::memory_order_relaxed);
  }

  /// Advance the global epoch and release every limbo entry retired
  /// strictly before the slowest active reader. Returns how many versions
  /// were destroyed (destruction runs outside the limbo lock).
  std::size_t advance_and_reclaim() {
    const std::uint64_t next =
        global_.fetch_add(1, std::memory_order_seq_cst) + 1;
    std::uint64_t min_active = next;
    for (std::size_t i = 0; i < kMaxReaders; ++i) {
      const std::uint64_t v = slots_[i].e.load(std::memory_order_seq_cst);
      if (v != 0 && v < min_active) min_active = v;
    }
    epoch_lag_.store(next - min_active, std::memory_order_relaxed);

    std::vector<entry> freed;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (limbo_.empty()) return 0;
      auto it = limbo_.begin();
      while (it != limbo_.end()) {
        if (it->epoch < min_active) {
          freed.push_back(std::move(*it));
          it = limbo_.erase(it);
        } else {
          ++it;
        }
      }
      if (freed.empty()) {
        reclaim_stalls_.fetch_add(1, std::memory_order_relaxed);
      }
      limbo_depth_.store(limbo_.size(), std::memory_order_relaxed);
    }
    reclaimed_.fetch_add(freed.size(), std::memory_order_relaxed);
    return freed.size();  // `freed` destructs here, releasing the versions
  }

  std::uint64_t epoch() const {
    return global_.load(std::memory_order_acquire);
  }

  reclaim_counters counters() const {
    reclaim_counters c;
    c.retired = retired_.load(std::memory_order_relaxed);
    c.reclaimed = reclaimed_.load(std::memory_order_relaxed);
    c.reclaim_stalls = reclaim_stalls_.load(std::memory_order_relaxed);
    c.epoch_lag = epoch_lag_.load(std::memory_order_relaxed);
    c.limbo = limbo_depth_.load(std::memory_order_relaxed);
    c.epoch = global_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  struct entry {
    std::uint64_t epoch;
    std::shared_ptr<const void> obj;
  };

  struct alignas(64) slot {
    std::atomic<std::uint64_t> e{0};  // 0 = quiescent
  };

  std::atomic<std::uint64_t> global_{1};
  slot slots_[kMaxReaders];

  std::mutex mu_;
  std::vector<entry> limbo_;

  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  std::atomic<std::uint64_t> reclaim_stalls_{0};
  std::atomic<std::uint64_t> epoch_lag_{0};
  std::atomic<std::uint64_t> limbo_depth_{0};
};

}  // namespace pargeo::query
