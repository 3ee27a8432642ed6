// Replicated read tier over the op log (query/oplog.h): N extra
// query_service instances trailing the primary's log by epochs, plus the
// tiny front door that scatters reads across them under a staleness
// bound.
//
//     writes                    reads (staleness-bounded)
//       |                          |
//       v                          v
//   +---------+   append    +--------------+   pick freshest eligible
//   | primary | ----------> |    op log    |        replica_router
//   +---------+             +--------------+       /      |      \
//                             | tail (epoch      v       v       v
//                             |  order)      +-------+ +-------+ +-------+
//                             +------------> | rep 0 | | rep 1 | | rep 2 |
//                                            +-------+ +-------+ +-------+
//                                             applied   applied   applied
//                                             epoch 41  epoch 42  epoch 40
//
// - `replica_set<D>` hosts the replicas: each is a query_service built
//   from the primary's config with the self-mutating subsystems disabled
//   (no TTL expiry, no stripe rebalancing — those arrive through the log
//   as `expire` and `rebalance` groups, replayed verbatim), fed by a tail
//   thread that reads new log groups in epoch order and hands them to
//   `apply_replayed()`. Because replay re-issues the primary's exact
//   backend-call sequence, a replica's answers are byte-identical to the
//   primary's at every epoch boundary.
// - `replica_router<D>` is the front door. Writes go to the primary
//   (completions carry `ticket_result::commit_epoch`). A read-only batch
//   goes to the freshest replica whose `applied_epoch` clears BOTH
//   bounds: the staleness bound `head - max_epoch_lag` (never read data
//   more than `max_epoch_lag` committed groups old) and the caller's
//   read-your-writes floor `min_epoch` (pass the commit_epoch from your
//   last write completion to be guaranteed to see it). When no replica
//   qualifies the read falls back to the primary — always correct, just
//   not offloaded — and is counted.
//
// Deterministic tests build the set with `start_tails = false` and step
// replication explicitly with `pump()` (replay everything currently in
// the log, wait for it to apply).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "query/checkpoint.h"
#include "query/oplog.h"
#include "query/query_service.h"

namespace pargeo::query {

/// Replica health, as tracked by replica_set and consulted by the
/// router. `lagging` is advisory (still serves reads, just behind);
/// `resyncing` is transient (a checkpoint bootstrap is being applied);
/// `quarantined` is sticky — the router stops sending reads and the
/// tail thread has given up (gap with no checkpoint to bridge it, or
/// replay errors that could not be healed).
enum class replica_health : std::uint8_t {
  healthy = 0,
  lagging = 1,
  resyncing = 2,
  quarantined = 3,
};

inline const char* replica_health_name(replica_health h) {
  switch (h) {
    case replica_health::healthy:
      return "healthy";
    case replica_health::lagging:
      return "lagging";
    case replica_health::resyncing:
      return "resyncing";
    case replica_health::quarantined:
      return "quarantined";
  }
  return "unknown";
}

/// Derives a replica's config from the primary's: same backend, shards
/// and routing policy (replay re-issues the primary's explicit per-shard
/// calls), but with TTL expiry and stripe rebalancing off — a replica
/// must never originate writes of its own, or it diverges from the log.
inline service_config replica_config(service_config cfg) {
  cfg.point_ttl_ns = 0;
  cfg.ttl_now = nullptr;
  cfg.rebalance_threshold = 0;
  // Durability belongs to the primary: a replica opening the same
  // log_dir would rewrite the primary's durable log with its own (empty)
  // ring. Replicas are rebuildable from log + checkpoint by definition.
  cfg.log_dir.clear();
  cfg.checkpoint_every = 0;
  return cfg;
}

/// N query_service replicas tailing one op log in epoch order.
template <int D>
class replica_set {
 public:
  /// With `start_tails` (the default), one tail thread per replica
  /// streams new log groups into it as they commit; `pump()` is then
  /// unavailable. With tails off, nothing replays until pump() — the
  /// deterministic mode tests and epoch-boundary oracles use.
  /// `checkpoint_dir` names the primary's durable directory (its
  /// cfg.log_dir). When set, a tail that falls off the retained log ring
  /// — or replays a group that errors — self-heals by bootstrapping from
  /// the latest checkpoint and re-tailing from its epoch, instead of
  /// dying. When empty, those conditions quarantine the replica.
  replica_set(std::shared_ptr<op_log<D>> log, const service_config& primary_cfg,
              std::size_t replicas, bool start_tails = true,
              std::string checkpoint_dir = std::string())
      : log_(std::move(log)),
        checkpoint_dir_(std::move(checkpoint_dir)),
        tails_running_(start_tails) {
    if (!log_) {
      throw std::invalid_argument("replica_set: null op_log");
    }
    const service_config cfg = replica_config(primary_cfg);
    services_.reserve(replicas);
    states_.reserve(replicas);
    for (std::size_t i = 0; i < replicas; ++i) {
      services_.push_back(std::make_unique<query_service<D>>(cfg));
      states_.push_back(std::make_unique<rep_state>());
    }
    enqueued_.assign(replicas, 0);
    if (start_tails) {
      tails_.reserve(replicas);
      for (std::size_t i = 0; i < replicas; ++i) {
        tails_.emplace_back([this, i] { tail_loop(i); });
      }
    }
  }

  ~replica_set() { close(); }
  replica_set(const replica_set&) = delete;
  replica_set& operator=(const replica_set&) = delete;

  std::size_t size() const { return services_.size(); }
  query_service<D>& replica(std::size_t i) { return *services_[i]; }
  const query_service<D>& replica(std::size_t i) const {
    return *services_[i];
  }

  /// Last log epoch replica i has dispatched to its lanes (reads
  /// submitted after observing it are guaranteed to see those writes).
  std::uint64_t applied_epoch(std::size_t i) const {
    return services_[i]->applied_epoch();
  }

  /// The stalest replica's position (0 with no replicas).
  std::uint64_t min_applied_epoch() const {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < services_.size(); ++i) {
      const std::uint64_t a = services_[i]->applied_epoch();
      if (i == 0 || a < m) m = a;
    }
    return m;
  }

  /// A tail thread hit a replay gap it could not heal (no checkpoint
  /// source, or the latest checkpoint is too old to bridge it). The
  /// replica stops advancing; message in tail_error().
  bool tail_failed() const {
    return tail_failed_.load(std::memory_order_acquire);
  }
  std::string tail_error() const {
    std::lock_guard<std::mutex> lk(err_mu_);
    return tail_error_;
  }

  /// Replica i's health. quarantined/resyncing come from the stored
  /// state; `lagging` is derived on read — healthy but trailing the log
  /// head by more than the tail window (it still serves, the router's
  /// staleness bound decides whether to use it).
  replica_health health(std::size_t i) const {
    const auto h = static_cast<replica_health>(
        states_[i]->health.load(std::memory_order_acquire));
    if (h == replica_health::healthy) {
      const std::uint64_t head = log_->head();
      const std::uint64_t a = services_[i]->applied_epoch();
      if (head > a && head - a > kWindow) return replica_health::lagging;
    }
    return h;
  }

  /// Checkpoint bootstraps replica i has performed to heal a gap or a
  /// replay divergence.
  std::uint64_t resyncs(std::size_t i) const {
    return states_[i]->resyncs.load(std::memory_order_acquire);
  }
  std::uint64_t total_resyncs() const {
    std::uint64_t n = 0;
    for (const auto& st : states_)
      n += st->resyncs.load(std::memory_order_acquire);
    return n;
  }

  /// Replicas currently quarantined (the router routes around them).
  std::size_t quarantined() const {
    std::size_t n = 0;
    for (const auto& st : states_) {
      if (static_cast<replica_health>(st->health.load(
              std::memory_order_acquire)) == replica_health::quarantined)
        ++n;
    }
    return n;
  }

  /// Point the set at (or away from) a checkpoint directory after
  /// construction. Quiescent callers only (before traffic / between
  /// pump() steps).
  void set_checkpoint_source(std::string dir) {
    checkpoint_dir_ = std::move(dir);
  }

  /// Quarantine a replica once it trails the log head by more than this
  /// many epochs (0 = never). Off by default: a slow-but-progressing
  /// replica is useful; this is the backstop for one that is effectively
  /// wedged while its thread still lives.
  void set_quarantine_lag(std::uint64_t epochs) { quarantine_lag_ = epochs; }

  /// Deterministic replication step (tails off only): replays every
  /// group currently in the log on every replica and waits until each
  /// replica's applied_epoch reaches the log head as of entry.
  void pump() {
    if (tails_running_) {
      throw std::logic_error(
          "replica_set::pump with tail threads running (they would "
          "double-apply); construct with start_tails = false");
    }
    const std::uint64_t head = log_->head();
    for (std::size_t i = 0; i < services_.size(); ++i) {
      bool healed_this_pump = false;
      for (;;) {
        while (enqueued_[i] < head) {
          std::vector<log_group<D>> groups;
          try {
            groups = log_->read_from(enqueued_[i], 64);
          } catch (const std::exception& e) {
            // Gap: the ring (or compaction) dropped epochs this replica
            // never consumed. Heal from the checkpoint or quarantine.
            const auto resumed = try_resync(i, enqueued_[i], e.what());
            if (!resumed) break;
            enqueued_[i] = *resumed;
            continue;
          }
          if (groups.empty()) break;
          for (auto& g : groups) {
            const std::uint64_t e = g.epoch;
            services_[i]->apply_replayed(std::move(g));
            enqueued_[i] = e;
          }
        }
        // Full-application barrier (pump callers gather()/size() the
        // replica right after) — applied_epoch cannot serve here, since
        // a resync rebuild moves it backwards.
        services_[i]->wait_replay_drained();
        // A group that errored during replay left this replica diverged:
        // heal by rebootstrapping from the checkpoint and re-replaying
        // the tail (build replaces contents, so re-application is
        // idempotent). One heal per pump — persistent errors would
        // otherwise loop forever.
        if (healed_this_pump) break;
        const auto back = heal_replay_errors(i);
        if (!back) break;
        healed_this_pump = true;
        enqueued_[i] = *back;
      }
    }
  }

  /// Blocks until replica i's applied_epoch reaches `epoch`.
  void wait_applied(std::size_t i, std::uint64_t epoch) const {
    while (services_[i]->applied_epoch() < epoch) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// Stops the tail threads and closes every replica. Idempotent; also
  /// run by the destructor.
  void close() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : tails_) {
      if (t.joinable()) t.join();
    }
    tails_.clear();
    tails_running_ = false;
    for (auto& s : services_) s->close();
  }

 private:
  // Replay-queue bound AND the "lagging" threshold in health().
  static constexpr std::uint64_t kWindow = 128;

  struct rep_state {
    std::atomic<std::uint8_t> health{
        static_cast<std::uint8_t>(replica_health::healthy)};
    std::atomic<std::uint64_t> resyncs{0};
    // replay_errors already healed by a resync; new errors are
    // count > baseline.
    std::atomic<std::size_t> error_baseline{0};
  };

  void quarantine(std::size_t i, const std::string& why) {
    states_[i]->health.store(
        static_cast<std::uint8_t>(replica_health::quarantined),
        std::memory_order_release);
    std::lock_guard<std::mutex> lk(err_mu_);
    tail_error_ = "replica " + std::to_string(i) + ": " + why;
    tail_failed_.store(true, std::memory_order_release);
  }

  // Bootstraps replica i from the latest checkpoint: it replays the
  // checkpoint's group (checkpoint_group(), the one recovery applies —
  // per-shard build records at the checkpoint epoch, so this is safe from
  // any prior state). Returns the epoch to resume tailing from, or
  // nullopt after quarantining. `require_newer`: a gap at `at` is only
  // bridged by a checkpoint AHEAD of it; divergence healing accepts any
  // checkpoint.
  std::optional<std::uint64_t> try_resync(std::size_t i, std::uint64_t at,
                                          const std::string& why,
                                          bool require_newer = true) {
    if (checkpoint_dir_.empty()) {
      quarantine(i, why + " (no checkpoint source)");
      return std::nullopt;
    }
    checkpoint_data<D> ck;
    if (!read_latest_checkpoint<D>(checkpoint_dir_, ck)) {
      quarantine(i, why + " (no usable checkpoint in '" + checkpoint_dir_ +
                        "')");
      return std::nullopt;
    }
    if (require_newer && ck.epoch <= at) {
      quarantine(i, why + " (latest checkpoint epoch " +
                        std::to_string(ck.epoch) +
                        " cannot bridge a gap at " + std::to_string(at) +
                        ")");
      return std::nullopt;
    }
    const std::uint64_t epoch = ck.epoch;
    log_group<D> g;
    try {
      g = checkpoint_group(std::move(ck), services_[i]->config().shards);
    } catch (const std::invalid_argument& e) {
      quarantine(i, why + " (" + e.what() + ")");
      return std::nullopt;
    }
    states_[i]->health.store(
        static_cast<std::uint8_t>(replica_health::resyncing),
        std::memory_order_release);
    const std::size_t errs_before = services_[i]->replay_error_count();
    try {
      services_[i]->apply_replayed(std::move(g));
      // Not an epoch wait: the replica may already sit AHEAD of
      // ck.epoch (divergence healing), so only a queue-drain barrier
      // proves the rebuild actually ran.
      services_[i]->wait_replay_drained();
    } catch (const std::exception&) {
      return std::nullopt;  // replica closed under us
    }
    // The bootstrap group itself must have applied cleanly — silently
    // resetting the baseline over a failed rebuild would mask a replica
    // that is still diverged.
    if (services_[i]->replay_error_count() > errs_before) {
      quarantine(i, why + " (checkpoint bootstrap failed to apply)");
      return std::nullopt;
    }
    // Divergence (if any) is healed; only count errors after this point.
    states_[i]->error_baseline.store(services_[i]->replay_error_count(),
                                     std::memory_order_release);
    states_[i]->resyncs.fetch_add(1, std::memory_order_acq_rel);
    states_[i]->health.store(
        static_cast<std::uint8_t>(replica_health::healthy),
        std::memory_order_release);
    return epoch;
  }

  // Replay errors leave a replica diverged from the log (the group was
  // skipped wholesale). With a checkpoint source the replica rebuilds
  // from the checkpoint and re-replays; without one it is quarantined.
  // Returns the epoch to resume from after a heal, nullopt otherwise.
  std::optional<std::uint64_t> heal_replay_errors(std::size_t i) {
    const std::size_t errs = services_[i]->replay_error_count();
    if (errs <= states_[i]->error_baseline.load(std::memory_order_acquire)) {
      return std::nullopt;
    }
    if (checkpoint_dir_.empty()) {
      quarantine(i, "replay errors with no checkpoint source (" +
                        std::to_string(errs) + " total)");
      return std::nullopt;
    }
    return try_resync(i, services_[i]->applied_epoch(), "replay divergence",
                      /*require_newer=*/false);
  }

  void tail_loop(std::size_t i) {
    // Keep the replay queue bounded: after handing off a window of
    // groups, wait for the replica to catch up to within the window
    // before tailing further (otherwise a slow replica buffers the whole
    // log in its queue).
    std::uint64_t at = 0;  // last epoch handed to the replica
    while (!stop_.load(std::memory_order_acquire)) {
      if (quarantine_lag_ > 0) {
        const std::uint64_t head = log_->head();
        const std::uint64_t a = services_[i]->applied_epoch();
        if (head > a && head - a > quarantine_lag_) {
          quarantine(i, "lag " + std::to_string(head - a) +
                            " exceeds quarantine bound " +
                            std::to_string(quarantine_lag_));
          return;
        }
      }
      if (!log_->wait_for_head(at, std::chrono::milliseconds(20))) continue;
      std::vector<log_group<D>> groups;
      try {
        groups = log_->read_from(at, 64);
      } catch (const std::exception& e) {
        // Fell off the retained ring (or compaction truncated under us):
        // resync from the checkpoint instead of dying.
        const auto resumed = try_resync(i, at, e.what());
        if (!resumed) return;
        at = *resumed;
        continue;
      }
      for (auto& g : groups) {
        const std::uint64_t e = g.epoch;
        try {
          services_[i]->apply_replayed(std::move(g));
        } catch (const std::invalid_argument& err) {
          quarantine(i, err.what());  // log from another topology
          return;
        } catch (const std::exception&) {
          return;  // replica closed under us; tail is done
        }
        at = e;
        while (!stop_.load(std::memory_order_acquire) &&
               services_[i]->applied_epoch() + kWindow < at) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      if (const auto back = heal_replay_errors(i)) at = *back;
      if (static_cast<replica_health>(states_[i]->health.load(
              std::memory_order_acquire)) == replica_health::quarantined) {
        return;
      }
    }
  }

  std::shared_ptr<op_log<D>> log_;
  std::string checkpoint_dir_;
  std::uint64_t quarantine_lag_ = 0;  // 0 = lag never quarantines
  std::vector<std::unique_ptr<query_service<D>>> services_;
  std::vector<std::unique_ptr<rep_state>> states_;
  std::vector<std::uint64_t> enqueued_;  // pump() bookkeeping (tails off)
  std::vector<std::thread> tails_;
  bool tails_running_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> tail_failed_{false};
  mutable std::mutex err_mu_;
  std::string tail_error_;
};

/// Router counters (a snapshot; see replica_router::stats()).
struct router_stats {
  std::size_t writes = 0;             // batches sent to the primary as writes
  std::size_t reads_to_replicas = 0;  // read batches served by a replica
  std::size_t reads_to_primary = 0;   // read batches served by the primary
  std::size_t fallbacks = 0;  // reads wanting a replica, none eligible
};

/// The front door: writes to the primary, reads scattered across the
/// replica set under a staleness bound. Thread-safe (submit from any
/// number of producers); does not own the primary or the set.
template <int D>
class replica_router {
 public:
  /// `max_epoch_lag`: a replica may serve reads while trailing the log
  /// head by at most this many epochs (committed write groups). 0 =
  /// reads only from fully caught-up replicas.
  replica_router(query_service<D>& primary, replica_set<D>& replicas,
                 std::shared_ptr<op_log<D>> log, std::uint64_t max_epoch_lag)
      : primary_(primary),
        replicas_(replicas),
        log_(std::move(log)),
        max_epoch_lag_(max_epoch_lag) {
    if (!log_) {
      throw std::invalid_argument("replica_router: null op_log");
    }
  }

  std::uint64_t max_epoch_lag() const { return max_epoch_lag_; }

  /// Routes one batch. Writing (or mixed) batches go to the primary;
  /// their completions carry commit_epoch. Read-only batches go to the
  /// freshest replica whose applied epoch clears max(head -
  /// max_epoch_lag, min_epoch) — pass the commit_epoch of your last
  /// write as `min_epoch` for read-your-writes — with ties broken round
  /// robin, falling back to the primary when no replica qualifies.
  completion<D> submit(std::vector<request<D>> batch,
                       std::uint64_t min_epoch = 0) {
    bool read_only = true;
    for (const auto& r : batch) {
      if (!is_read(r.kind)) {
        read_only = false;
        break;
      }
    }
    if (!read_only) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.writes;
      }
      return primary_.submit(std::move(batch));
    }
    const std::size_t idx = pick_replica(min_epoch);
    if (idx == kPrimary) {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.reads_to_primary;
      if (replicas_.size() > 0) ++stats_.fallbacks;
    } else {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.reads_to_replicas;
    }
    return idx == kPrimary ? primary_.submit(std::move(batch))
                           : replicas_.replica(idx).submit(std::move(batch));
  }

  /// Synchronous convenience: submit + get.
  ticket_result<D> execute(std::vector<request<D>> batch,
                           std::uint64_t min_epoch = 0) {
    return submit(std::move(batch), min_epoch).get();
  }

  router_stats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

 private:
  static constexpr std::size_t kPrimary = static_cast<std::size_t>(-1);

  std::size_t pick_replica(std::uint64_t min_epoch) {
    const std::size_t n = replicas_.size();
    if (n == 0) return kPrimary;
    const std::uint64_t head = log_->head();
    const std::uint64_t staleness_floor =
        head > max_epoch_lag_ ? head - max_epoch_lag_ : 0;
    const std::uint64_t floor =
        min_epoch > staleness_floor ? min_epoch : staleness_floor;
    std::size_t best = kPrimary;
    std::uint64_t best_applied = 0;
    const std::size_t start =
        rr_.fetch_add(1, std::memory_order_relaxed) % n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (start + k) % n;
      // Quarantined replicas are routed around entirely: their state may
      // be diverged (replay errors) or frozen (dead tail) — freshness
      // alone cannot clear them.
      if (replicas_.health(i) == replica_health::quarantined) continue;
      const std::uint64_t a = replicas_.applied_epoch(i);
      if (a < floor) continue;
      if (best == kPrimary || a > best_applied) {
        best = i;
        best_applied = a;
      }
    }
    return best;
  }

  query_service<D>& primary_;
  replica_set<D>& replicas_;
  std::shared_ptr<op_log<D>> log_;
  std::uint64_t max_epoch_lag_;
  std::atomic<std::uint64_t> rr_{0};
  mutable std::mutex mu_;
  router_stats stats_;
};

/// Prometheus text exposition of the replication tier: log head, the
/// staleness bound, per-replica applied-epoch and lag gauges, and the
/// router's routing counters. Append to the primary's metrics_text() for
/// one scrape-ready page.
template <int D>
inline std::string replication_metrics_text(
    const replica_set<D>& replicas, const op_log<D>& log,
    const router_stats* router = nullptr) {
  std::string out;
  char line[160];
  const auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };
  const std::uint64_t head = log.head();
  emit("# HELP pargeo_replica_applied_epoch Last op-log epoch replayed\n"
       "# TYPE pargeo_replica_applied_epoch gauge\n");
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    emit("pargeo_replica_applied_epoch{replica=\"%zu\"} %llu\n", i,
         static_cast<unsigned long long>(replicas.applied_epoch(i)));
  }
  emit("# HELP pargeo_replica_lag Epochs behind the op-log head\n"
       "# TYPE pargeo_replica_lag gauge\n");
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const std::uint64_t a = replicas.applied_epoch(i);
    emit("pargeo_replica_lag{replica=\"%zu\"} %llu\n", i,
         static_cast<unsigned long long>(head > a ? head - a : 0));
  }
  emit("# HELP pargeo_replica_health 0 healthy, 1 lagging, 2 resyncing, "
       "3 quarantined\n"
       "# TYPE pargeo_replica_health gauge\n");
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    emit("pargeo_replica_health{replica=\"%zu\"} %u\n", i,
         static_cast<unsigned>(replicas.health(i)));
  }
  emit("# HELP pargeo_replica_resyncs_total Checkpoint bootstraps that "
       "healed a gap or divergence\n"
       "# TYPE pargeo_replica_resyncs_total counter\n");
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    emit("pargeo_replica_resyncs_total{replica=\"%zu\"} %llu\n", i,
         static_cast<unsigned long long>(replicas.resyncs(i)));
  }
  emit("# HELP pargeo_replicas_quarantined Replicas the router routes "
       "around\n"
       "# TYPE pargeo_replicas_quarantined gauge\n");
  emit("pargeo_replicas_quarantined %llu\n",
       static_cast<unsigned long long>(replicas.quarantined()));
  if (router != nullptr) {
    emit("# HELP pargeo_router_batches_total Batches routed, by destination\n"
         "# TYPE pargeo_router_batches_total counter\n");
    emit("pargeo_router_batches_total{dest=\"primary_write\"} %llu\n",
         static_cast<unsigned long long>(router->writes));
    emit("pargeo_router_batches_total{dest=\"replica_read\"} %llu\n",
         static_cast<unsigned long long>(router->reads_to_replicas));
    emit("pargeo_router_batches_total{dest=\"primary_read\"} %llu\n",
         static_cast<unsigned long long>(router->reads_to_primary));
    emit("# HELP pargeo_router_fallbacks_total Reads that wanted a replica "
         "but none was fresh enough\n"
         "# TYPE pargeo_router_fallbacks_total counter\n");
    emit("pargeo_router_fallbacks_total %llu\n",
         static_cast<unsigned long long>(router->fallbacks));
  }
  return out;
}

}  // namespace pargeo::query
