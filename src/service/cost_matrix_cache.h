// A TTL/LRU cache of measured cost matrices with single-flight measurement.
//
// Measurement is ClouDiA's expensive step: minutes of billed instance time
// per environment (paper Sect. 6.2), while solving the cached matrix is
// cheap and worth repeating. This cache is the measure-once/solve-many
// design scaled to a multi-tenant service:
//
//   * Get() returns a shared, immutable MeasuredEnvironment for an
//     EnvironmentSpec, measuring at most once per key no matter how many
//     threads ask concurrently (single-flight): the first caller measures,
//     the rest wait on the same in-flight entry and share its result.
//   * Completed entries are kept under an LRU policy with `capacity` slots
//     and an optional TTL, after which a key re-measures (latencies drift
//     over hours; Figs. 2/19/21).
//   * Cancellation is cooperative and counted: every waiter passes its own
//     token, and the in-flight measurement itself is aborted only when
//     *every* caller interested in the key has cancelled -- one impatient
//     tenant never kills a measurement others still want. A waiter whose
//     leader cancelled (but who is itself still interested) transparently
//     retries and becomes the new leader.
#ifndef CLOUDIA_SERVICE_COST_MATRIX_CACHE_H_
#define CLOUDIA_SERVICE_COST_MATRIX_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/environment.h"

namespace cloudia::service {

/// Threads lent to one measurement, the measuring thread included; the
/// lender gets them back when the lease is destroyed. Default: the
/// caller's own thread, lent by no one.
class ThreadLease {
 public:
  ThreadLease() = default;
  ThreadLease(int threads, std::function<void()> give_back)
      : threads_(threads), give_back_(std::move(give_back)) {}
  ThreadLease(ThreadLease&& other) noexcept
      : threads_(other.threads_),
        give_back_(std::exchange(other.give_back_, nullptr)) {}
  ThreadLease& operator=(ThreadLease&&) = delete;
  ~ThreadLease() {
    if (give_back_) give_back_();
  }

  int threads() const { return threads_; }

 private:
  int threads_ = 1;
  std::function<void()> give_back_;
};

class CostMatrixCache {
 public:
  using EntryPtr = std::shared_ptr<const MeasuredEnvironment>;
  /// Signature of the measurement step; injectable for tests (count calls,
  /// add latency, fail on demand). Unset: MeasureEnvironment().
  using MeasureFn = std::function<Result<MeasuredEnvironment>(
      const EnvironmentSpec&, const CancelToken&)>;

  struct Options {
    /// Completed entries kept before LRU eviction (>= 1).
    size_t capacity = 8;
    /// Seconds a completed entry stays valid; infinity = never expires.
    double ttl_s = std::numeric_limits<double>::infinity();
    /// Test hook: replaces the real measurement.
    MeasureFn measure_fn;
    /// Lends a real measurement idle threads. A caller that leads one takes
    /// a lease just before it starts, measures on its threads() (>= 1) and
    /// drops it once the measurement ends, whatever its outcome. Waiters,
    /// hits and measure_fn take none. Unset: every measurement runs on its
    /// caller alone.
    std::function<ThreadLease(const EnvironmentSpec&)> lend_threads;
    /// Test hook: monotonic clock in seconds, for deterministic TTL tests.
    std::function<double()> now_fn;
    /// The registry the cache counts into, as cache.matrix.* counters; it
    /// is the only store behind stats(). Null: the cache owns a private
    /// one. Caches sharing one registry report summed counts. Must outlive
    /// the cache.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// A view over the cache.matrix.* counters (`coalesced` reads
  /// single_flight_waits). The cache bumps them only under its mutex and
  /// stats() folds them under the same mutex, so a reader sees a coherent
  /// point-in-time view, never a torn mix of fields -- unless another writer
  /// shares the registry.
  struct Stats {
    uint64_t hits = 0;          ///< served from a completed entry
    uint64_t misses = 0;        ///< no valid entry at lookup time
    uint64_t measurements = 0;  ///< measurements run (the paid work)
    uint64_t coalesced = 0;     ///< callers who waited on an in-flight run
    uint64_t evictions = 0;     ///< LRU evictions
    uint64_t expirations = 0;   ///< TTL expirations
    uint64_t refreshes = 0;     ///< entries installed/replaced via Put()
  };

  CostMatrixCache();  // all-default options
  explicit CostMatrixCache(Options options);

  /// Returns the measured environment for `spec`, measuring (once, globally,
  /// per key) if no valid entry exists, plus telemetry about how this call
  /// was served. Blocks while an in-flight measurement for the key runs.
  /// Returns Status::Cancelled when `cancel` trips before the result is
  /// available; the underlying measurement is aborted only once every
  /// interested caller has cancelled. A measurement this call leads puts its
  /// "measure.run" span on `obs` (the test hook measure_fn takes none).
  struct Lookup {
    EntryPtr entry;
    bool hit = false;     ///< served from a completed entry, nothing waited
    bool waited = false;  ///< coalesced behind an in-flight measurement
  };
  Result<Lookup> Get(const EnvironmentSpec& spec, CancelToken cancel = {},
                     const obs::ObsConfig& obs = {});

  /// Installs (or replaces) the completed entry for `env.spec` with a fresh
  /// TTL -- the redeployment path's refresh hook: when drift monitoring
  /// re-measures an environment, the new matrix is fed back here so every
  /// later lookup solves against current costs instead of the stale entry.
  /// An in-flight measurement for the key is unaffected (its callers asked
  /// before the refresh existed).
  void Put(MeasuredEnvironment env);

  /// Completed, still-valid entries (TTL-expired ones do not count: they
  /// can never be served again).
  size_t size() const;
  /// Drops every completed entry (in-flight measurements are unaffected).
  void Clear();

  Stats stats() const;

 private:
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    EntryPtr entry;
    /// The token the measurement itself polls: the first caller's. Flipped
    /// by waiters only once every registered token has cancelled.
    CancelToken measure_cancel;
    /// One token per caller attached to this flight (leader included).
    std::vector<CancelToken> tokens;
  };

  struct CacheEntry {
    EntryPtr entry;
    double expires_at = 0.0;
    std::list<std::string>::iterator lru_it;
  };

  double Now() const;
  /// The real measurement, on the threads lend_threads lends.
  Result<MeasuredEnvironment> Measure(const EnvironmentSpec& spec,
                                      const CancelToken& cancel,
                                      const obs::ObsConfig& obs);
  /// Moves `key` to the front of the LRU list. Requires mu_ held.
  void Touch(const std::string& key);
  /// Drops every TTL-expired entry so a long-idle cache neither pins dead
  /// matrices in memory nor lets them crowd live ones out of the LRU
  /// capacity. Requires mu_ held.
  void SweepExpired();
  /// Installs a completed entry (replacing any previous one for the key),
  /// sweeping expired entries and evicting LRU overflow. Requires mu_ held.
  void Install(const std::string& key, EntryPtr entry);

  Options options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, CacheEntry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  /// The registry counted into: Options::metrics, or owned_metrics_.
  const std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* const metrics_;
  /// cache.matrix.* counters, bumped only under mu_.
  obs::Counter hits_ = metrics_->counter("cache.matrix.hits");
  obs::Counter misses_ = metrics_->counter("cache.matrix.misses");
  obs::Counter measurements_ = metrics_->counter("cache.matrix.measurements");
  obs::Counter single_flight_waits_ =
      metrics_->counter("cache.matrix.single_flight_waits");
  obs::Counter evictions_ = metrics_->counter("cache.matrix.evictions");
  obs::Counter expirations_ = metrics_->counter("cache.matrix.expirations");
  obs::Counter refreshes_ = metrics_->counter("cache.matrix.refreshes");
};

}  // namespace cloudia::service

#endif  // CLOUDIA_SERVICE_COST_MATRIX_CACHE_H_
