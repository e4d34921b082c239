#include "service/cost_matrix_cache.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/clock.h"

namespace cloudia::service {

namespace {

// All registered callers gone? Then nobody wants the measurement any more.
bool AllCancelled(const std::vector<CancelToken>& tokens) {
  for (const CancelToken& token : tokens) {
    if (!token.Cancelled()) return false;
  }
  return true;
}

}  // namespace

CostMatrixCache::CostMatrixCache() : CostMatrixCache(Options{}) {}

CostMatrixCache::CostMatrixCache(Options options)
    : options_(std::move(options)),
      owned_metrics_(options_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_metrics_.get()) {
  if (options_.capacity < 1) options_.capacity = 1;
  if (!options_.now_fn) options_.now_fn = obs::SteadyNowSeconds;
}

double CostMatrixCache::Now() const { return options_.now_fn(); }

void CostMatrixCache::Touch(const std::string& key) {
  auto it = entries_.find(key);
  CLOUDIA_DCHECK(it != entries_.end());
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
}

void CostMatrixCache::SweepExpired() {
  if (options_.ttl_s == std::numeric_limits<double>::infinity()) return;
  const double now = Now();
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (now >= it->second.expires_at) {
      lru_.erase(it->second.lru_it);
      it = entries_.erase(it);
      expirations_.Add();
    } else {
      ++it;
    }
  }
}

void CostMatrixCache::Install(const std::string& key, EntryPtr entry) {
  // Refresh path: replace in place, keeping one LRU slot per key.
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.entry = std::move(entry);
    it->second.expires_at = Now() + options_.ttl_s;
    Touch(key);
    return;
  }
  // Expired entries go first -- they can never be served again -- so they
  // do not crowd live entries out of the capacity.
  SweepExpired();
  while (entries_.size() >= options_.capacity) {
    const std::string& victim = lru_.back();
    entries_.erase(victim);
    lru_.pop_back();
    evictions_.Add();
  }
  lru_.push_front(key);
  CacheEntry cached;
  cached.entry = std::move(entry);
  cached.expires_at = Now() + options_.ttl_s;
  cached.lru_it = lru_.begin();
  entries_[key] = std::move(cached);
}

Result<CostMatrixCache::Lookup> CostMatrixCache::Get(
    const EnvironmentSpec& spec, CancelToken cancel,
    const obs::ObsConfig& obs) {
  const std::string key = spec.Key();
  bool ever_waited = false;
  bool counted_miss = false;  // one hit-or-miss per logical lookup
  // Retried when an in-flight leader cancels while this caller is still
  // interested: the next round finds no in-flight entry and measures itself.
  for (;;) {
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        if (Now() < it->second.expires_at) {
          if (!counted_miss) hits_.Add();
          Touch(key);
          return Lookup{it->second.entry, /*hit=*/!ever_waited, ever_waited};
        }
        lru_.erase(it->second.lru_it);
        entries_.erase(it);
        expirations_.Add();
      }
      // A retry after a cancelled leader is still one logical lookup; only
      // `measurements` keeps counting, since the re-measure is real work.
      if (!counted_miss) {
        misses_.Add();
        counted_miss = true;
      }
      auto fit = inflight_.find(key);
      if (fit == inflight_.end()) {
        flight = std::make_shared<InFlight>();
        flight->measure_cancel = cancel;  // the measurement polls this token
        // Register the leader's token before the flight is published: a
        // follower whose token is already tripped must never observe an
        // empty roster and conclude "everyone cancelled".
        flight->tokens.push_back(cancel);
        inflight_[key] = flight;
        leader = true;
        measurements_.Add();
      } else {
        flight = fit->second;
        single_flight_waits_.Add();
      }
    }
    if (!leader) {
      std::lock_guard<std::mutex> flock(flight->mu);
      flight->tokens.push_back(cancel);
    }

    if (leader) {
      Result<MeasuredEnvironment> measured =
          options_.measure_fn ? options_.measure_fn(spec, flight->measure_cancel)
                              : Measure(spec, flight->measure_cancel, obs);
      EntryPtr entry;
      if (measured.ok()) {
        entry = std::make_shared<const MeasuredEnvironment>(
            std::move(measured).value());
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(key);
        if (entry != nullptr) Install(key, entry);
        std::lock_guard<std::mutex> flock(flight->mu);
        flight->done = true;
        flight->entry = entry;
        flight->status = entry != nullptr ? Status::OK() : measured.status();
      }
      flight->cv.notify_all();
      if (entry == nullptr) return measured.status();
      return Lookup{std::move(entry), /*hit=*/false, ever_waited};
    }

    // Follower: wait for the leader, polling our own token. wait_for (not
    // wait) so a cancel that races the notify is observed within one tick.
    ever_waited = true;
    Status flight_status = Status::OK();
    EntryPtr flight_entry;
    {
      std::unique_lock<std::mutex> flock(flight->mu);
      while (!flight->done) {
        if (cancel.Cancelled()) {
          // Withdraw: abort the shared measurement only if every caller
          // registered on this flight has given up.
          if (AllCancelled(flight->tokens)) flight->measure_cancel.Cancel();
          return Status::Cancelled(
              "caller abandoned the in-flight measurement for " + key);
        }
        flight->cv.wait_for(flock, std::chrono::milliseconds(2));
      }
      flight_status = flight->status;
      flight_entry = flight->entry;
    }
    if (flight_status.ok()) {
      return Lookup{std::move(flight_entry), /*hit=*/false, /*waited=*/true};
    }
    if (flight_status.code() == StatusCode::kCancelled &&
        !cancel.Cancelled()) {
      continue;  // the leader bailed but we still want the matrix: remeasure
    }
    return flight_status;
  }
}

Result<MeasuredEnvironment> CostMatrixCache::Measure(
    const EnvironmentSpec& spec, const CancelToken& cancel,
    const obs::ObsConfig& obs) {
  const ThreadLease lease =
      options_.lend_threads ? options_.lend_threads(spec) : ThreadLease();
  return MeasureEnvironment(spec, cancel, obs, lease.threads());
}

void CostMatrixCache::Put(MeasuredEnvironment env) {
  const std::string key = env.spec.Key();
  auto entry = std::make_shared<const MeasuredEnvironment>(std::move(env));
  std::lock_guard<std::mutex> lock(mu_);
  Install(key, std::move(entry));
  refreshes_.Add();
}

size_t CostMatrixCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  // TTL-expired entries can never be served again (Get() treats them as
  // misses); do not report them as cached.
  const double now = Now();
  size_t live = 0;
  for (const auto& [key, entry] : entries_) {
    if (now < entry.expires_at) ++live;
  }
  return live;
}

void CostMatrixCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

CostMatrixCache::Stats CostMatrixCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {.hits = hits_.value(),
          .misses = misses_.value(),
          .measurements = measurements_.value(),
          .coalesced = single_flight_waits_.value(),
          .evictions = evictions_.value(),
          .expirations = expirations_.value(),
          .refreshes = refreshes_.value()};
}

}  // namespace cloudia::service
