// Lock-cheap named metrics: Counter / Gauge / Histogram handles backed by a
// MetricsRegistry.
//
// Handles are trivially copyable pointer wrappers. A default-constructed
// handle (or any handle obtained while no registry is attached) is a no-op:
// the hot path is one predictable null check, so instrumented code pays
// near-zero cost when observability is disabled.
//
// Thread model: writes go to one of kShards cache-line-padded atomic shards
// selected per thread, so concurrent writers do not contend on one line.
// Reads fold the shards in fixed index order under the registry mutex, which
// makes every snapshot deterministic given the same recorded totals.
// Counter::value() folds one counter without that mutex; a caller that wants
// a coherent view of several counters serializes its reads with the writes.
//
// Naming convention: `layer.component.name`, e.g. "service.queue.depth",
// "cache.matrix.hits", "redeploy.monitor.checks".
#ifndef CLOUDIA_OBS_METRICS_H_
#define CLOUDIA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cloudia::obs {

namespace internal {

inline constexpr int kShards = 16;

/// Stable per-thread shard index in [0, kShards).
unsigned ShardIndex();

/// fetch_add for doubles via CAS (portable, TSan-clean).
void AtomicAddDouble(std::atomic<double>& target, double delta);

/// CAS-max for doubles.
void AtomicMaxDouble(std::atomic<double>& target, double value);

struct alignas(64) CounterShard {
  std::atomic<uint64_t> value{0};
};

struct CounterCell {
  CounterShard shards[kShards];
};

struct GaugeCell {
  std::atomic<double> value{0.0};
};

struct HistogramCell {
  explicit HistogramCell(std::vector<double> bucket_bounds);

  std::vector<double> bounds;  ///< ascending finite upper bounds; +inf last
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;  ///< bounds.size() + 1
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
  };
  Shard shards[kShards];
};

}  // namespace internal

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  void Add(uint64_t n = 1) {
    if (cell_ == nullptr) return;
    cell_->shards[internal::ShardIndex()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Sum of the shards (0 when detached).
  uint64_t value() const;
  bool attached() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(internal::CounterCell* cell) : cell_(cell) {}
  internal::CounterCell* cell_ = nullptr;
};

/// Last-writer-wins level (queue depth, pool size). Add() is atomic, so
/// +1/-1 bracketing from many threads stays consistent.
class Gauge {
 public:
  Gauge() = default;
  void Set(double v) {
    if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (cell_ != nullptr) internal::AtomicAddDouble(cell_->value, delta);
  }
  bool attached() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(internal::GaugeCell* cell) : cell_(cell) {}
  internal::GaugeCell* cell_ = nullptr;
};

/// Distribution with fixed log-spaced buckets chosen at registration.
class Histogram {
 public:
  Histogram() = default;
  void Observe(double value);
  bool attached() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(internal::HistogramCell* cell) : cell_(cell) {}
  internal::HistogramCell* cell_ = nullptr;
};

/// Bucket layout: `buckets` finite upper bounds min_bound * growth^i plus an
/// implicit overflow bucket. The default spans 1us .. ~4300s in powers of 2,
/// sized for durations recorded in seconds.
struct HistogramOptions {
  double min_bound = 1e-6;
  double growth = 2.0;
  int buckets = 32;
};

/// The explicit bucket upper bounds a HistogramOptions produces.
std::vector<double> LogSpacedBounds(const HistogramOptions& options);

/// One folded scalar in a snapshot.
struct MetricValue {
  std::string name;
  double value = 0.0;
};

/// Fully folded histogram state.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;    ///< finite upper bounds
  std::vector<uint64_t> counts;  ///< bounds.size() + 1; last is overflow
  uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
};

/// Owner of all metric cells. Handles stay valid for the registry lifetime.
/// Registration (find-or-create by name) takes a mutex; recording never does.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name,
                      const HistogramOptions& options = {});

  /// Every metric folded to scalars, sorted by name. Histograms expand to
  /// `<name>.count`, `<name>.mean`, and `<name>.max`.
  std::vector<MetricValue> Snapshot() const;

  /// "name=value name=value ..." over Snapshot(), space-separated, sorted.
  std::string SnapshotLine() const;

  /// Folded state of one histogram (empty snapshot when unknown).
  HistogramSnapshot histogram_snapshot(const std::string& name) const;

  /// Writes Snapshot() in the unified bench JSON schema (bench_util.h
  /// Metric, gate "" throughout). "-" writes to stdout. Returns false with a
  /// stderr note when the file cannot be opened.
  bool WriteJson(const std::string& path, const std::string& bench) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<internal::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<internal::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<internal::HistogramCell>> histograms_;
};

}  // namespace cloudia::obs

#endif  // CLOUDIA_OBS_METRICS_H_
