#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace cloudia::obs {

namespace internal {

unsigned ShardIndex() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<unsigned>(kShards);
  return index;
}

void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (expected < value &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

HistogramCell::HistogramCell(std::vector<double> bucket_bounds)
    : bounds(std::move(bucket_bounds)) {
  for (Shard& shard : shards) {
    shard.counts =
        std::make_unique<std::atomic<uint64_t>[]>(bounds.size() + 1);
    for (size_t i = 0; i <= bounds.size(); ++i) shard.counts[i] = 0;
  }
}

}  // namespace internal

uint64_t Counter::value() const {
  if (cell_ == nullptr) return 0;
  uint64_t total = 0;
  for (const internal::CounterShard& shard : cell_->shards) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Observe(double value) {
  if (cell_ == nullptr) return;
  const std::vector<double>& bounds = cell_->bounds;
  size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  internal::HistogramCell::Shard& shard =
      cell_->shards[internal::ShardIndex()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAddDouble(shard.sum, value);
  internal::AtomicMaxDouble(shard.max, value);
}

std::vector<double> LogSpacedBounds(const HistogramOptions& options) {
  std::vector<double> bounds;
  double bound = options.min_bound;
  for (int i = 0; i < options.buckets; ++i) {
    bounds.push_back(bound);
    bound *= options.growth;
  }
  return bounds;
}

Counter MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = counters_[name];
  if (cell == nullptr) cell = std::make_unique<internal::CounterCell>();
  return Counter(cell.get());
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = gauges_[name];
  if (cell == nullptr) cell = std::make_unique<internal::GaugeCell>();
  return Gauge(cell.get());
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = histograms_[name];
  // First registration wins the bucket layout; later callers share it.
  if (cell == nullptr) {
    cell = std::make_unique<internal::HistogramCell>(LogSpacedBounds(options));
  }
  return Histogram(cell.get());
}

namespace {

HistogramSnapshot FoldHistogram(const std::string& name,
                                const internal::HistogramCell& cell) {
  HistogramSnapshot snap;
  snap.name = name;
  snap.bounds = cell.bounds;
  snap.counts.assign(cell.bounds.size() + 1, 0);
  // Shards fold in fixed index order so double sums are reproducible.
  for (const internal::HistogramCell::Shard& shard : cell.shards) {
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      snap.counts[i] += shard.counts[i].load(std::memory_order_relaxed);
    }
    snap.count += shard.count.load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, shard.max.load(std::memory_order_relaxed));
  }
  return snap;
}

std::string FormatValue(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

}  // namespace

std::vector<MetricValue> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricValue> out;
  for (const auto& [name, cell] : counters_) {
    out.push_back({name, static_cast<double>(Counter(cell.get()).value())});
  }
  for (const auto& [name, cell] : gauges_) {
    out.push_back({name, cell->value.load(std::memory_order_relaxed)});
  }
  for (const auto& [name, cell] : histograms_) {
    HistogramSnapshot snap = FoldHistogram(name, *cell);
    out.push_back({name + ".count", static_cast<double>(snap.count)});
    out.push_back(
        {name + ".mean", snap.count == 0
                             ? 0.0
                             : snap.sum / static_cast<double>(snap.count)});
    out.push_back({name + ".max", snap.max});
  }
  std::sort(out.begin(), out.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricsRegistry::SnapshotLine() const {
  std::string line;
  for (const MetricValue& m : Snapshot()) {
    if (!line.empty()) line += ' ';
    line += m.name;
    line += '=';
    line += FormatValue(m.value);
  }
  return line;
}

HistogramSnapshot MetricsRegistry::histogram_snapshot(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return HistogramSnapshot{};
  return FoldHistogram(name, *it->second);
}

bool MetricsRegistry::WriteJson(const std::string& path,
                                const std::string& bench) const {
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write metrics to '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"bench\": \"%s\", \"metrics\": [", bench.c_str());
  bool first = true;
  for (const MetricValue& m : Snapshot()) {
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"value\": %.17g, \"unit\": \"\", "
                 "\"gate\": \"\"}",
                 first ? "" : ",", m.name.c_str(), m.value);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  if (f != stdout) std::fclose(f);
  return true;
}

}  // namespace cloudia::obs
