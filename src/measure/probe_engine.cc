#include "measure/probe_engine.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"
#include "common/table.h"

namespace cloudia::measure {

double LinkView::stddev() const {
  if (moments_->count < 2) return 0.0;
  return std::sqrt(moments_->m2 / static_cast<double>(moments_->count));
}

double LinkView::Percentile(double p) const {
  CLOUDIA_CHECK(reservoir_ != nullptr);
  const size_t held =
      std::min(moments_->count, MeasurementResult::kReservoirCap);
  if (held == 0) return moments_->mean;
  return ::cloudia::Percentile(
      std::vector<double>(reservoir_, reservoir_ + held), p);
}

MeasurementResult::MeasurementResult(int num_instances, bool keep_percentiles)
    : n_(num_instances) {
  CLOUDIA_CHECK(num_instances >= 0);
  const size_t links =
      static_cast<size_t>(num_instances) * static_cast<size_t>(num_instances);
  moments_.resize(links);
  if (keep_percentiles) {
    reservoir_ =
        std::make_unique_for_overwrite<double[]>(links * kReservoirCap);
  }
}

size_t MeasurementResult::Index(int i, int j) const {
  CLOUDIA_DCHECK(i >= 0 && i < n_ && j >= 0 && j < n_ && i != j);
  return static_cast<size_t>(i) * static_cast<size_t>(n_) +
         static_cast<size_t>(j);
}

void MeasurementResult::Add(int i, int j, double rtt_ms, Rng& rng) {
  Add(i, j, rtt_ms, DrawSlot(moments_[Index(i, j)].count + 1, rng));
}

void MeasurementResult::Add(int i, int j, double rtt_ms, uint64_t slot) {
  const size_t link = Index(i, j);
  LinkMoments& m = moments_[link];
  ++m.count;
  const double delta = rtt_ms - m.mean;
  m.mean += delta / static_cast<double>(m.count);
  m.m2 += delta * (rtt_ms - m.mean);
  if (reservoir_ != nullptr && slot < kReservoirCap) {
    reservoir_[link * kReservoirCap + static_cast<size_t>(slot)] = rtt_ms;
  }
}

int64_t MeasurementResult::total_samples() const {
  int64_t total = 0;
  for (const LinkMoments& m : moments_) total += static_cast<int64_t>(m.count);
  return total;
}

LinkView MeasurementResult::Link(int i, int j) const {
  const size_t link = Index(i, j);
  return LinkView(moments_[link], reservoir_ != nullptr
                                      ? reservoir_.get() + link * kReservoirCap
                                      : nullptr);
}

double MeasurementResult::CoverageFraction(size_t min_samples) const {
  if (n_ < 2) return 1.0;
  int64_t covered = 0;
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      if (i != j && Link(i, j).count() >= min_samples) ++covered;
    }
  }
  return static_cast<double>(covered) /
         (static_cast<double>(n_) * static_cast<double>(n_ - 1));
}

const char* CostMetricName(CostMetric metric) {
  switch (metric) {
    case CostMetric::kMean:
      return "Mean";
    case CostMetric::kMeanPlusStdDev:
      return "Mean+SD";
    case CostMetric::kP99:
      return "99%";
  }
  return "Unknown";
}

Result<deploy::CostMatrix> BuildCostMatrix(const MeasurementResult& r,
                                           CostMetric metric,
                                           const BuildCostMatrixOptions& options,
                                           CostMatrixCoverage* coverage) {
  if (metric == CostMetric::kP99 && !r.keeps_percentiles()) {
    return Status::InvalidArgument(
        "the 99% metric needs percentile reservoirs, but this measurement "
        "kept moments only; measure with ProtocolOptions::keep_percentiles");
  }
  int n = r.num_instances();
  deploy::CostMatrix m(n);
  CostMatrixCoverage cov;
  cov.total_links =
      static_cast<int64_t>(n) * static_cast<int64_t>(n > 0 ? n - 1 : 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const LinkView link = r.Link(i, j);
      if (link.count() < options.min_samples) {
        ++cov.missing_links;
        m.At(i, j) = options.fallback_ms;
        continue;
      }
      double v = 0.0;
      switch (metric) {
        case CostMetric::kMean:
          v = link.mean();
          break;
        case CostMetric::kMeanPlusStdDev:
          v = link.mean() + link.stddev();
          break;
        case CostMetric::kP99:
          v = link.Percentile(99.0);
          break;
      }
      m.At(i, j) = v;
    }
  }
  if (coverage != nullptr) *coverage = cov;
  if (cov.missing_links > 0 && !options.allow_missing) {
    return Status::InvalidArgument(StrFormat(
        "measurement covers only %lld of %lld links at min_samples=%zu "
        "(%.1f%%); measure longer, or set allow_missing to fill the %lld "
        "gaps with the %g ms sentinel",
        static_cast<long long>(cov.total_links - cov.missing_links),
        static_cast<long long>(cov.total_links), options.min_samples,
        100.0 * cov.fraction(), static_cast<long long>(cov.missing_links),
        options.fallback_ms));
  }
  return m;
}

}  // namespace cloudia::measure
