// Sample storage for pairwise RTT measurements plus the per-link estimate
// queries the rest of ClouDiA consumes (mean / mean+SD / p99 matrices).
// A run keeps per-link moments always and percentile reservoirs only when
// asked to (ProtocolOptions::keep_percentiles), since only kP99 reads them.
#ifndef CLOUDIA_MEASURE_PROBE_ENGINE_H_
#define CLOUDIA_MEASURE_PROBE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "deploy/cost_matrix.h"

namespace cloudia::measure {

/// Welford moments of one ordered link, updated in exactly the order of
/// OnlineStats::Add so that every mean and mean+SD is bit-identical to it.
struct LinkMoments {
  size_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the running mean
};

/// Read-only view of one ordered link of a MeasurementResult.
class LinkView {
 public:
  LinkView(const LinkMoments& moments, const double* reservoir)
      : moments_(&moments), reservoir_(reservoir) {}

  size_t count() const { return moments_->count; }
  double mean() const { return moments_->mean; }
  /// Population standard deviation; 0 for < 2 samples.
  double stddev() const;
  /// Percentile from the link's reservoir (the mean when it holds no
  /// sample). Requires a result that keeps percentiles.
  double Percentile(double p) const;

 private:
  const LinkMoments* moments_;
  // kReservoirCap slots, of which [0, min(count, kReservoirCap)) hold
  // samples; null when the result keeps moments only.
  const double* reservoir_;
};

/// All pairwise samples of one measurement run, stored flat.
///
/// Every result keeps each ordered link's moments (count, mean, m2): enough
/// for the kMean and kMeanPlusStdDev matrices. Only a result constructed
/// with `keep_percentiles` also keeps a kReservoirCap-sample reservoir per
/// link (Vitter's algorithm R), the input of kP99: one n*n*kReservoirCap
/// block of doubles, allocated once and left uninitialised, so the slots no
/// sample reaches (the diagonal, links with few samples) never become
/// resident. A moments-only result still takes the reservoir's RNG draw for
/// every sample, so the two kinds of run see the same random stream and
/// agree bit for bit on everything they both keep.
class MeasurementResult {
 public:
  static constexpr size_t kReservoirCap = 128;

  explicit MeasurementResult(int num_instances, bool keep_percentiles = true);

  int num_instances() const { return n_; }
  bool keeps_percentiles() const { return reservoir_ != nullptr; }

  /// Records one RTT sample of the ordered link i -> j, drawing its
  /// reservoir slot from `rng`: Add(i, j, rtt_ms, DrawSlot(count + 1, rng))
  /// with `count` the link's samples so far.
  void Add(int i, int j, double rtt_ms, Rng& rng);

  /// Records one RTT sample of the ordered link i -> j into the reservoir
  /// slot `slot` already drawn by DrawSlot (a slot >= kReservoirCap keeps
  /// the sample out of the reservoir). Touches only that link's state, so
  /// threads may record samples of disjoint links concurrently.
  void Add(int i, int j, double rtt_ms, uint64_t slot);

  /// The reservoir slot of a link's `count`-th sample (count >= 1), by
  /// Vitter's algorithm R: the first kReservoirCap samples fill the slots
  /// in order, each later one draws rng.Below(count) and replaces that slot
  /// if it is below kReservoirCap. The draw is taken with or without a
  /// reservoir, so both kinds of result see one random stream.
  static uint64_t DrawSlot(size_t count, Rng& rng) {
    return count > kReservoirCap ? rng.Below(count) : count - 1;
  }

  LinkView Link(int i, int j) const;

  /// Samples recorded over all links.
  int64_t total_samples() const;

  /// Virtual time the measurement occupied the instances (ms).
  double virtual_time_ms = 0.0;
  /// Threads that measured the run, the caller included.
  int participants = 1;

  /// Links with at least `min_samples` samples, as a fraction of all ordered
  /// pairs. Used to verify coverage.
  double CoverageFraction(size_t min_samples) const;

 private:
  size_t Index(int i, int j) const;

  int n_;
  std::vector<LinkMoments> moments_;      // n*n row-major, diagonal unused
  std::unique_ptr<double[]> reservoir_;   // n*n*kReservoirCap, or null
};

/// Communication-cost metrics of paper Sect. 3.2.
enum class CostMetric {
  kMean,            ///< mean latency (the paper's default, robust: Fig. 11)
  kMeanPlusStdDev,  ///< mean + one standard deviation (jitter-sensitive apps)
  kP99,             ///< 99th-percentile latency
};

const char* CostMetricName(CostMetric metric);

/// Coverage policy for BuildCostMatrix.
struct BuildCostMatrixOptions {
  /// A link counts as covered once it holds at least this many samples.
  size_t min_samples = 1;
  /// false (the default): any uncovered link fails the build with
  /// InvalidArgument naming how many links are missing -- a sentinel-filled
  /// matrix silently poisons every downstream solve, so opting into it must
  /// be explicit. true: uncovered links get `fallback_ms` and are counted
  /// in the coverage report.
  bool allow_missing = false;
  /// Cost written for uncovered links when allow_missing is set.
  double fallback_ms = deploy::kUnmeasuredCostMs;
};

/// Coverage accounting of one BuildCostMatrix call.
struct CostMatrixCoverage {
  int64_t total_links = 0;    ///< ordered off-diagonal pairs
  int64_t missing_links = 0;  ///< links with fewer than min_samples samples
  double fraction() const {
    return total_links == 0
               ? 1.0
               : static_cast<double>(total_links - missing_links) /
                     static_cast<double>(total_links);
  }
};

/// Builds the cost matrix CL for the chosen metric. Fails (or fills and
/// reports, per `options`) when measurement coverage is below 100% at
/// options.min_samples; `coverage`, when non-null, receives the counts
/// either way. kP99 on a result that kept no percentiles fails with
/// InvalidArgument.
Result<deploy::CostMatrix> BuildCostMatrix(
    const MeasurementResult& r, CostMetric metric,
    const BuildCostMatrixOptions& options = {},
    CostMatrixCoverage* coverage = nullptr);

}  // namespace cloudia::measure

#endif  // CLOUDIA_MEASURE_PROBE_ENGINE_H_
