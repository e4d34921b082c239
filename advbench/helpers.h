// Helpers of the end-to-end advisor benchmark that are worth testing on
// their own: the percentile rule, the geometric mean, the span self-time
// fold and the answer checker. The driver (driver.cc) and the self-test
// (selftest.cc) share them.
#ifndef ADVBENCH_HELPERS_H_
#define ADVBENCH_HELPERS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "deploy/cost.h"
#include "deploy/cost_matrix.h"
#include "graph/comm_graph.h"
#include "redeploy/online.h"

namespace advbench {

/// Nearest-rank percentile: the smallest sample with at least q * n samples
/// at or below it. `q` in (0, 1]; an empty sample yields 0.
double Percentile(std::vector<double> samples, double q);

/// Samples that lie strictly beyond the nearest-rank q-percentile of n.
size_t SamplesBeyond(size_t n, double q);

/// Smallest sample count that leaves at least `tail` samples beyond the
/// q-percentile (100 for the p90 with the default tail of 10).
size_t MinSamplesForPercentile(double q, size_t tail = 10);

/// Geometric mean of positive values; 0 when empty or any value is <= 0.
double GeometricMean(const std::vector<double>& values);

/// One closed span, as read from an obs::Tracer snapshot.
struct SpanRecord {
  int64_t id = 0;
  int64_t parent = 0;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct LayerTotals {
  int64_t count = 0;
  double busy_s = 0.0;  ///< summed span durations
  double self_s = 0.0;  ///< busy time not covered by the span's children
};

/// Folds spans into per-layer totals. A span's self time is its duration
/// minus the union of its direct children's intervals, clipped to the span.
std::map<std::string, LayerTotals> FoldSpans(
    const std::vector<SpanRecord>& spans);

/// Layer of a span name: "session.solve.<m>", "portfolio.<m>" and the
/// driver's "deploy.<m>" map to "deploy.<m>" / "deploy.portfolio"; any other
/// name maps to its text before the first '.'.
std::string LayerOfSpan(const std::string& name);

/// Empty when `deployment` is a valid injective placement of `graph` on the
/// pool of `costs` and `reported_cost` equals an independent CostEvaluator
/// re-evaluation under `objective` (relative tolerance 1e-9); otherwise a
/// description of the first problem found.
std::string CheckPlan(const cloudia::graph::CommGraph& graph,
                      const cloudia::deploy::CostMatrix& costs,
                      const cloudia::deploy::ObjectiveSpec& objective,
                      const cloudia::deploy::Deployment& deployment,
                      double reported_cost);

/// Empty when every applied migration plan moved at most `k` nodes (k < 0 =
/// unlimited) and the plans chain from `initial` to `final_deployment`.
std::string CheckMigrations(
    const std::vector<cloudia::redeploy::OnlineCheckRecord>& records, int k,
    const cloudia::deploy::Deployment& initial,
    const cloudia::deploy::Deployment& final_deployment);

}  // namespace advbench

#endif  // ADVBENCH_HELPERS_H_
