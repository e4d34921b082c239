// The one measurement recipe (paper Fig. 3, "measure"): run a protocol over
// an allocated pool and build its cost matrix. The session, the service and
// the redeploy loop's re-measure all call MeasureCostMatrix, so equal specs
// give bit-identical matrices on every path.
#ifndef CLOUDIA_MEASURE_RECIPE_H_
#define CLOUDIA_MEASURE_RECIPE_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "deploy/cost_matrix.h"
#include "measure/probe_engine.h"
#include "measure/protocols.h"
#include "netsim/cloud.h"
#include "obs/obs.h"

namespace cloudia::measure {

/// What determines one measured matrix, given the cloud and the pool.
struct MeasurementSpec {
  Protocol protocol = Protocol::kStaged;
  CostMetric metric = CostMetric::kMean;
  /// Virtual measurement duration; <= 0 selects the paper's rule of
  /// 5 minutes per 100 instances (DefaultMeasureDurationS).
  double duration_s = 0.0;
  double probe_bytes = net::kDefaultProbeBytes;
  /// Measurement seed; the protocol runs on MeasurementProtocolSeed(seed).
  uint64_t seed = 1;
  /// Hour-of-day at which the measurement starts.
  double start_t_hours = 0.0;

  /// The duration a pool of `instances` is measured for.
  double DurationS(size_t instances) const;
};

struct MeasuredMatrix {
  deploy::CostMatrix costs;
  double virtual_s = 0.0;  ///< virtual time the protocol ran
};

/// Runs `spec.protocol` over `pool` and builds the `spec.metric` matrix,
/// requiring full coverage (a sentinel-poisoned matrix would skew every
/// solve it is cached for). Keeps percentile reservoirs only for kP99.
/// `cancel` aborts the run mid-flight with Status::Cancelled. With a tracer
/// on `obs`, the run is one "measure.run" span under obs.parent carrying
/// the protocol, the instance and sample counts and the virtual seconds.
Result<MeasuredMatrix> MeasureCostMatrix(const net::CloudSimulator& cloud,
                                         const std::vector<net::Instance>& pool,
                                         const MeasurementSpec& spec,
                                         const CancelToken& cancel = {},
                                         const obs::ObsConfig& obs = {});

}  // namespace cloudia::measure

#endif  // CLOUDIA_MEASURE_RECIPE_H_
