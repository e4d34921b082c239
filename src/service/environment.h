// A measurement environment: everything that determines a measured cost
// matrix, and nothing more.
//
// The paper's split (Sect. 6.2, Fig. 7) is that measurement is the
// expensive, billed step while solving the cached matrix is cheap and worth
// repeating. The service layer therefore keys its cost-matrix cache on the
// full recipe of a measurement -- provider profile, instance-pool size,
// protocol, metric, duration, probe size, seed -- so two deployment requests
// that would trigger byte-identical measurements share one.
#ifndef CLOUDIA_SERVICE_ENVIRONMENT_H_
#define CLOUDIA_SERVICE_ENVIRONMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "deploy/cost.h"
#include "deploy/cost_matrix.h"
#include "measure/protocols.h"
#include "netsim/cloud.h"
#include "obs/obs.h"

namespace cloudia::service {

/// The full recipe of one measurement run. Two specs with equal fields
/// produce bit-identical cost matrices (the simulator and the protocols are
/// deterministic given their seeds), which is what makes caching sound.
struct EnvironmentSpec {
  /// Provider profile name: "ec2", "gce", or "rackspace".
  std::string provider = "ec2";
  /// Instances to allocate and measure (the session's node count plus
  /// over-allocation, already resolved by the caller).
  int instances = 0;
  measure::Protocol protocol = measure::Protocol::kStaged;
  measure::CostMetric metric = measure::CostMetric::kMean;
  /// Virtual measurement duration; <= 0 selects the paper's rule of
  /// 5 minutes per 100 instances (as cloudia::SessionOptions does).
  double measure_duration_s = 0.0;
  double probe_bytes = net::kDefaultProbeBytes;
  /// Seeds the simulated cloud (allocation) and the measurement protocol.
  uint64_t seed = 1;

  bool operator==(const EnvironmentSpec&) const = default;

  /// Canonical cache key: every field, rendered stably.
  std::string Key() const;
};

/// One measured environment, shared read-only between every solve that runs
/// against it (the cache hands out shared_ptr<const MeasuredEnvironment>).
struct MeasuredEnvironment {
  EnvironmentSpec spec;
  std::vector<net::Instance> instances;
  deploy::CostMatrix costs;
  /// Virtual-time mark of the measurement (s): a fresh environment measures
  /// from t = 0, so this is the time it occupied the instances; an entry
  /// refreshed by the redeployment path carries the virtual instant it was
  /// re-measured at. Either way it is where a drift timeline for this
  /// matrix starts.
  double measure_virtual_s = 0.0;
};

/// Looks up a provider profile by its CLI name; the error lists the options.
Result<net::ProviderProfile> ProviderProfileByName(std::string_view name);

/// Prices `pool` with `provider`'s price model into
/// objective->instance_prices when the objective weighs price and carries no
/// explicit prices; otherwise leaves it untouched. An instance's price is a
/// pure function of (profile, host), so every path that fills prices for
/// equal pools -- coalesced twins, warm-start peers, both front ends --
/// prices them identically.
Status FillInstancePrices(std::string_view provider,
                          const std::vector<net::Instance>& pool,
                          deploy::ObjectiveSpec* objective);

/// Allocates spec.instances on a fresh simulator seeded with spec.seed and
/// measures them through measure::MeasureCostMatrix. Deterministic: equal
/// specs produce bit-identical matrices, matching what a
/// cloudia::DeploymentSession with the same options would have measured.
/// `cancel` aborts the measurement mid-flight with Status::Cancelled; the
/// measurement's "measure.run" span goes on `obs`. `participants` threads
/// measure it (see measure::MeasureCostMatrix); the matrix does not depend
/// on their number.
Result<MeasuredEnvironment> MeasureEnvironment(const EnvironmentSpec& spec,
                                               const CancelToken& cancel = {},
                                               const obs::ObsConfig& obs = {},
                                               int participants = 1);

}  // namespace cloudia::service

#endif  // CLOUDIA_SERVICE_ENVIRONMENT_H_
