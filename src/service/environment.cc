#include "service/environment.h"

#include <algorithm>
#include <cstdio>

#include "measure/recipe.h"
#include "netsim/provider.h"

namespace cloudia::service {

std::string EnvironmentSpec::Key() const {
  // Canonicalize the duration: <= 0 means the paper's default rule, so a
  // spec leaving it unset and one spelling the same value explicitly are
  // byte-identical measurements and must share a cache entry.
  const double duration_s =
      measure::MeasurementSpec{.duration_s = measure_duration_s}.DurationS(
          static_cast<size_t>(std::max(instances, 0)));
  char buf[160];
  std::snprintf(buf, sizeof(buf), "|n=%d|p=%s|m=%s|d=%.17g|b=%.17g|s=%llu",
                instances, measure::ProtocolName(protocol),
                measure::CostMetricName(metric), duration_s, probe_bytes,
                static_cast<unsigned long long>(seed));
  return provider + buf;
}

Result<net::ProviderProfile> ProviderProfileByName(std::string_view name) {
  if (name == "ec2") return net::AmazonEc2Profile();
  if (name == "gce") return net::GoogleComputeEngineProfile();
  if (name == "rackspace") return net::RackspaceCloudProfile();
  return Status::InvalidArgument("unknown provider '" + std::string(name) +
                                 "' (known: ec2, gce, rackspace)");
}

Status FillInstancePrices(std::string_view provider,
                          const std::vector<net::Instance>& pool,
                          deploy::ObjectiveSpec* objective) {
  if (objective->price_weight <= 0 || !objective->instance_prices.empty()) {
    return Status::OK();
  }
  CLOUDIA_ASSIGN_OR_RETURN(net::ProviderProfile profile,
                           ProviderProfileByName(provider));
  objective->instance_prices.reserve(pool.size());
  for (const net::Instance& inst : pool) {
    objective->instance_prices.push_back(
        net::InstancePrice(profile, inst.host));
  }
  return Status::OK();
}

Result<MeasuredEnvironment> MeasureEnvironment(const EnvironmentSpec& spec,
                                               const CancelToken& cancel,
                                               const obs::ObsConfig& obs,
                                               int participants) {
  if (spec.instances < 2) {
    return Status::InvalidArgument(
        "environment needs >= 2 instances, got " +
        std::to_string(spec.instances));
  }
  CLOUDIA_ASSIGN_OR_RETURN(net::ProviderProfile profile,
                           ProviderProfileByName(spec.provider));
  net::CloudSimulator cloud(std::move(profile), spec.seed);

  MeasuredEnvironment env;
  env.spec = spec;
  CLOUDIA_ASSIGN_OR_RETURN(env.instances, cloud.Allocate(spec.instances));

  CLOUDIA_ASSIGN_OR_RETURN(
      measure::MeasuredMatrix measured,
      measure::MeasureCostMatrix(cloud, env.instances,
                                 {.protocol = spec.protocol,
                                  .metric = spec.metric,
                                  .duration_s = spec.measure_duration_s,
                                  .probe_bytes = spec.probe_bytes,
                                  .seed = spec.seed},
                                 cancel, obs, participants));
  env.costs = std::move(measured.costs);
  env.measure_virtual_s = measured.virtual_s;
  return env;
}

}  // namespace cloudia::service
