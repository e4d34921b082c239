#include "measure/recipe.h"

#include <string>

namespace cloudia::measure {

double MeasurementSpec::DurationS(size_t instances) const {
  return duration_s > 0 ? duration_s : DefaultMeasureDurationS(instances);
}

Result<MeasuredMatrix> MeasureCostMatrix(const net::CloudSimulator& cloud,
                                         const std::vector<net::Instance>& pool,
                                         const MeasurementSpec& spec,
                                         const CancelToken& cancel,
                                         const obs::ObsConfig& obs) {
  obs::Span span(obs.tracer, "measure.run", "measure", obs.parent);
  ProtocolOptions options;
  options.msg_bytes = spec.probe_bytes;
  options.duration_s = spec.DurationS(pool.size());
  options.start_t_hours = spec.start_t_hours;
  options.seed = MeasurementProtocolSeed(spec.seed);
  options.keep_percentiles = spec.metric == CostMetric::kP99;
  options.cancel = cancel;
  CLOUDIA_ASSIGN_OR_RETURN(MeasurementResult run,
                           RunProtocol(cloud, pool, spec.protocol, options));
  MeasuredMatrix measured;
  measured.virtual_s = run.virtual_time_ms / 1e3;
  if (obs.tracer != nullptr) {
    const obs::SpanId id = span.id();
    obs.tracer->AddArg(id, obs::Arg("protocol",
                                    std::string(ProtocolName(spec.protocol))));
    obs.tracer->AddArg(id, obs::Arg("instances",
                                    static_cast<double>(pool.size())));
    obs.tracer->AddArg(id, obs::Arg("samples",
                                    static_cast<double>(run.total_samples())));
    obs.tracer->AddArg(id, obs::Arg("virtual_s", measured.virtual_s));
  }
  CLOUDIA_ASSIGN_OR_RETURN(measured.costs, BuildCostMatrix(run, spec.metric));
  return measured;
}

}  // namespace cloudia::measure
