#include "measure/recipe.h"

#include <cmath>
#include <string>

namespace cloudia::measure {

double MeasurementSpec::DurationS(size_t instances) const {
  return duration_s > 0 ? duration_s : DefaultMeasureDurationS(instances);
}

Result<MeasuredMatrix> MeasureCostMatrix(const net::CloudSimulator& cloud,
                                         const std::vector<net::Instance>& pool,
                                         const MeasurementSpec& spec,
                                         const CancelToken& cancel,
                                         const obs::ObsConfig& obs,
                                         int participants) {
  obs::Span span(obs.tracer, "measure.run", "measure", obs.parent);
  ProtocolOptions options;
  options.msg_bytes = spec.probe_bytes;
  options.duration_s = spec.DurationS(pool.size());
  options.start_t_hours = spec.start_t_hours;
  options.seed = MeasurementProtocolSeed(spec.seed);
  options.keep_percentiles = spec.metric == CostMetric::kP99;
  options.participants = participants;
  options.cancel = cancel;
  CLOUDIA_ASSIGN_OR_RETURN(MeasurementResult run,
                           RunProtocol(cloud, pool, spec.protocol, options));
  MeasuredMatrix measured;
  measured.virtual_s = run.virtual_time_ms / 1e3;
  const int64_t samples = run.total_samples();
  if (obs.virtual_clock != nullptr) {
    obs.virtual_clock->AdvanceNs(
        static_cast<int64_t>(std::llround(run.virtual_time_ms * 1e6)));
  }
  if (obs.metrics != nullptr) {
    obs.metrics->counter("measure.runs").Add();
    obs.metrics->counter("measure.samples").Add(static_cast<uint64_t>(samples));
    obs.metrics->counter("measure.virtual_ms")
        .Add(static_cast<uint64_t>(std::llround(run.virtual_time_ms)));
  }
  if (obs.tracer != nullptr) {
    const obs::SpanId id = span.id();
    obs.tracer->AddArg(id, obs::Arg("protocol",
                                    std::string(ProtocolName(spec.protocol))));
    obs.tracer->AddArg(id, obs::Arg("instances",
                                    static_cast<double>(pool.size())));
    obs.tracer->AddArg(id, obs::Arg("samples", static_cast<double>(samples)));
    obs.tracer->AddArg(id, obs::Arg("virtual_s", measured.virtual_s));
    obs.tracer->AddArg(
        id, obs::Arg("participants", static_cast<double>(run.participants)));
  }
  CLOUDIA_ASSIGN_OR_RETURN(measured.costs, BuildCostMatrix(run, spec.metric));
  return measured;
}

}  // namespace cloudia::measure
