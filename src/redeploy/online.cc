#include "redeploy/online.h"

#include <utility>

#include "common/check.h"
#include "measure/event_queue.h"
#include "measure/recipe.h"
#include "obs/obs.h"

namespace cloudia::redeploy {

Result<OnlineOutcome> RunOnlineRedeployment(
    const net::CloudSimulator& cloud,
    const std::vector<net::Instance>& pool, const graph::CommGraph& graph,
    const deploy::CostMatrix& baseline, const deploy::Deployment& initial,
    const OnlineOptions& options,
    const std::function<void(double t_hours, const deploy::CostMatrix&)>&
        on_refresh) {
  if (options.checks < 1 || options.check_interval_s <= 0.0) {
    return Status::InvalidArgument(
        "need checks >= 1 and check_interval_s > 0");
  }
  CLOUDIA_RETURN_IF_ERROR(deploy::ValidateDeployment(
      graph, initial, baseline, options.planner.objective));
  CLOUDIA_ASSIGN_OR_RETURN(
      DriftMonitor monitor,
      DriftMonitor::Create(&cloud, &pool, baseline, options.monitor));

  OnlineOutcome outcome;
  outcome.final_deployment = initial;
  outcome.latest_costs = baseline;

  // Counter handles are no-ops without a registry; spans are no-ops without
  // a tracer, so the instrumented loop costs a null check when obs is off.
  obs::Counter checks_counter, escalations_counter, remeasures_counter,
      moves_counter;
  if (options.obs.metrics != nullptr) {
    checks_counter = options.obs.metrics->counter("redeploy.monitor.checks");
    escalations_counter =
        options.obs.metrics->counter("redeploy.monitor.escalations");
    remeasures_counter =
        options.obs.metrics->counter("redeploy.measure.remeasures");
    moves_counter = options.obs.metrics->counter("redeploy.planner.moves");
  }

  // The loop is clocked by the same EventQueue the protocols use: one event
  // per check, `check_interval_s` apart in virtual time. Events only record
  // failures; the queue drains regardless and status is checked after.
  measure::EventQueue clock;
  Status failure = Status::OK();
  for (int k = 1; k <= options.checks; ++k) {
    clock.ScheduleAt(
        static_cast<double>(k) * options.check_interval_s * 1e3, [&] {
          if (!failure.ok()) return;
          if (options.cancel.Cancelled()) {
            failure = Status::Cancelled("online redeployment cancelled");
            return;
          }
          const double t_hours =
              options.start_t_hours + clock.now_ms() / 3.6e6;
          // Stamp the trace in virtual time: the span for this check opens
          // (and, via RAII, closes) at the check's event-queue instant, so
          // identical runs serialize to identical bytes.
          if (options.obs.virtual_clock != nullptr) {
            options.obs.virtual_clock->SetSeconds(t_hours * 3600.0);
          }
          obs::Span check_span(options.obs.tracer, "redeploy.check",
                               "redeploy", options.obs.parent);
          checks_counter.Add();
          OnlineCheckRecord record;
          record.check = monitor.Check(t_hours);
          if (options.obs.tracer != nullptr) {
            options.obs.tracer->AddArg(
                check_span.id(),
                obs::Arg("escalate", record.check.escalate ? 1.0 : 0.0));
          }
          if (!record.check.escalate) {
            outcome.records.push_back(std::move(record));
            return;
          }
          ++outcome.escalations;
          escalations_counter.Add();

          // Full re-measure of the pool at this virtual instant, with the
          // baseline measurement's spec. The measurement seed is re-derived
          // per escalation so repeated refreshes do not replay the
          // baseline's sample stream. On a virtual clock the re-measure
          // advances the clock by its protocol time, so its span and the
          // check's cover the time the escalation paid.
          const measure::MeasurementSpec spec{
              .protocol = options.protocol,
              .metric = options.metric,
              .duration_s = options.measure_duration_s,
              .probe_bytes = options.probe_bytes,
              .seed = options.measure_seed +
                      0x9e3779b97f4a7c15ULL *
                          static_cast<uint64_t>(outcome.escalations),
              .start_t_hours = t_hours};
          auto refreshed = measure::MeasureCostMatrix(
              cloud, pool, spec, options.cancel,
              options.obs.Under(check_span.id()));
          if (!refreshed.ok()) {
            failure = refreshed.status();
            return;
          }
          ++outcome.remeasures;
          remeasures_counter.Add();
          record.remeasured = true;
          outcome.latest_costs = std::move(refreshed->costs);
          // Observers get the instant the re-measure *completed*, after the
          // protocol's virtual time (the instant its span ends): that is
          // where a drift timeline for this matrix starts (matching how a
          // baseline measured from t = 0 is stamped with its virtual time).
          if (on_refresh) {
            on_refresh(t_hours + refreshed->virtual_s / 3600.0,
                       outcome.latest_costs);
          }

          // Plan the migration-constrained redeployment on the fresh
          // matrix; a validated plan is applied, an empty one means the
          // budget/penalty beat every candidate.
          auto plan = PlanMigration(graph, outcome.latest_costs,
                                    outcome.final_deployment, options.planner);
          if (!plan.ok()) {
            failure = plan.status();
            return;
          }
          Status valid = ValidateMigrationPlan(
              graph, outcome.latest_costs, outcome.final_deployment, *plan,
              options.planner.objective);
          if (!valid.ok()) {
            failure = valid;
            return;
          }
          outcome.migrations += plan->migrations;
          moves_counter.Add(static_cast<uint64_t>(plan->migrations));
          outcome.final_deployment = plan->target;
          record.plan = std::move(plan).value();

          // The network genuinely changed: the refreshed matrix is the new
          // baseline drift is measured against.
          Status rebased = monitor.Rebase(outcome.latest_costs);
          CLOUDIA_CHECK(rebased.ok());
          outcome.records.push_back(std::move(record));
        });
  }
  clock.RunAll();
  if (!failure.ok()) return failure;

  outcome.monitored_virtual_s =
      static_cast<double>(options.checks) * options.check_interval_s;
  CLOUDIA_ASSIGN_OR_RETURN(
      deploy::CostEvaluator eval,
      deploy::CostEvaluator::Create(&graph, &outcome.latest_costs,
                                    options.planner.objective));
  outcome.final_cost_ms = eval.Cost(outcome.final_deployment);
  return outcome;
}

}  // namespace cloudia::redeploy
