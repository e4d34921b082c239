// The online redeployment loop: monitor -> escalate -> re-measure -> plan.
//
// Ties the drift subsystem together over virtual time, driven by the same
// measure::EventQueue clock the measurement protocols use: checks are
// scheduled `check_interval_s` apart, each check runs the DriftMonitor's
// cheap sampled re-probe, and an escalation triggers a *full* protocol
// re-measure of the pool at that virtual instant, a MigrationPlanner solve
// against the refreshed matrix (budgeted by `planner.max_migrations`), and a
// rebase of the monitor onto the new baseline. The loop is deterministic for
// fixed seeds and is shared by service::AdvisorService (which feeds every
// refreshed matrix back into its CostMatrixCache) and bench_redeploy (which
// scores objective retention against ground truth).
#ifndef CLOUDIA_REDEPLOY_ONLINE_H_
#define CLOUDIA_REDEPLOY_ONLINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "measure/protocols.h"
#include "obs/obs.h"
#include "redeploy/drift_monitor.h"
#include "redeploy/migration_planner.h"

namespace cloudia::redeploy {

struct OnlineOptions {
  MonitorOptions monitor;
  PlannerOptions planner;
  /// Virtual hour at which monitoring begins -- typically the end of the
  /// baseline measurement, so "drift" means "change since deployment".
  double start_t_hours = 0.0;
  /// Virtual seconds between drift checks.
  double check_interval_s = 1800.0;
  /// Number of checks to run over the horizon.
  int checks = 12;

  /// Full re-measure recipe used on escalation (mirrors the baseline
  /// measurement's spec so refreshed matrices are like-for-like).
  measure::Protocol protocol = measure::Protocol::kStaged;
  measure::CostMetric metric = measure::CostMetric::kMean;
  /// <= 0 selects the paper's 5-min-per-100-instances rule.
  double measure_duration_s = 0.0;
  double probe_bytes = net::kDefaultProbeBytes;
  /// Escalation k (1-based) re-measures with measurement seed
  /// measure_seed + 0x9e3779b97f4a7c15 * k, starting at its check's hour.
  uint64_t measure_seed = 1;

  /// Cooperative cancellation, polled between checks and threaded into the
  /// full re-measure.
  CancelToken cancel;

  /// Optional observability sinks. Counters:
  /// redeploy.monitor.checks / .escalations, redeploy.measure.remeasures,
  /// redeploy.planner.moves. Spans: one "redeploy.check" per drift check
  /// under obs.parent, with a re-measure's "measure.run" under it. With
  /// obs.virtual_clock set, the clock is set to each check's virtual event
  /// time before its span opens, and a re-measure advances it by the
  /// protocol's virtual time, so the trace is stamped in virtual time and
  /// byte-identical across runs (the loop is single-threaded and
  /// deterministic for fixed seeds).
  obs::ObsConfig obs;
};

/// One check of the loop, in order.
struct OnlineCheckRecord {
  DriftCheck check;
  bool remeasured = false;  ///< the check escalated and a re-measure ran
  /// Plan produced after the re-measure (steps empty when nothing beat the
  /// migration budget/penalty); meaningful only when `remeasured`.
  MigrationPlan plan;
};

struct OnlineOutcome {
  /// Deployment after every applied plan (== the initial one when no check
  /// escalated or no plan paid for itself).
  deploy::Deployment final_deployment;
  /// The last refreshed cost matrix (the baseline when never re-measured).
  deploy::CostMatrix latest_costs;
  /// Objective of final_deployment under latest_costs.
  double final_cost_ms = 0.0;
  int escalations = 0;   ///< checks that demanded a re-measure
  int remeasures = 0;    ///< full protocol runs actually paid for
  int migrations = 0;    ///< nodes moved across all applied plans
  double monitored_virtual_s = 0.0;  ///< checks * interval
  std::vector<OnlineCheckRecord> records;
};

/// Runs the loop: `checks` drift checks against `baseline`, starting from
/// `initial` (a valid deployment of `graph` on the pool). On escalation the
/// pool is re-measured with the options' protocol recipe, the planner
/// produces a migration-constrained plan (validated before it is applied),
/// and `on_refresh` -- when given -- observes every refreshed matrix along
/// with the virtual instant its re-measure *completed* (the service layer
/// uses it to update its cost-matrix cache and anchor later drift
/// timelines). Fails on invalid input, measurement failure, or
/// cancellation.
Result<OnlineOutcome> RunOnlineRedeployment(
    const net::CloudSimulator& cloud,
    const std::vector<net::Instance>& pool, const graph::CommGraph& graph,
    const deploy::CostMatrix& baseline, const deploy::Deployment& initial,
    const OnlineOptions& options,
    const std::function<void(double t_hours, const deploy::CostMatrix&)>&
        on_refresh = nullptr);

}  // namespace cloudia::redeploy

#endif  // CLOUDIA_REDEPLOY_ONLINE_H_
