// Objective retention under drift: static one-shot deployment vs monitored
// redeployment at several migration budgets K.
//
// ClouDiA's contract ends at deployment time, but its own stability data
// (Figs. 2/19/21) shows pairwise latencies drifting over hours. This bench
// plays a drifting scenario (congestion episodes + VM relocation overlaid on
// the EC2 profile) against the same initial deployment twice:
//
//   * static (K=0): deploy once, never move -- the paper's model. The
//     ground-truth objective decays as the network shifts under it.
//   * monitored (K>0): redeploy::DriftMonitor re-probes a sampled link
//     subset each check; when drift is statistically significant the pool
//     is re-measured and redeploy::MigrationPlanner moves at most K nodes.
//
// Scoring uses the simulator's *ground truth* (expected RTT matrix at each
// check time), never the monitor's own estimates, so the comparison cannot
// be gamed by measurement error. PASS requires monitored redeployment to
// retain a strictly better mean objective than static for at least one
// K > 0, and the whole scenario to repeat bit-identically (exit 1 on FAIL).
//
// Flags: --nodes=N (default 30), --instances=N (default nodes+10%),
// --checks=N (default 12), --interval=S (virtual, default 1800),
// --duration=S (baseline measurement, default 30), --seed=N (default 7),
// --skip-determinism, --json=PATH (unified metrics, see bench_util.h).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/timer.h"
#include "deploy/solve.h"
#include "graph/templates.h"
#include "measure/recipe.h"
#include "netsim/cloud.h"
#include "netsim/dynamics.h"
#include "netsim/provider.h"
#include "redeploy/online.h"

namespace {

using namespace cloudia;

struct Scenario {
  net::CloudSimulator cloud;
  std::vector<net::Instance> pool;
  deploy::CostMatrix baseline;
  deploy::Deployment initial;
  net::DynamicsConfig drift;
};

struct RetentionCurve {
  int k = 0;
  int escalations = 0;
  int remeasures = 0;
  int migrations = 0;
  std::vector<double> true_cost;  ///< ground-truth objective per check
  deploy::Deployment final_deployment;
  double mean_true_cost() const {
    double sum = 0.0;
    for (double c : true_cost) sum += c;
    return true_cost.empty() ? 0.0
                             : sum / static_cast<double>(true_cost.size());
  }
};

// Ground-truth objective of `d` at virtual time `t_hours`: the simulator's
// expected RTT matrix (with dynamics), not anyone's measurement of it.
double TrueCost(const net::CloudSimulator& cloud,
                const std::vector<net::Instance>& pool,
                const graph::CommGraph& app, const deploy::Deployment& d,
                double t_hours) {
  auto rows = cloud.ExpectedRttMatrix(pool, net::kDefaultProbeBytes, t_hours);
  auto costs = deploy::CostMatrix::FromRows(rows);
  CLOUDIA_CHECK(costs.ok());
  return deploy::LongestLinkCost(app, d, *costs);
}

Scenario BuildScenario(int instances, double duration_s, uint64_t seed,
                       const graph::CommGraph& app) {
  Scenario s{net::CloudSimulator(net::AmazonEc2Profile(), seed),
             {},
             {},
             {},
             {}};
  auto pool = s.cloud.Allocate(instances);
  CLOUDIA_CHECK(pool.ok());
  s.pool = std::move(pool).value();

  auto measured = measure::MeasureCostMatrix(
      s.cloud, s.pool, {.duration_s = duration_s, .seed = seed});
  CLOUDIA_CHECK(measured.ok());
  s.baseline = std::move(measured->costs);

  deploy::NdpSolveOptions sopts;
  sopts.seed = seed;
  sopts.threads = 1;
  deploy::SolveContext context(Deadline::After(10.0));
  context.set_max_threads(1);
  auto solved =
      deploy::SolveNodeDeploymentByName(app, s.baseline, "local", sopts,
                                        context);
  CLOUDIA_CHECK(solved.ok());
  s.initial = std::move(solved->deployment);

  // The drift scenario: frequent multi-hour congestion episodes plus
  // occasional provider-side relocation, anchored after the baseline
  // measurement so the cached matrix is honest at t = start.
  s.drift.start_hours = measured->virtual_s / 3600.0;
  s.drift.epoch_minutes = 30.0;
  s.drift.episode_rate = 0.35;
  s.drift.severity_lo = 2.0;
  s.drift.severity_hi = 3.2;
  s.drift.recovery_per_epoch = 0.1;
  s.drift.relocation_window_hours = 1.0;
  s.drift.relocation_prob = 0.1;
  s.drift.seed = seed + 1;
  return s;
}

RetentionCurve RunMonitored(Scenario& s, const graph::CommGraph& app, int k,
                            int checks, double interval_s, uint64_t seed) {
  net::NetworkDynamics dynamics(s.drift, &s.cloud.topology());
  s.cloud.AttachDynamics(&dynamics);

  redeploy::OnlineOptions online;
  online.monitor.seed = seed + 17;
  online.planner.max_migrations = k;
  online.planner.time_budget_s = 10.0;
  online.start_t_hours = s.drift.start_hours;
  online.check_interval_s = interval_s;
  online.checks = checks;
  online.measure_seed = seed;
  auto outcome = redeploy::RunOnlineRedeployment(s.cloud, s.pool, app,
                                                 s.baseline, s.initial,
                                                 online);
  CLOUDIA_CHECK(outcome.ok());

  // Replay the check trajectory against ground truth: the deployment in
  // force at each check is the initial one until a check's applied plan
  // changes it.
  RetentionCurve curve;
  curve.k = k;
  curve.escalations = outcome->escalations;
  curve.remeasures = outcome->remeasures;
  curve.migrations = outcome->migrations;
  deploy::Deployment current = s.initial;
  for (const redeploy::OnlineCheckRecord& record : outcome->records) {
    if (record.remeasured && !record.plan.target.empty()) {
      current = record.plan.target;
    }
    curve.true_cost.push_back(
        TrueCost(s.cloud, s.pool, app, current, record.check.t_hours));
  }
  curve.final_deployment = std::move(outcome->final_deployment);
  s.cloud.AttachDynamics(nullptr);
  return curve;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  CLOUDIA_CHECK(flags.ok());
  auto nodes = flags->GetInt("nodes", 30);
  auto instances_flag = flags->GetInt("instances", 0);
  auto checks = flags->GetInt("checks", 12);
  auto interval = flags->GetDouble("interval", 1800.0);
  auto duration = flags->GetDouble("duration", 30.0);
  auto seed = flags->GetInt("seed", 7);
  CLOUDIA_CHECK(nodes.ok() && instances_flag.ok() && checks.ok() &&
                interval.ok() && duration.ok() && seed.ok());
  const bool skip_determinism = flags->GetBool("skip-determinism", false);
  const int n = static_cast<int>(*nodes);
  const int instances =
      *instances_flag > 0 ? static_cast<int>(*instances_flag)
                          : n + std::max(1, n / 10);

  int rows = 1;
  for (int r = 2; r * r <= n; ++r) {
    if (n % r == 0) rows = r;
  }
  graph::CommGraph app = graph::Mesh2D(rows, n / rows);

  std::printf(
      "objective retention under drift: %d-node mesh on %d EC2 instances\n"
      "(baseline: staged protocol, %.0f virtual s; drift: congestion "
      "episodes + relocation;\n %lld checks every %.0f virtual s; ground-truth "
      "scoring)\n\n",
      n, instances, *duration, static_cast<long long>(*checks), *interval);

  const std::vector<int> budgets = {0, 2, 4, n};
  auto run_all = [&] {
    std::vector<RetentionCurve> curves;
    Scenario s = BuildScenario(instances, *duration,
                               static_cast<uint64_t>(*seed), app);
    for (int k : budgets) {
      curves.push_back(RunMonitored(s, app, k, static_cast<int>(*checks),
                                    *interval, static_cast<uint64_t>(*seed)));
    }
    return curves;
  };

  Stopwatch wall;
  std::vector<RetentionCurve> curves = run_all();
  const double static_mean = curves[0].mean_true_cost();
  const double static_final = curves[0].true_cost.back();

  std::printf(
      "   K   escalations  remeasures  migrations   mean true cost   final "
      "true cost   vs static\n");
  bool any_better = false;
  for (const RetentionCurve& curve : curves) {
    const double mean = curve.mean_true_cost();
    const double saved =
        static_mean > 0 ? 100.0 * (static_mean - mean) / static_mean : 0.0;
    if (curve.k > 0 && mean < static_mean) any_better = true;
    std::printf(
        "%4d%s %10d %11d %11d %14.4f ms %14.4f ms %+9.1f%%\n", curve.k,
        curve.k == 0 ? " (static)" : "         ", curve.escalations,
        curve.remeasures, curve.migrations, mean, curve.true_cost.back(),
        saved);
  }
  std::printf("\nstatic deployment decay over the horizon: %.4f ms (first "
              "check) -> %.4f ms (last)\n",
              curves[0].true_cost.front(), static_final);
  std::printf("monitored redeployment beats static for some K > 0: %s\n",
              any_better ? "PASS" : "FAIL");

  bool deterministic = true;
  if (!skip_determinism) {
    std::vector<RetentionCurve> repeat = run_all();
    for (size_t i = 0; i < curves.size(); ++i) {
      deterministic = deterministic &&
                      curves[i].true_cost == repeat[i].true_cost &&
                      curves[i].final_deployment ==
                          repeat[i].final_deployment &&
                      curves[i].migrations == repeat[i].migrations;
    }
    std::printf("repeat run bit-identical: %s\n",
                deterministic ? "PASS" : "FAIL");
  }
  const bool pass = any_better && deterministic;
  const std::string json_path = flags->GetString("json", "");
  if (!json_path.empty()) {
    // Gated: retention ratios per budget (deterministic replay of a seeded
    // scenario -- "near"), the PASS indicators. Informational: wall time.
    std::vector<bench::Metric> metrics;
    for (const RetentionCurve& curve : curves) {
      const std::string base = "redeploy.k" + std::to_string(curve.k) + ".";
      const double mean = curve.mean_true_cost();
      metrics.push_back({base + "mean_true_cost", mean, "ms", ""});
      metrics.push_back({base + "retention",
                         static_mean > 0 ? mean / static_mean : 1.0, "x",
                         curve.k == 0 ? "" : "lower"});
      metrics.push_back({base + "migrations",
                         static_cast<double>(curve.migrations), "", "near"});
    }
    metrics.push_back({"redeploy.any_better", any_better ? 1.0 : 0.0, "bool",
                       "near"});
    metrics.push_back({"redeploy.deterministic", deterministic ? 1.0 : 0.0,
                       "bool", "near"});
    metrics.push_back({"redeploy.wall", wall.ElapsedSeconds(), "s", ""});
    if (bench::WriteMetricsJson(json_path, "bench_redeploy", metrics)) {
      std::printf("wrote %s\n", json_path.c_str());
    }
  }
  std::printf("\nwall time: %.2f s\noverall: %s\n", wall.ElapsedSeconds(),
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
