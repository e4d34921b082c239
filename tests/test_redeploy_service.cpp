#include <gtest/gtest.h>

#include <vector>

#include "graph/templates.h"
#include "service/advisor_service.h"

namespace cloudia::service {
namespace {

EnvironmentSpec SmallEnv(uint64_t seed = 7) {
  EnvironmentSpec spec;
  spec.provider = "ec2";
  spec.instances = 14;
  spec.measure_duration_s = 15.0;  // virtual seconds; wall time is tiny
  spec.seed = seed;
  return spec;
}

// A drift scenario strong enough to be detected within a few checks:
// frequent long-lived congestion episodes plus occasional VM relocation.
RedeployPolicy AggressivePolicy() {
  RedeployPolicy policy;
  policy.dynamics.epoch_minutes = 30.0;
  policy.dynamics.episode_rate = 0.35;
  policy.dynamics.severity_lo = 1.8;
  policy.dynamics.severity_hi = 3.0;
  policy.dynamics.recovery_per_epoch = 0.1;
  policy.dynamics.relocation_window_hours = 1.0;
  policy.dynamics.relocation_prob = 0.1;
  policy.dynamics.seed = 13;
  policy.monitor.seed = 17;
  policy.planner.max_migrations = 4;
  policy.planner.time_budget_s = 1.0;
  policy.check_interval_s = 1800.0;  // one check per virtual half hour
  policy.checks = 10;
  return policy;
}

TEST(RedeployServiceTest, RedeploymentIsOptInPerEnvironment) {
  AdvisorService::Options options;
  options.threads = 1;
  AdvisorService service(options);
  graph::CommGraph app = graph::Mesh2D(3, 4);

  RedeployRequest request;
  request.environment = SmallEnv();
  request.app = &app;
  RedeployHandle denied_handle = service.SubmitRedeploy(request);
  const RedeployResult& denied = denied_handle.Wait();
  ASSERT_FALSE(denied.status.ok());
  EXPECT_EQ(denied.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(denied.status.ToString().find("EnableRedeployment"),
            std::string::npos)
      << denied.status.ToString();

  // Opting in a *different* environment does not cover this one.
  service.EnableRedeployment(SmallEnv(/*seed=*/99), AggressivePolicy());
  RedeployHandle still_handle = service.SubmitRedeploy(request);
  const RedeployResult& still = still_handle.Wait();
  EXPECT_FALSE(still.status.ok());

  // A null graph fails through the handle, not by crashing.
  RedeployRequest bad;
  bad.environment = SmallEnv();
  RedeployHandle bad_handle = service.SubmitRedeploy(bad);
  EXPECT_FALSE(bad_handle.Wait().status.ok());
}

// service.redeploy.failed counts every redeploy that resolves non-OK, and
// nothing else.
TEST(RedeployServiceTest, FailedRedeploysAreCounted) {
  AdvisorService::Options options;
  options.threads = 1;
  AdvisorService service(options);
  graph::CommGraph app = graph::Mesh2D(3, 4);
  RedeployRequest request;
  request.environment = SmallEnv();
  request.app = &app;
  request.checks = 2;

  EXPECT_FALSE(service.SubmitRedeploy(request).Wait().status.ok());
  EXPECT_EQ(service.stats().redeploys_failed, 1u);

  service.EnableRedeployment(SmallEnv(), AggressivePolicy());
  RedeployHandle handle = service.SubmitRedeploy(request);
  const RedeployResult& ok = handle.Wait();
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(service.stats().redeploys_failed, 1u);
  EXPECT_EQ(service.stats().redeploys, 2u);
}

TEST(RedeployServiceTest, RefusesServicesWithACustomMeasureFn) {
  // Drift probes run against the rebuilt simulated cloud; a service whose
  // baselines come from an injected measure_fn would feed simulator
  // matrices into a cache of synthetic ones. The request must fail cleanly
  // instead of poisoning the cache.
  AdvisorService::Options options;
  options.threads = 1;
  options.measure_fn = [](const EnvironmentSpec& spec, const CancelToken&) {
    MeasuredEnvironment env;
    env.spec = spec;
    env.instances.resize(static_cast<size_t>(spec.instances));
    for (int i = 0; i < spec.instances; ++i) {
      env.instances[static_cast<size_t>(i)].id = i;
    }
    env.costs = deploy::CostMatrix(spec.instances, 1.0);
    for (int i = 0; i < spec.instances; ++i) env.costs.At(i, i) = 0.0;
    return Result<MeasuredEnvironment>(std::move(env));
  };
  AdvisorService service(options);
  graph::CommGraph app = graph::Mesh2D(3, 4);
  service.EnableRedeployment(SmallEnv(), AggressivePolicy());

  RedeployRequest request;
  request.environment = SmallEnv();
  request.app = &app;
  RedeployHandle handle = service.SubmitRedeploy(request);
  const RedeployResult& r = handle.Wait();
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.ToString().find("measure_fn"), std::string::npos)
      << r.status.ToString();
  EXPECT_EQ(service.cache_stats().refreshes, 0u);
}

TEST(RedeployServiceTest, InvalidPolicyDynamicsFailTheHandleNotTheProcess) {
  // An out-of-range drift scenario must resolve the handle with
  // InvalidArgument; tripping NetworkDynamics' CHECKs on a pool worker
  // would abort every tenant's in-flight request.
  AdvisorService::Options options;
  options.threads = 1;
  AdvisorService service(options);
  graph::CommGraph app = graph::Mesh2D(3, 4);

  RedeployPolicy broken = AggressivePolicy();
  broken.dynamics.recovery_per_epoch = 0.0;  // plausible "no recovery" typo
  service.EnableRedeployment(SmallEnv(), broken);

  RedeployRequest request;
  request.environment = SmallEnv();
  request.app = &app;
  RedeployHandle handle = service.SubmitRedeploy(request);
  const RedeployResult& r = handle.Wait();
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.ToString().find("recovery_per_epoch"), std::string::npos)
      << r.status.ToString();
}

TEST(RedeployServiceTest, DetectsDriftPlansWithinBudgetAndRefreshesCache) {
  AdvisorService::Options options;
  options.threads = 1;
  AdvisorService service(options);
  graph::CommGraph app = graph::Mesh2D(3, 4);  // 12 nodes on 14 instances
  service.EnableRedeployment(SmallEnv(), AggressivePolicy());

  RedeployRequest request;
  request.environment = SmallEnv();
  request.app = &app;
  request.solve.method = "local";
  request.solve.seed = 5;
  request.solve.time_budget_s = 1.0;
  RedeployHandle handle = service.SubmitRedeploy(request);
  const RedeployResult& r = handle.Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();

  EXPECT_EQ(r.checks_run, 10);
  EXPECT_TRUE(r.drift_detected)
      << "aggressive drift scenario went undetected over 10 checks";
  EXPECT_GE(r.escalations, 1);
  EXPECT_EQ(r.remeasures, r.escalations);
  EXPECT_TRUE(r.matrix_refreshed);

  // Every escalation's plan respects the policy's migration budget and
  // never regresses the objective under its own matrix.
  for (const auto& record : r.checks) {
    if (!record.remeasured) continue;
    EXPECT_LE(record.plan.migrations, 4);
    EXPECT_LE(record.plan.cost_after_ms, record.plan.cost_before_ms);
  }
  // The redeployed plan beats keeping the stale placement on the fresh
  // matrix whenever anything migrated.
  EXPECT_LE(r.final_cost_ms, r.stale_cost_ms);
  if (r.migrations > 0) {
    EXPECT_LT(r.final_cost_ms, r.stale_cost_ms);
  }

  // The refreshed matrix is now what the cache serves: a follow-up
  // deployment request must hit the cache (no new measurement) and solve
  // against costs that differ from the drift-free baseline.
  EXPECT_GE(service.cache_stats().refreshes, 1u);
  const uint64_t measurements = service.cache_stats().measurements;
  DeploymentRequest follow_up;
  follow_up.environment = SmallEnv();
  follow_up.app = &app;
  follow_up.solve.method = "g2";
  RequestHandle follow_up_handle = service.Submit(std::move(follow_up));
  const ServiceResult& solved = follow_up_handle.Wait();
  ASSERT_TRUE(solved.status.ok()) << solved.status.ToString();
  EXPECT_TRUE(solved.cache_hit);
  EXPECT_EQ(service.cache_stats().measurements, measurements);

  EXPECT_GE(service.stats().redeploys, 1u);
  EXPECT_GE(service.stats().redeploys_drifted, 1u);
  EXPECT_GE(service.stats().matrix_refreshes, 1u);
}

TEST(RedeployServiceTest, KZeroMonitorsAndRefreshesButNeverMigrates) {
  AdvisorService::Options options;
  options.threads = 1;
  AdvisorService service(options);
  graph::CommGraph app = graph::Mesh2D(3, 4);
  service.EnableRedeployment(SmallEnv(), AggressivePolicy());

  RedeployRequest request;
  request.environment = SmallEnv();
  request.app = &app;
  request.solve.method = "local";
  request.solve.seed = 5;
  request.solve.time_budget_s = 1.0;
  request.max_migrations = 0;  // override the policy's K
  RedeployHandle handle = service.SubmitRedeploy(request);
  const RedeployResult& r = handle.Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.migrations, 0);
  EXPECT_EQ(r.final_deployment, r.initial_deployment);
  EXPECT_EQ(r.final_cost_ms, r.stale_cost_ms);
  // Monitoring still detects and refreshes -- K only constrains movement.
  EXPECT_TRUE(r.drift_detected);
  EXPECT_TRUE(r.matrix_refreshed);
}

TEST(RedeployServiceTest, DeterministicAcrossServicesAtOneThread) {
  auto run = [] {
    AdvisorService::Options options;
    options.threads = 1;
    options.start_paused = true;
    AdvisorService service(options);
    graph::CommGraph app = graph::Mesh2D(3, 4);
    service.EnableRedeployment(SmallEnv(), AggressivePolicy());
    RedeployRequest request;
    request.environment = SmallEnv();
    request.app = &app;
    // g2 ignores wall budgets and the planner's K=4 descent is bounded by
    // passes, not wall time: the whole request is load-insensitive, so the
    // bitwise comparison below holds even on a saturated CI machine.
    request.solve.method = "g2";
    request.solve.seed = 5;
    RedeployHandle handle = service.SubmitRedeploy(request);
    service.Resume();
    RedeployResult r = handle.Wait();
    return r;
  };
  const RedeployResult a = run();
  const RedeployResult b = run();
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.final_deployment, b.final_deployment);
  EXPECT_EQ(a.final_cost_ms, b.final_cost_ms);  // bitwise
  EXPECT_EQ(a.stale_cost_ms, b.stale_cost_ms);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(RedeployServiceTest, PricedObjectiveIsPricedFromTheEnvironment) {
  // A price weight without explicit prices is priced from the environment's
  // provider and pool, as on a deployment request; the baseline solve and
  // every reported cost run under the priced objective.
  AdvisorService::Options options;
  options.threads = 1;
  AdvisorService service(options);
  graph::CommGraph app = graph::Mesh2D(3, 4);
  RedeployPolicy policy = AggressivePolicy();
  policy.checks = 2;
  service.EnableRedeployment(SmallEnv(), policy);

  RedeployRequest request;
  request.environment = SmallEnv();
  request.app = &app;
  request.solve.method = "g2";
  request.solve.seed = 5;
  request.solve.objective.price_weight = 0.5;
  RedeployHandle handle = service.SubmitRedeploy(request);
  const RedeployResult& r = handle.Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.checks_run, 2);

  // The same baseline, solved directly on the environment's priced pool.
  auto env = MeasureEnvironment(SmallEnv());
  ASSERT_TRUE(env.ok());
  cloudia::SolveSpec spec = request.solve;
  spec.threads = 1;
  ASSERT_TRUE(FillInstancePrices("ec2", env->instances, &spec.objective).ok());
  ASSERT_EQ(spec.objective.instance_prices.size(), env->instances.size());
  auto baseline =
      cloudia::SolveOnPool(app, env->instances, env->costs, spec);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(r.initial_deployment, baseline->result.deployment);
  EXPECT_EQ(r.initial_cost_ms, baseline->cost_ms);  // bitwise

  // The price term is really in the reported cost.
  auto latency_only = deploy::CostEvaluator::Create(&app, &env->costs,
                                                    deploy::ObjectiveSpec());
  ASSERT_TRUE(latency_only.ok());
  EXPECT_GT(r.initial_cost_ms, latency_only->Cost(r.initial_deployment));
}

TEST(RedeployServiceTest, CancelResolvesPromptly) {
  AdvisorService::Options options;
  options.threads = 1;
  options.start_paused = true;
  AdvisorService service(options);
  graph::CommGraph app = graph::Mesh2D(3, 4);
  service.EnableRedeployment(SmallEnv(), AggressivePolicy());

  RedeployRequest request;
  request.environment = SmallEnv();
  request.app = &app;
  RedeployHandle handle = service.SubmitRedeploy(request);
  handle.Cancel();
  service.Resume();
  const RedeployResult& r = handle.Wait();
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace cloudia::service
