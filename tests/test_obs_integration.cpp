// Cross-layer observability contracts: portfolio traces attribute every
// incumbent to the member that found it, hier phases nest under one solve
// span, tracing never perturbs solver results, and the redeploy loop's
// virtual-clock trace is byte-stable across runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "deploy/cost.h"
#include "deploy/solve.h"
#include "deploy_test_util.h"
#include "graph/templates.h"
#include "hier/cost_source.h"
#include "hier/solver.h"
#include "measure/recipe.h"
#include "netsim/cloud.h"
#include "netsim/dynamics.h"
#include "obs/obs.h"
#include "redeploy/online.h"
#include "service/advisor_service.h"

namespace cloudia {
namespace {

using deploy::CostMatrix;
using deploy::NdpSolveOptions;
using deploy::NdpSolveResult;
using deploy::RandomCosts;
using deploy::SolveContext;

const obs::TraceEvent* FindSpan(const std::vector<obs::TraceEvent>& events,
                                const std::string& name) {
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceEvent::Kind::kSpan && e.name == name) return &e;
  }
  return nullptr;
}

std::string ArgText(const obs::TraceEvent& event, const std::string& key) {
  for (const obs::TraceArg& a : event.args) {
    if (a.key == key) return a.text;
  }
  return "";
}

double ArgNumber(const obs::TraceEvent& event, const std::string& key) {
  for (const obs::TraceArg& a : event.args) {
    if (a.key == key && a.is_number) return a.number;
  }
  return -1.0;
}

TEST(ObsIntegrationTest, PortfolioTraceAttributesIncumbentsToMembers) {
  graph::CommGraph app = graph::Mesh2D(4, 5);
  Rng rng(11);
  CostMatrix costs = RandomCosts(26, rng);

  obs::Tracer tracer;
  SolveContext context(Deadline::After(10.0));
  context.set_max_threads(1);
  context.set_obs(&tracer, 0, "portfolio");

  NdpSolveOptions options;
  options.objective = deploy::Objective::kLongestLink;
  options.portfolio_members = {"g1", "r1", "local"};
  options.threads = 1;
  options.r1_samples = 200;
  options.seed = 5;
  auto result = deploy::SolveNodeDeploymentByName(app, costs, "portfolio",
                                                  options, context);
  ASSERT_TRUE(result.ok());

  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  // One span per member, named portfolio.<member>.
  std::set<std::string> member_spans;
  std::map<obs::SpanId, std::string> span_member;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceEvent::Kind::kSpan &&
        e.name.rfind("portfolio.", 0) == 0) {
      member_spans.insert(e.name);
      span_member[e.id] = e.name.substr(std::string("portfolio.").size());
    }
  }
  EXPECT_EQ(member_spans,
            (std::set<std::string>{"portfolio.g1", "portfolio.r1",
                                   "portfolio.local"}));

  // Incumbent instants come in two flavors: member-labeled events (under
  // that member's span -- the attribution) and "portfolio"-labeled events
  // (the parent context's merged monotone timeline). The best member-labeled
  // one matches the returned cost, so the winner is attributable.
  double best_cost = -1.0;
  std::string best_member;
  int member_incumbents = 0;
  int merged_incumbents = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::TraceEvent::Kind::kInstant || e.name != "incumbent") {
      continue;
    }
    const std::string solver = ArgText(e, "solver");
    if (solver == "portfolio") {
      ++merged_incumbents;
      continue;
    }
    ++member_incumbents;
    EXPECT_TRUE(solver == "g1" || solver == "r1" || solver == "local")
        << solver;
    ASSERT_TRUE(span_member.count(e.parent));
    EXPECT_EQ(span_member[e.parent], solver);
    const double cost = ArgNumber(e, "cost");
    if (best_cost < 0.0 || cost < best_cost) {
      best_cost = cost;
      best_member = solver;
    }
  }
  ASSERT_GT(member_incumbents, 0);
  ASSERT_GT(merged_incumbents, 0);
  EXPECT_NEAR(best_cost, result->cost, 1e-12);
  EXPECT_FALSE(best_member.empty());
}

TEST(ObsIntegrationTest, HierTraceNestsPhasesUnderOneSolveSpan) {
  graph::CommGraph app = graph::Mesh2D(5, 8);
  Rng rng(7);
  CostMatrix costs = RandomCosts(80, rng);
  hier::MatrixCostSource source(&costs);

  obs::Tracer tracer;
  SolveContext context(Deadline::Infinite());
  context.set_obs(&tracer, 0, "hier");
  hier::HierOptions options;
  options.flat_fallback_instances = 16;  // force the full pipeline
  auto solved = hier::SolveHierarchical(
      app, source, deploy::Objective::kLongestLink, options, context);
  ASSERT_TRUE(solved.ok());
  ASSERT_FALSE(solved->stats.flat_fallback);

  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  const obs::TraceEvent* solve = FindSpan(events, "hier.solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_GE(solve->duration_ns, 0);

  const obs::TraceEvent* shards_phase = FindSpan(events, "hier.shards");
  ASSERT_NE(shards_phase, nullptr);
  for (const char* phase :
       {"hier.decompose", "hier.coarse", "hier.shards", "hier.polish"}) {
    const obs::TraceEvent* span = FindSpan(events, phase);
    ASSERT_NE(span, nullptr) << phase;
    EXPECT_EQ(span->parent, solve->id) << phase;
    EXPECT_GE(span->duration_ns, 0) << phase;
  }
  // Per-shard spans nest under the shards phase, one per shard.
  int shard_spans = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceEvent::Kind::kSpan &&
        e.name.rfind("hier.shard.", 0) == 0) {
      ++shard_spans;
      EXPECT_EQ(e.parent, shards_phase->id);
    }
  }
  EXPECT_EQ(shard_spans, solved->stats.shards);
}

// Tracing must be an observer, never an actor: a single-threaded solve with
// a tracer and a metrics registry attached returns bit-identical results to
// the same solve with observability off.
TEST(ObsIntegrationTest, TracingDoesNotPerturbSolverResults) {
  graph::CommGraph app = graph::Mesh2D(4, 6);
  Rng rng(3);
  CostMatrix costs = RandomCosts(30, rng);

  NdpSolveOptions options;
  options.objective = deploy::Objective::kLongestLink;
  options.threads = 1;
  options.seed = 9;

  SolveContext plain_context(Deadline::After(10.0));
  plain_context.set_max_threads(1);
  auto plain = deploy::SolveNodeDeploymentByName(app, costs, "local", options,
                                                 plain_context);
  ASSERT_TRUE(plain.ok());

  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  SolveContext traced_context(Deadline::After(10.0));
  traced_context.set_max_threads(1);
  traced_context.set_obs(&tracer, 0, "local");
  auto traced = deploy::SolveNodeDeploymentByName(app, costs, "local",
                                                  options, traced_context);
  ASSERT_TRUE(traced.ok());

  EXPECT_EQ(plain->cost, traced->cost);  // bitwise, not NEAR
  EXPECT_EQ(plain->deployment, traced->deployment);
  EXPECT_EQ(plain->iterations, traced->iterations);
  EXPECT_GT(tracer.event_count(), 0u);
}

// A traced MIP solve emits one mip.summary instant that explains the proof
// (nodes, LP pivots, lazy rows, LP size, bound), and is bit-identical to the
// same solve untraced.
TEST(ObsIntegrationTest, TracedMipSolveIsBitIdenticalAndSummarized) {
  graph::CommGraph app = graph::Mesh2D(2, 3);
  Rng rng(19);
  CostMatrix costs = RandomCosts(8, rng);

  NdpSolveOptions options;
  options.objective = deploy::Objective::kLongestLink;
  options.seed = 23;

  SolveContext plain_context(Deadline::After(60.0));
  auto plain = deploy::SolveNodeDeploymentByName(app, costs, "mip", options,
                                                 plain_context);
  ASSERT_TRUE(plain.ok());

  obs::Tracer tracer;
  SolveContext traced_context(Deadline::After(60.0));
  traced_context.set_obs(&tracer, 0, "mip");
  auto traced = deploy::SolveNodeDeploymentByName(app, costs, "mip", options,
                                                  traced_context);
  ASSERT_TRUE(traced.ok());

  ASSERT_TRUE(plain->proven_optimal);
  EXPECT_EQ(traced->proven_optimal, plain->proven_optimal);
  EXPECT_EQ(plain->cost, traced->cost);  // bitwise, not NEAR
  EXPECT_EQ(plain->deployment, traced->deployment);
  EXPECT_EQ(plain->iterations, traced->iterations);

  int summaries = 0;
  for (const obs::TraceEvent& e : tracer.Snapshot()) {
    if (e.name != "mip.summary") continue;
    ++summaries;
    EXPECT_EQ(e.kind, obs::TraceEvent::Kind::kInstant);
    EXPECT_EQ(ArgText(e, "solver"), "mip");
    EXPECT_EQ(ArgNumber(e, "nodes"),
              static_cast<double>(traced->iterations));
    EXPECT_GT(ArgNumber(e, "lp_pivots"), 0.0);
    EXPECT_GT(ArgNumber(e, "lazy_rows"), 0.0);
    EXPECT_GT(ArgNumber(e, "max_lp_rows"), 0.0);
    // A finished proof's bound is the optimum of the clustered model, which
    // without clustering is the reported cost.
    EXPECT_NEAR(ArgNumber(e, "best_bound"), traced->cost, 1e-9);
  }
  EXPECT_EQ(summaries, 1);
}

// A traced service request measures under one "measure.run" span, a child
// of its "service.job" span, and gets the same matrix bit for bit as the
// same request untraced.
TEST(ObsIntegrationTest, TracedServiceRequestLightsItsMeasurement) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  auto measure = [&app](const obs::ObsConfig& obs) {
    service::DeploymentRequest req;
    req.environment.instances = 14;
    req.environment.measure_duration_s = 20.0;
    req.environment.seed = 9;
    req.app = &app;
    req.solve.method = "g2";
    service::AdvisorService::Options options;
    options.threads = 1;
    options.obs = obs;
    service::AdvisorService service(options);
    const service::EnvironmentSpec spec = req.environment;
    CLOUDIA_CHECK(service.Submit(std::move(req)).Wait().status.ok());
    auto cached = service.cache().Get(spec);
    CLOUDIA_CHECK(cached.ok() && cached->hit);
    return cached->entry->costs;
  };
  const CostMatrix plain = measure({});

  obs::Tracer tracer;
  obs::ObsConfig obs;
  obs.tracer = &tracer;
  const CostMatrix traced = measure(obs);
  ASSERT_EQ(plain.size(), traced.size());
  EXPECT_TRUE(std::equal(plain.values().begin(), plain.values().end(),
                         traced.values().begin()));  // bitwise, not NEAR

  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  const obs::TraceEvent* job = FindSpan(events, "service.job");
  const obs::TraceEvent* run = FindSpan(events, "measure.run");
  ASSERT_NE(job, nullptr);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->parent, job->id);
  EXPECT_EQ(ArgText(*run, "protocol"), "Staged");
  EXPECT_EQ(ArgNumber(*run, "instances"), 14.0);
  EXPECT_GT(ArgNumber(*run, "samples"), 0.0);
  EXPECT_GT(ArgNumber(*run, "virtual_s"), 0.0);
}

// The redeploy event-queue loop with an injected VirtualClock must produce
// byte-identical Chrome trace JSON across runs: timestamps are virtual,
// span ids are a counter, lanes are logical.
TEST(ObsIntegrationTest, RedeployVirtualClockTraceIsByteStable) {
  auto run = []() -> std::string {
    const uint64_t seed = 4;
    net::CloudSimulator cloud(net::AmazonEc2Profile(), seed);
    auto pool = cloud.Allocate(10);
    CLOUDIA_CHECK(pool.ok());

    auto measured = measure::MeasureCostMatrix(
        cloud, *pool, {.duration_s = 30.0, .seed = seed});
    CLOUDIA_CHECK(measured.ok());

    net::DynamicsConfig drift;
    drift.start_hours = measured->virtual_s / 3600.0;
    drift.episode_rate = 0.6;
    drift.severity_lo = 2.0;
    drift.severity_hi = 3.5;
    drift.seed = seed + 1;
    net::NetworkDynamics dynamics(drift, &cloud.topology());
    cloud.AttachDynamics(&dynamics);

    deploy::Deployment initial;
    for (int i = 0; i < 8; ++i) initial.push_back(i);
    graph::CommGraph app = graph::Mesh2D(2, 4);

    obs::VirtualClock clock;
    obs::Tracer tracer(&clock);
    obs::MetricsRegistry registry;

    redeploy::OnlineOptions online;
    online.monitor.seed = seed + 17;
    online.planner.max_migrations = 2;
    online.planner.time_budget_s = 1.0;
    online.start_t_hours = drift.start_hours;
    online.check_interval_s = 900.0;
    online.checks = 6;
    online.measure_seed = seed;
    online.obs.tracer = &tracer;
    online.obs.metrics = &registry;
    online.virtual_clock = &clock;
    auto outcome = redeploy::RunOnlineRedeployment(
        cloud, *pool, app, measured->costs, initial, online);
    CLOUDIA_CHECK(outcome.ok());
    return tracer.ToChromeTraceJson() + "\n" + registry.SnapshotLine();
  };

  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-for-byte, trace and counters
  EXPECT_NE(first.find("redeploy.check"), std::string::npos);
  EXPECT_NE(first.find("measure.run"), std::string::npos);  // a re-measure
  EXPECT_NE(first.find("redeploy.monitor.checks=6"), std::string::npos);
}

}  // namespace
}  // namespace cloudia
