#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cloudia/session.h"
#include "common/rng.h"
#include "deploy_test_util.h"
#include "graph/templates.h"

namespace cloudia {
namespace {

SessionOptions FastOptions(uint64_t seed = 7) {
  SessionOptions options;
  options.measure_duration_s = 20.0;  // virtual seconds; keeps tests quick
  options.seed = seed;
  return options;
}

TEST(DeploymentSessionTest, MeasureOnceSolveManyReusesTheCostMatrix) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 11);
  graph::CommGraph app = graph::Mesh2D(5, 6);  // 30 nodes
  DeploymentSession session(&cloud, &app, FastOptions());

  ASSERT_TRUE(session.Measure().ok());
  deploy::CostMatrix snapshot = session.costs();
  ASSERT_EQ(snapshot.size(), 33);  // 30 * 1.1

  // Acceptance shape: one Measure(), three registered methods, zero
  // re-measurement, per-solver results.
  for (const char* method : {"g2", "cp", "local"}) {
    SolveSpec spec;
    spec.method = method;
    spec.time_budget_s = 1.0;
    spec.seed = 5;
    auto solve = session.Solve(spec);
    ASSERT_TRUE(solve.ok()) << method << ": " << solve.status().ToString();
    EXPECT_EQ(solve->method, method);
    EXPECT_TRUE(deploy::ValidateDeployment(app, solve->result.deployment,
                                           session.costs(), spec.objective)
                    .ok())
        << method;
    EXPECT_EQ(solve->placement.size(), 30u);
    EXPECT_LE(solve->cost_ms, solve->default_cost_ms + 1e-9) << method;
  }
  EXPECT_EQ(session.solves().size(), 3u);
  // The matrix is measured once and never mutated by solving.
  EXPECT_EQ(session.costs(), snapshot);

  // Identical (method, seed) solves on the cached matrix are reproducible,
  // and each solve's result is independent of the solves before it.
  SolveSpec g2;
  g2.method = "g2";
  g2.seed = 5;
  auto again = session.Solve(g2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->result.deployment, session.solves()[0].result.deployment);
}

TEST(DeploymentSessionTest, SolveRunsMissingStagesImplicitly) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 13);
  graph::CommGraph app = graph::Mesh2D(3, 4);
  DeploymentSession session(&cloud, &app, FastOptions());
  SolveSpec spec;
  spec.method = "g1";
  auto solve = session.Solve(spec);
  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  EXPECT_TRUE(session.allocated_stage_done());
  EXPECT_TRUE(session.measured_stage_done());
  EXPECT_EQ(solve->placement.size(), 12u);
}

TEST(DeploymentSessionTest, StageMisuseIsACleanError) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 17);
  graph::CommGraph app = graph::Mesh2D(3, 3);
  DeploymentSession session(&cloud, &app, FastOptions());

  EXPECT_FALSE(session.Terminate().ok());  // nothing solved yet
  ASSERT_TRUE(session.Allocate().ok());
  EXPECT_FALSE(session.Allocate().ok());  // allocate twice
  ASSERT_TRUE(session.Measure().ok());
  EXPECT_FALSE(session.Measure().ok());  // measure twice

  SolveSpec spec;
  spec.method = "g2";
  ASSERT_TRUE(session.Solve(spec).ok());
  ASSERT_TRUE(session.Terminate().ok());
  EXPECT_FALSE(session.Terminate().ok());   // terminate twice
  EXPECT_FALSE(session.Solve(spec).ok());   // solve after terminate

  // Unknown solver names fail cleanly.
  DeploymentSession session2(&cloud, &app, FastOptions());
  SolveSpec unknown;
  unknown.method = "simulated-annealing";
  auto r = session2.Solve(unknown);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // A session whose solves all failed can still release its pool: Terminate
  // with no successful solve abandons everything instead of leaking it.
  auto abandoned = session2.Terminate();
  ASSERT_TRUE(abandoned.ok());
  EXPECT_EQ(abandoned->size(), session2.allocated().size());
}

TEST(DeploymentSessionTest, OneMeasurementServesMultipleAppGraphs) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 19);
  graph::CommGraph app = graph::Mesh2D(5, 6);
  DeploymentSession session(&cloud, &app, FastOptions());
  ASSERT_TRUE(session.Measure().ok());

  graph::CommGraph smaller = graph::AggregationTree(3, 3);  // 13 nodes
  SolveSpec spec;
  spec.method = "mip";
  spec.objective = deploy::Objective::kLongestPath;
  spec.cost_clusters = 0;
  spec.time_budget_s = 1.0;
  spec.app = &smaller;
  auto solve = session.Solve(spec);
  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  EXPECT_EQ(solve->placement.size(), 13u);
  EXPECT_TRUE(deploy::ValidateDeployment(smaller, solve->result.deployment,
                                         session.costs(), spec.objective)
                  .ok());

  graph::CommGraph too_big = graph::Mesh2D(10, 10);
  SolveSpec oversized;
  oversized.app = &too_big;
  EXPECT_FALSE(session.Solve(oversized).ok());
}

TEST(DeploymentSessionTest, TerminateKeepsTheBestSolvesInstances) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 23);
  graph::CommGraph app = graph::Mesh2D(4, 5);
  DeploymentSession session(&cloud, &app, FastOptions());

  SolveSpec r1;
  r1.method = "r1";
  r1.r1_samples = 50;
  ASSERT_TRUE(session.Solve(r1).ok());
  SolveSpec cp;
  cp.method = "cp";
  cp.time_budget_s = 1.0;
  ASSERT_TRUE(session.Solve(cp).ok());

  const SessionSolve* best = session.best_solve();
  ASSERT_NE(best, nullptr);
  auto terminated = session.Terminate();
  ASSERT_TRUE(terminated.ok());
  EXPECT_EQ(terminated->size(),
            session.allocated().size() - best->placement.size());
  for (const net::Instance& gone : *terminated) {
    for (const net::Instance& kept : best->placement) {
      EXPECT_NE(gone.id, kept.id);
    }
  }
}

TEST(DeploymentSessionTest, ProgressCallbackSeesMonotoneIncumbents) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 29);
  graph::CommGraph app = graph::Mesh2D(4, 5);
  DeploymentSession session(&cloud, &app, FastOptions());

  std::vector<double> costs_seen;
  SolveSpec spec;
  spec.method = "local";
  spec.time_budget_s = 2.0;
  spec.on_progress = [&costs_seen](const deploy::TracePoint& point,
                                   const deploy::Deployment& d) {
    EXPECT_FALSE(d.empty());
    costs_seen.push_back(point.cost);
  };
  auto solve = session.Solve(spec);
  ASSERT_TRUE(solve.ok());
  ASSERT_FALSE(costs_seen.empty());
  for (size_t i = 1; i < costs_seen.size(); ++i) {
    EXPECT_LE(costs_seen[i], costs_seen[i - 1] + 1e-9);
  }
  EXPECT_DOUBLE_EQ(costs_seen.back(), solve->cost_ms);
}

TEST(DeploymentSessionTest, CancellationStopsR2MidBudget) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 31);
  graph::CommGraph app = graph::Mesh2D(4, 5);
  DeploymentSession session(&cloud, &app, FastOptions());
  ASSERT_TRUE(session.Measure().ok());

  SolveSpec spec;
  spec.method = "r2";
  spec.threads = 2;
  spec.time_budget_s = 30.0;  // far longer than the test may take

  Result<SessionSolve> solve = Status::Internal("not run");
  std::thread worker([&session, &spec, &solve] { solve = session.Solve(spec); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  spec.cancel.Cancel();
  worker.join();

  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  EXPECT_LT(solve->wall_s, 10.0) << "cancel must cut the 30 s budget short";
  EXPECT_TRUE(deploy::ValidateDeployment(app, solve->result.deployment,
                                         session.costs(), spec.objective)
                  .ok());
}

TEST(DeploymentSessionTest, CancellationStopsCpMidBudget) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 37);
  graph::CommGraph app = graph::Mesh2D(5, 6);
  DeploymentSession session(&cloud, &app, FastOptions());
  ASSERT_TRUE(session.Measure().ok());

  SolveSpec spec;
  spec.method = "cp";
  spec.cost_clusters = 0;  // many thresholds: keeps the descent busy
  spec.time_budget_s = 30.0;

  Result<SessionSolve> solve = Status::Internal("not run");
  std::thread worker([&session, &spec, &solve] { solve = session.Solve(spec); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  spec.cancel.Cancel();
  worker.join();

  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  EXPECT_LT(solve->wall_s, 10.0) << "cancel must cut the 30 s budget short";
  EXPECT_TRUE(deploy::ValidateDeployment(app, solve->result.deployment,
                                         session.costs(), spec.objective)
                  .ok());
}

TEST(DeploymentSessionTest, MeasureAbortsOnPreCancelledToken) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 43);
  graph::CommGraph app = graph::Mesh2D(3, 4);
  SessionOptions options = FastOptions();
  options.cancel.Cancel();
  DeploymentSession session(&cloud, &app, options);
  Status measured = session.Measure();
  ASSERT_FALSE(measured.ok());
  EXPECT_EQ(measured.code(), StatusCode::kCancelled);
  EXPECT_FALSE(session.measured_stage_done());
}

TEST(DeploymentSessionTest, CancellationAbortsMeasureMidFlight) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 47);
  graph::CommGraph app = graph::Mesh2D(4, 5);
  SessionOptions options = FastOptions();
  // A day of virtual measurement: hours of wall time if cancellation failed
  // to cut it short (the assertion below would then fail loudly).
  options.measure_duration_s = 24.0 * 3600.0;
  DeploymentSession session(&cloud, &app, options);

  Stopwatch wall;
  Status measured = Status::OK();
  std::thread worker([&session, &measured] { measured = session.Measure(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  options.cancel.Cancel();
  worker.join();

  ASSERT_FALSE(measured.ok());
  EXPECT_EQ(measured.code(), StatusCode::kCancelled);
  EXPECT_LT(wall.ElapsedSeconds(), 30.0)
      << "cancel must abort the in-flight measurement promptly";
  EXPECT_FALSE(session.measured_stage_done());
}

TEST(DeploymentSessionTest, AdoptMeasurementReusesAnotherSessionsMatrix) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 53);
  graph::CommGraph app = graph::Mesh2D(4, 5);
  DeploymentSession measured(&cloud, &app, FastOptions());
  ASSERT_TRUE(measured.Measure().ok());

  // A cloud-less session adopts the measurement and solves identically.
  DeploymentSession adopted(/*cloud=*/nullptr, &app, FastOptions());
  ASSERT_TRUE(adopted
                  .AdoptMeasurement(measured.allocated(), measured.costs(),
                                    measured.measure_virtual_s())
                  .ok());
  EXPECT_TRUE(adopted.allocated_stage_done());
  EXPECT_TRUE(adopted.measured_stage_done());
  EXPECT_EQ(adopted.costs(), measured.costs());

  SolveSpec spec;
  spec.method = "g2";
  spec.seed = 3;
  auto a = measured.Solve(spec);
  auto b = adopted.Solve(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->result.deployment, b->result.deployment);
  EXPECT_DOUBLE_EQ(a->cost_ms, b->cost_ms);

  // The adopted pool belongs to whoever measured it.
  EXPECT_FALSE(adopted.Terminate().ok());

  // Mismatched matrix/pool sizes fail cleanly.
  DeploymentSession bad(/*cloud=*/nullptr, &app, FastOptions());
  EXPECT_FALSE(
      bad.AdoptMeasurement(measured.allocated(), deploy::CostMatrix(3), 0.0)
          .ok());

  // A cloud-less session cannot allocate or measure on its own.
  DeploymentSession no_cloud(/*cloud=*/nullptr, &app, FastOptions());
  EXPECT_FALSE(no_cloud.Allocate().ok());
  EXPECT_FALSE(no_cloud.Measure().ok());
}

TEST(DeploymentSessionTest, ReAdoptionRefreshesTheMatrixInPlace) {
  // The redeployment re-solve path: when drift monitoring refreshes an
  // environment's matrix, the same session adopts the fresh costs and keeps
  // solving -- no new session per refresh.
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 59);
  graph::CommGraph app = graph::Mesh2D(4, 5);
  DeploymentSession measured(&cloud, &app, FastOptions());
  ASSERT_TRUE(measured.Measure().ok());

  DeploymentSession session(/*cloud=*/nullptr, &app, FastOptions());
  ASSERT_TRUE(session
                  .AdoptMeasurement(measured.allocated(), measured.costs(),
                                    measured.measure_virtual_s())
                  .ok());
  SolveSpec spec;
  spec.method = "g2";
  spec.seed = 3;
  auto stale = session.Solve(spec);
  ASSERT_TRUE(stale.ok());

  // "The network drifted": every link doubled.
  deploy::CostMatrix refreshed = measured.costs();
  for (int i = 0; i < refreshed.size(); ++i) {
    for (int j = 0; j < refreshed.size(); ++j) {
      if (i != j) refreshed.At(i, j) *= 2.0;
    }
  }
  ASSERT_TRUE(session
                  .AdoptMeasurement(measured.allocated(), refreshed,
                                    measured.measure_virtual_s())
                  .ok());
  EXPECT_EQ(session.costs(), refreshed);
  EXPECT_EQ(session.solves().size(), 1u) << "history survives re-adoption";

  auto fresh = session.Solve(spec);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(session.solves().size(), 2u);
  // Same deterministic solver on a uniformly doubled matrix: same plan,
  // doubled cost -- the re-solve really ran against the fresh matrix.
  EXPECT_EQ(fresh->result.deployment, stale->result.deployment);
  EXPECT_DOUBLE_EQ(fresh->cost_ms, 2.0 * stale->cost_ms);

  // Re-adoption still refuses the pools a session owns: the measuring
  // session allocated its own instances and must keep them.
  EXPECT_FALSE(measured
                   .AdoptMeasurement(measured.allocated(), refreshed,
                                     measured.measure_virtual_s())
                   .ok());
}

TEST(DeploymentSessionTest, SharedIncumbentCellCarriesSolutionsAcrossSolves) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 59);
  graph::CommGraph app = graph::Mesh2D(4, 5);
  DeploymentSession session(&cloud, &app, FastOptions());
  ASSERT_TRUE(session.Measure().ok());

  auto cell = std::make_shared<deploy::SharedIncumbent>();
  SolveSpec spec;
  spec.method = "local";
  spec.time_budget_s = 1.0;
  spec.shared_incumbent = cell;
  auto solve = session.Solve(spec);
  ASSERT_TRUE(solve.ok());

  double cell_cost = 0.0;
  deploy::Deployment cell_deployment;
  ASSERT_TRUE(cell->Snapshot(&cell_cost, &cell_deployment));
  EXPECT_LE(cell_cost, solve->cost_ms + 1e-9);
  EXPECT_EQ(cell_deployment.size(), 20u);
}

// -- One solve path: DeploymentSession::Solve hands its SolveSpec to
// deploy::SolveNodeDeploymentByName as the options, so the session and the
// facade answer every spec identically.

// A cloud-less session that adopted a seeded random matrix over `m` instances.
struct AdoptedSession {
  AdoptedSession(const graph::CommGraph* app, int m, uint64_t seed)
      : costs([&] {
          Rng rng(seed);
          return deploy::RandomCosts(m, rng);
        }()),
        session(/*cloud=*/nullptr, app, FastOptions()) {
    std::vector<net::Instance> pool(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) pool[static_cast<size_t>(i)].id = i;
    CLOUDIA_CHECK(session.AdoptMeasurement(std::move(pool), costs).ok());
  }

  deploy::CostMatrix costs;
  DeploymentSession session;
};

// The facade call the session makes for `spec`: same name, same options,
// a context with the spec's budget and thread cap.
Result<deploy::NdpSolveResult> SolveThroughFacade(
    const graph::CommGraph& app, const deploy::CostMatrix& costs,
    const SolveSpec& spec) {
  deploy::SolveContext context(Deadline::After(spec.time_budget_s));
  context.set_max_threads(spec.threads);
  return deploy::SolveNodeDeploymentByName(app, costs, spec.method, spec,
                                           context);
}

TEST(SessionFacadeAgreementTest, FixedWorkSolversMatchTheFacade) {
  graph::CommGraph app = graph::Mesh2D(4, 5);
  AdoptedSession adopted(&app, 22, 17);
  for (const char* method : {"g1", "g2", "r1"}) {
    SolveSpec spec;
    spec.method = method;
    spec.seed = 9;
    auto via_session = adopted.session.Solve(spec);
    auto via_facade = SolveThroughFacade(app, adopted.costs, spec);
    ASSERT_TRUE(via_session.ok()) << method << ": "
                                  << via_session.status().ToString();
    ASSERT_TRUE(via_facade.ok()) << method << ": "
                                 << via_facade.status().ToString();
    EXPECT_EQ(via_session->method, method);
    EXPECT_EQ(via_session->result.deployment, via_facade->deployment)
        << method;
    EXPECT_EQ(via_session->cost_ms, via_facade->cost) << method;
  }
}

TEST(SessionFacadeAgreementTest, ExactSolversMatchTheFacadeWhenTheyProve) {
  graph::CommGraph app = graph::Mesh2D(2, 2);  // 4 nodes on 5 instances
  AdoptedSession adopted(&app, 5, 23);
  for (const char* method : {"cp", "mip"}) {
    SolveSpec spec;
    spec.method = method;
    spec.time_budget_s = 60.0;
    auto via_session = adopted.session.Solve(spec);
    auto via_facade = SolveThroughFacade(app, adopted.costs, spec);
    ASSERT_TRUE(via_session.ok()) << method << ": "
                                  << via_session.status().ToString();
    ASSERT_TRUE(via_facade.ok()) << method << ": "
                                 << via_facade.status().ToString();
    EXPECT_TRUE(via_session->result.proven_optimal) << method;
    EXPECT_TRUE(via_facade->proven_optimal) << method;
    EXPECT_EQ(via_session->result.deployment, via_facade->deployment)
        << method;
    EXPECT_EQ(via_session->cost_ms, via_facade->cost) << method;
  }
}

TEST(SessionFacadeAgreementTest, SpecKnobsReachTheSolver) {
  graph::CommGraph app = graph::Mesh2D(3, 4);
  AdoptedSession adopted(&app, 14, 29);

  SolveSpec r1;
  r1.method = "r1";
  r1.r1_samples = 37;
  auto sampled = adopted.session.Solve(r1);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  EXPECT_EQ(sampled->result.iterations, 37);

  // hier rejects itself as the shard solver; the session reports hier's own
  // error, as the facade does.
  SolveSpec hier;
  hier.method = "hier";
  hier.hier_shard_solver = "hier";
  auto recursive = adopted.session.Solve(hier);
  ASSERT_FALSE(recursive.ok());
  EXPECT_EQ(recursive.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(recursive.status().message().find(
                "hier cannot use itself as the shard solver"),
            std::string::npos)
      << recursive.status().ToString();
  EXPECT_EQ(recursive.status().ToString(),
            SolveThroughFacade(app, adopted.costs, hier).status().ToString());
}

TEST(SessionFacadeAgreementTest, CpRejectsLongestPathWithTheSameError) {
  graph::CommGraph app = graph::AggregationTree(3, 2);  // 4 nodes, a DAG
  AdoptedSession adopted(&app, 6, 31);
  SolveSpec spec;
  spec.method = "cp";
  spec.objective = deploy::Objective::kLongestPath;
  auto solve = adopted.session.Solve(spec);
  ASSERT_FALSE(solve.ok());
  EXPECT_EQ(solve.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(solve.status().message().find("not formulated for"),
            std::string::npos)
      << solve.status().ToString();
  EXPECT_EQ(solve.status().ToString(),
            SolveThroughFacade(app, adopted.costs, spec).status().ToString());
  EXPECT_TRUE(adopted.session.solves().empty());
}

TEST(SessionFacadeAgreementTest, DefaultsArePinned) {
  const SolveSpec spec;
  EXPECT_EQ(spec.method, "cp");
  EXPECT_EQ(spec.cost_clusters, 20);
  const deploy::NdpSolveOptions options;
  EXPECT_EQ(options.cost_clusters, 0);
  // Every other knob keeps the solver layer's default.
  EXPECT_EQ(spec.time_budget_s, options.time_budget_s);
  EXPECT_EQ(spec.r1_samples, options.r1_samples);
  EXPECT_EQ(spec.threads, options.threads);
  EXPECT_EQ(spec.seed, options.seed);
  EXPECT_EQ(spec.hier_polish_steps, options.hier_polish_steps);
}

}  // namespace
}  // namespace cloudia
