#include "deploy/portfolio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "cloudia/session.h"
#include "common/timer.h"
#include "deploy/solve.h"
#include "deploy/solver_registry.h"
#include "deploy_test_util.h"
#include "graph/templates.h"
#include "netsim/cloud.h"

namespace cloudia::deploy {
namespace {

// Deterministic member set: g1 and r1 ignore the budget entirely and local
// search stops after its restarts, so results depend only on the seed (and,
// with one thread, on the FIFO execution order) -- never on wall-clock speed.
const std::vector<std::string> kDeterministicMembers = {"g1", "r1", "local"};

NdpSolveOptions DeterministicOptions(uint64_t seed, int threads) {
  NdpSolveOptions options;
  options.objective = Objective::kLongestLink;
  options.portfolio_members = kDeterministicMembers;
  options.threads = threads;
  options.r1_samples = 200;
  options.seed = seed;
  return options;
}

Result<NdpSolveResult> RunByName(const graph::CommGraph& graph,
                                 const CostMatrix& costs,
                                 const std::string& method,
                                 const NdpSolveOptions& options,
                                 double budget_s) {
  SolveContext context(Deadline::After(budget_s));
  return SolveNodeDeploymentByName(graph, costs, method, options, context);
}

TEST(PortfolioTest, RegistryExposesThePortfolio) {
  const NdpSolver* solver = SolverRegistry::Global().Find("portfolio");
  ASSERT_NE(solver, nullptr);
  EXPECT_STREQ(solver->name(), "portfolio");
  EXPECT_STREQ(solver->display_name(), "Portfolio");
  EXPECT_TRUE(solver->Supports(Objective::kLongestLink));
  EXPECT_TRUE(solver->Supports(Objective::kLongestPath));
  EXPECT_EQ(SolverRegistry::Global().Find("Portfolio"), solver);

  bool listed = false;
  for (const std::string& name : SolverRegistry::Global().Names()) {
    if (name == "portfolio") listed = true;
  }
  EXPECT_TRUE(listed) << "--help discovers methods through Names()";
}

TEST(PortfolioTest, DeterministicUnderFixedSeedAndSingleThread) {
  Rng rng(91);
  CostMatrix costs = RandomCosts(12, rng);
  graph::CommGraph mesh = graph::Mesh2D(3, 3);

  auto first = RunByName(mesh, costs, "portfolio",
                         DeterministicOptions(/*seed=*/42, /*threads=*/1),
                         /*budget_s=*/30.0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (int repeat = 0; repeat < 2; ++repeat) {
    auto again = RunByName(mesh, costs, "portfolio",
                           DeterministicOptions(/*seed=*/42, /*threads=*/1),
                           /*budget_s=*/30.0);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->deployment, first->deployment) << "repeat " << repeat;
    EXPECT_DOUBLE_EQ(again->cost, first->cost) << "repeat " << repeat;
  }
}

TEST(PortfolioTest, NeverWorseThanItsMembersRunSolo) {
  // The acceptance property on 20 randomized instances: the portfolio's
  // incumbent is at most the best of its members run alone with the same
  // seed and budget (members here finish well inside the budget, so the
  // wall clock cannot bias the comparison).
  for (uint64_t instance_seed = 1; instance_seed <= 20; ++instance_seed) {
    Rng rng(instance_seed);
    CostMatrix costs = RandomCosts(10, rng);
    graph::CommGraph mesh = graph::Mesh2D(2, 4);

    double best_solo = std::numeric_limits<double>::infinity();
    for (const std::string& member : kDeterministicMembers) {
      auto solo = RunByName(mesh, costs, member,
                            DeterministicOptions(/*seed=*/7, /*threads=*/1),
                            /*budget_s=*/30.0);
      ASSERT_TRUE(solo.ok()) << member << ": " << solo.status().ToString();
      best_solo = std::min(best_solo, solo->cost);
    }

    auto portfolio = RunByName(mesh, costs, "portfolio",
                               DeterministicOptions(/*seed=*/7, /*threads=*/2),
                               /*budget_s=*/30.0);
    ASSERT_TRUE(portfolio.ok()) << portfolio.status().ToString();
    EXPECT_LE(portfolio->cost, best_solo + 1e-9)
        << "instance seed " << instance_seed;
    EXPECT_TRUE(ValidateDeployment(mesh, portfolio->deployment, costs,
                                   Objective::kLongestLink)
                    .ok())
        << "instance seed " << instance_seed;
  }
}

TEST(PortfolioTest, MergedTraceIsMonotoneAndMatchesTheResult) {
  Rng rng(17);
  CostMatrix costs = RandomCosts(12, rng);
  graph::CommGraph mesh = graph::Mesh2D(3, 3);

  auto result = RunByName(mesh, costs, "portfolio",
                          DeterministicOptions(/*seed=*/3, /*threads=*/4),
                          /*budget_s=*/30.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->trace.empty());
  for (size_t i = 1; i < result->trace.size(); ++i) {
    EXPECT_LT(result->trace[i].cost, result->trace[i - 1].cost)
        << "global trace must be strictly improving";
    EXPECT_GE(result->trace[i].seconds, result->trace[i - 1].seconds);
  }
  EXPECT_DOUBLE_EQ(result->trace.back().cost, result->cost);
}

TEST(PortfolioTest, ProvenOptimalitySettlesTheRaceEarly) {
  // CP proves optimality on a tiny instance within milliseconds; that must
  // cancel the budget-bound r2 member instead of letting it spin for the
  // full 30 s budget.
  Rng rng(5);
  CostMatrix costs = RandomCosts(5, rng);
  graph::CommGraph mesh = graph::Mesh2D(2, 2);

  NdpSolveOptions options;
  options.portfolio_members = {"cp", "r2"};
  options.threads = 2;
  options.seed = 9;

  Stopwatch clock;
  auto result = RunByName(mesh, costs, "portfolio", options,
                          /*budget_s=*/30.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->proven_optimal);
  EXPECT_LT(clock.ElapsedSeconds(), 10.0)
      << "optimality must cancel the remaining members";
  EXPECT_NEAR(result->cost,
              BruteForceOptimum(mesh, costs, Objective::kLongestLink), 1e-9);
}

TEST(PortfolioTest, MidRunCancellationReleasesAllWorkers) {
  Rng rng(23);
  CostMatrix costs = RandomCosts(14, rng);
  graph::CommGraph mesh = graph::Mesh2D(3, 4);

  NdpSolveOptions options;
  options.portfolio_members = {"r2", "local", "r1"};
  options.threads = 4;
  options.seed = 13;

  CancelToken cancel;
  SolveContext context(Deadline::After(30.0), cancel);
  Result<NdpSolveResult> result = Status::Internal("not run");
  Stopwatch clock;
  std::thread solver_thread([&] {
    result = SolveNodeDeploymentByName(mesh, costs, "portfolio", options,
                                       context);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cancel.Cancel();
  // Solve() returning means every member (and the pool) wound down; a leaked
  // or deadlocked worker would hang this join until the 30 s budget -- or
  // forever. TSan (preset `tsan`) additionally checks the teardown is clean.
  solver_thread.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(clock.ElapsedSeconds(), 10.0)
      << "cancel must cut the 30 s budget short";
  EXPECT_TRUE(ValidateDeployment(mesh, result->deployment, costs,
                                 Objective::kLongestLink)
                  .ok());
}

TEST(PortfolioTest, LpndpObjectiveSkipsCpAndStillSolves) {
  // The default member set includes LLNDP-only CP; under longest-path it is
  // skipped while mip/local/r2 carry the race.
  Rng rng(29);
  CostMatrix costs = RandomCosts(10, rng);
  graph::CommGraph tree = graph::AggregationTree(2, 3);

  NdpSolveOptions options;
  options.objective = Objective::kLongestPath;
  options.threads = 2;
  options.seed = 3;
  auto result = RunByName(tree, costs, "portfolio", options, /*budget_s=*/2.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ValidateDeployment(tree, result->deployment, costs,
                                 Objective::kLongestPath)
                  .ok());
}

TEST(PortfolioTest, BadMemberConfigurationsFailCleanly) {
  Rng rng(31);
  CostMatrix costs = RandomCosts(6, rng);
  graph::CommGraph mesh = graph::Mesh2D(2, 2);

  NdpSolveOptions options;
  options.portfolio_members = {"annealing"};
  auto unknown = RunByName(mesh, costs, "portfolio", options, 1.0);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  options.portfolio_members = {"portfolio"};
  auto recursive = RunByName(mesh, costs, "portfolio", options, 1.0);
  ASSERT_FALSE(recursive.ok());
  EXPECT_EQ(recursive.status().code(), StatusCode::kInvalidArgument);

  // CP is the only requested member but cannot solve LPNDP: no member left.
  // (LPNDP needs an acyclic graph, hence the tree.)
  graph::CommGraph tree = graph::AggregationTree(2, 2);
  options.portfolio_members = {"cp"};
  options.objective = Objective::kLongestPath;
  auto unsupported = RunByName(tree, costs, "portfolio", options, 1.0);
  ASSERT_FALSE(unsupported.ok());
  EXPECT_EQ(unsupported.status().code(), StatusCode::kInvalidArgument);
}

TEST(PortfolioTest, SessionSolvesWithThePortfolio) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 43);
  graph::CommGraph app = graph::Mesh2D(3, 4);
  cloudia::SessionOptions session_options;
  session_options.measure_duration_s = 20.0;
  session_options.seed = 7;
  cloudia::DeploymentSession session(&cloud, &app, session_options);

  cloudia::SolveSpec spec;
  spec.method = "portfolio";
  spec.portfolio_members = {"g2", "local", "r1"};
  spec.threads = 2;
  spec.time_budget_s = 10.0;
  spec.seed = 11;
  auto solve = session.Solve(spec);
  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  EXPECT_EQ(solve->method, "portfolio");
  EXPECT_EQ(solve->placement.size(), 12u);
  EXPECT_TRUE(ValidateDeployment(app, solve->result.deployment,
                                 session.costs(), spec.objective)
                  .ok());
  EXPECT_LE(solve->cost_ms, solve->default_cost_ms + 1e-9);
}

}  // namespace
}  // namespace cloudia::deploy
