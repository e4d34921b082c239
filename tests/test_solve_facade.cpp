#include <gtest/gtest.h>

#include <utility>

#include "deploy/solve.h"
#include "deploy/solver_registry.h"
#include "deploy_test_util.h"
#include "graph/templates.h"

namespace cloudia::deploy {
namespace {

// The registry solver an enum value dispatches to.
const NdpSolver* SolverFor(Method method) {
  return SolverRegistry::Global().Find(MethodKey(method));
}

class SolveFacadeTest : public ::testing::TestWithParam<Method> {};

TEST_P(SolveFacadeTest, LongestLinkProducesValidDeployment) {
  Rng master(1);
  graph::CommGraph mesh = graph::Mesh2D(3, 3);
  CostMatrix costs = RandomCosts(12, master);
  NdpSolveOptions opts;
  opts.method = GetParam();
  opts.objective = Objective::kLongestLink;
  opts.time_budget_s = 0.3;
  opts.r1_samples = 200;
  opts.threads = 2;
  opts.seed = 11;
  auto r = SolveNodeDeployment(mesh, costs, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(ValidateDeployment(mesh, r->deployment, costs,
                                 Objective::kLongestLink)
                  .ok());
  EXPECT_DOUBLE_EQ(r->cost, LongestLinkCost(mesh, r->deployment, costs));
  EXPECT_FALSE(r->trace.empty());
}

TEST_P(SolveFacadeTest, LongestPathProducesValidDeployment) {
  if (GetParam() == Method::kCp) GTEST_SKIP() << "CP is LLNDP-only";
  Rng master(2);
  graph::CommGraph tree = graph::AggregationTree(2, 3);
  CostMatrix costs = RandomCosts(9, master);
  NdpSolveOptions opts;
  opts.method = GetParam();
  opts.objective = Objective::kLongestPath;
  opts.time_budget_s = 0.3;
  opts.r1_samples = 200;
  opts.threads = 2;
  opts.seed = 13;
  auto r = SolveNodeDeployment(tree, costs, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(ValidateDeployment(tree, r->deployment, costs,
                                 Objective::kLongestPath)
                  .ok());
  auto check = LongestPathCost(tree, r->deployment, costs);
  EXPECT_DOUBLE_EQ(r->cost, *check);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SolveFacadeTest,
                         ::testing::Values(Method::kGreedyG1, Method::kGreedyG2,
                                           Method::kRandomR1, Method::kRandomR2,
                                           Method::kCp, Method::kMip),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           return SolverFor(info.param)->display_name();
                         });

TEST(SolveFacadeTest2, CpRejectsLongestPath) {
  Rng master(3);
  graph::CommGraph tree = graph::AggregationTree(2, 3);
  CostMatrix costs = RandomCosts(9, master);
  NdpSolveOptions opts;
  opts.method = Method::kCp;
  opts.objective = Objective::kLongestPath;
  auto r = SolveNodeDeployment(tree, costs, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolveFacadeTest2, LongestPathRejectsCyclicGraph) {
  Rng master(4);
  graph::CommGraph ring = graph::Ring(5);
  CostMatrix costs = RandomCosts(7, master);
  NdpSolveOptions opts;
  opts.method = Method::kRandomR1;
  opts.objective = Objective::kLongestPath;
  EXPECT_FALSE(SolveNodeDeployment(ring, costs, opts).ok());
}

TEST(SolveFacadeTest2, CpBeatsOrMatchesLightweightOnSmallMesh) {
  // Qualitative Fig. 14 shape at toy scale: CP <= R1, G2 <= G1 on average.
  Rng master(5);
  double cp = 0, r1 = 0, g1 = 0, g2 = 0;
  graph::CommGraph mesh = graph::Mesh2D(3, 3);
  for (int trial = 0; trial < 8; ++trial) {
    CostMatrix costs = RandomCosts(11, master);
    NdpSolveOptions opts;
    opts.objective = Objective::kLongestLink;
    opts.seed = master.Next();
    opts.time_budget_s = 1.0;
    opts.method = Method::kCp;
    auto rcp = SolveNodeDeployment(mesh, costs, opts);
    opts.method = Method::kRandomR1;
    opts.r1_samples = 1000;
    auto rr1 = SolveNodeDeployment(mesh, costs, opts);
    opts.method = Method::kGreedyG1;
    auto rg1 = SolveNodeDeployment(mesh, costs, opts);
    opts.method = Method::kGreedyG2;
    auto rg2 = SolveNodeDeployment(mesh, costs, opts);
    ASSERT_TRUE(rcp.ok() && rr1.ok() && rg1.ok() && rg2.ok());
    cp += rcp->cost;
    r1 += rr1->cost;
    g1 += rg1->cost;
    g2 += rg2->cost;
  }
  EXPECT_LE(cp, r1 + 1e-9);
  EXPECT_LE(g2, g1 + 1e-9);
  EXPECT_LE(cp, g2 + 1e-9);
}

TEST(SolveFacadeTest2, EveryMethodDispatchesToARegisteredSolver) {
  // The display names are the labels the paper-figure benches print.
  const std::pair<Method, const char*> expected[] = {
      {Method::kGreedyG1, "G1"},
      {Method::kGreedyG2, "G2"},
      {Method::kRandomR1, "R1"},
      {Method::kRandomR2, "R2"},
      {Method::kCp, "CP"},
      {Method::kMip, "MIP"},
      {Method::kLocalSearch, "LocalSearch"},
      {Method::kPortfolio, "Portfolio"},
      {Method::kHier, "Hier"}};
  for (const auto& [method, display] : expected) {
    const NdpSolver* solver = SolverFor(method);
    ASSERT_NE(solver, nullptr) << display;
    EXPECT_STREQ(solver->name(), MethodKey(method));
    EXPECT_STREQ(solver->display_name(), display);
  }
}

TEST(SolveFacadeTest2, UnknownMethodErrorListsRegisteredSolvers) {
  Rng master(1);
  graph::CommGraph mesh = graph::Mesh2D(2, 3);
  CostMatrix costs = RandomCosts(8, master);
  NdpSolveOptions opts;
  SolveContext context(Deadline::After(0.1));
  auto r = SolveNodeDeploymentByName(mesh, costs, "flying-solver", opts,
                                     context);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // Not a bare "unknown method": the message names the typo and every
  // registered solver, so a caller can self-correct.
  const std::string& message = r.status().message();
  EXPECT_NE(message.find("flying-solver"), std::string::npos) << message;
  EXPECT_NE(message.find("known:"), std::string::npos) << message;
  for (const char* name :
       {"cp", "mip", "g1", "g2", "r1", "r2", "local", "portfolio"}) {
    EXPECT_NE(message.find(name), std::string::npos)
        << "missing '" << name << "' in: " << message;
  }
}

}  // namespace
}  // namespace cloudia::deploy
