// End-to-end checks of the advisor pipeline (paper Fig. 3: allocate ->
// measure -> search -> terminate) on DeploymentSession, the one pipeline
// entry: allocation/termination counts, the runtime win on a real workload,
// zero over-allocation, every paper method and MIP on an LPNDP tree.
#include <gtest/gtest.h>

#include <set>

#include "cloudia/session.h"
#include "graph/templates.h"
#include "workloads/behavioral.h"

namespace cloudia {
namespace {

SessionOptions FastOptions() {
  SessionOptions options;
  options.measure_duration_s = 20.0;  // virtual seconds; keeps tests quick
  options.seed = 7;
  return options;
}

TEST(AdvisorPipelineTest, FullPipelineAllocatesPlacesAndTerminates) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 11);
  graph::CommGraph app = graph::Mesh2D(5, 6);  // 30 nodes
  DeploymentSession session(&cloud, &app, FastOptions());
  SolveSpec spec;
  spec.time_budget_s = 2.0;
  spec.seed = 7;
  auto solve = session.Solve(spec);
  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  auto terminated = session.Terminate(*solve);
  ASSERT_TRUE(terminated.ok()) << terminated.status().ToString();

  EXPECT_EQ(session.allocated().size(), 33u);  // 30 * 1.1
  EXPECT_EQ(solve->placement.size(), 30u);
  EXPECT_EQ(terminated->size(), 3u);

  // Placement instances are distinct and drawn from the allocation.
  std::set<int> placed;
  std::set<int> allocated;
  for (const auto& inst : session.allocated()) allocated.insert(inst.id);
  for (const auto& inst : solve->placement) {
    EXPECT_TRUE(placed.insert(inst.id).second);
    EXPECT_TRUE(allocated.count(inst.id));
  }
  // Terminated = allocated \ placed.
  for (const auto& inst : *terminated) EXPECT_FALSE(placed.count(inst.id));
  EXPECT_GT(session.measure_virtual_s(), 0);
  EXPECT_GE(solve->predicted_improvement, 0.0);
  EXPECT_LE(solve->cost_ms, solve->default_cost_ms + 1e-9);
}

TEST(AdvisorPipelineTest, OptimizedDeploymentImprovesRealWorkload) {
  // The whole point of the paper: the plan must beat the default deployment
  // (node i on allocated()[i]) on actual application runtime, not just on
  // predicted cost.
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 13);
  graph::CommGraph app = graph::Mesh2D(5, 6);
  DeploymentSession session(&cloud, &app, FastOptions());
  SolveSpec spec;
  spec.time_budget_s = 3.0;
  spec.seed = 7;
  auto solve = session.Solve(spec);
  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  const std::vector<net::Instance> default_placement(
      session.allocated().begin(),
      session.allocated().begin() + app.num_nodes());

  wl::BehavioralConfig wcfg;
  // Long enough that the deployment signal dominates burst-window noise.
  wcfg.ticks = 4000;
  wcfg.seed = 99;
  auto optimized =
      wl::RunBehavioralSimulation(cloud, app, solve->placement, wcfg);
  auto fallback =
      wl::RunBehavioralSimulation(cloud, app, default_placement, wcfg);
  ASSERT_TRUE(optimized.ok() && fallback.ok());
  EXPECT_LT(optimized->primary_ms, fallback->primary_ms)
      << "optimized deployment should reduce time-to-solution";
}

TEST(AdvisorPipelineTest, RejectsDegenerateInput) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 17);
  auto one = graph::CommGraph::Create(1, {});
  DeploymentSession single(&cloud, &*one, FastOptions());
  EXPECT_FALSE(single.Solve(SolveSpec{}).ok());

  SessionOptions bad = FastOptions();
  bad.over_allocation = -0.5;
  graph::CommGraph app = graph::Mesh2D(2, 2);
  DeploymentSession negative(&cloud, &app, bad);
  EXPECT_FALSE(negative.Solve(SolveSpec{}).ok());
}

TEST(AdvisorPipelineTest, ZeroOverAllocationStillImprovesViaInjection) {
  // Paper Fig. 13: even with no extra instances, a better injection of
  // nodes onto the same instances already helps (16% there).
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 19);
  graph::CommGraph app = graph::Mesh2D(4, 5);
  SessionOptions options = FastOptions();
  options.over_allocation = 0.0;
  DeploymentSession session(&cloud, &app, options);
  SolveSpec spec;
  spec.time_budget_s = 2.0;
  spec.seed = 7;
  auto solve = session.Solve(spec);
  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  auto terminated = session.Terminate(*solve);
  ASSERT_TRUE(terminated.ok());
  EXPECT_EQ(session.allocated().size(), 20u);
  EXPECT_TRUE(terminated->empty());
  EXPECT_LE(solve->cost_ms, solve->default_cost_ms + 1e-9);
}

TEST(AdvisorPipelineTest, EveryPaperMethodSolvesTheMeasuredMatrix) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 23);
  graph::CommGraph app = graph::Mesh2D(3, 4);
  DeploymentSession session(&cloud, &app, FastOptions());
  for (const char* method : {"g1", "g2", "r1", "r2", "cp", "mip"}) {
    SolveSpec spec;
    spec.method = method;
    spec.time_budget_s = 1.0;
    spec.seed = 7;
    auto solve = session.Solve(spec);
    ASSERT_TRUE(solve.ok()) << method << ": " << solve.status().ToString();
    EXPECT_EQ(solve->placement.size(), 12u) << method;
  }
}

TEST(AdvisorPipelineTest, MipSolvesLongestPathOnATree) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), 29);
  graph::CommGraph tree = graph::AggregationTree(3, 3);  // 13 nodes
  DeploymentSession session(&cloud, &tree, FastOptions());
  SolveSpec spec;
  spec.method = "mip";
  spec.objective = deploy::Objective::kLongestPath;
  spec.cost_clusters = 0;  // paper: clustering does not help LPNDP
  spec.time_budget_s = 2.0;
  spec.seed = 7;
  auto solve = session.Solve(spec);
  ASSERT_TRUE(solve.ok()) << solve.status().ToString();
  EXPECT_LE(solve->cost_ms, solve->default_cost_ms + 1e-9);
}

}  // namespace
}  // namespace cloudia
