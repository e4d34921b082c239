#include <gtest/gtest.h>

#include "deploy/mip_ndp.h"
#include "deploy/random_search.h"
#include "deploy_test_util.h"
#include "graph/templates.h"
#include "obs/trace.h"

namespace cloudia::deploy {
namespace {

TEST(MipLlndpTest, OptimalOnTinyInstancesVsBruteForce) {
  Rng master(3);
  for (int trial = 0; trial < 6; ++trial) {
    int n = 4;
    int m = 6;
    graph::CommGraph g = graph::RandomSymmetric(n, 2.0, master);
    CostMatrix costs = RandomCosts(m, master);
    MipNdpOptions opts;
    opts.seed = master.Next();
    auto r = SolveLlndpMip(g, costs, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->proven_optimal) << "trial " << trial;
    double expected = BruteForceOptimum(g, costs, Objective::kLongestLink);
    EXPECT_NEAR(r->cost, expected, 1e-6) << "trial " << trial;
  }
}

TEST(MipLlndpTest, NeverWorseThanBootstrapUnderDeadline) {
  Rng master(5);
  graph::CommGraph mesh = graph::Mesh2D(3, 3);
  CostMatrix costs = RandomCosts(11, master);
  MipNdpOptions opts;
  opts.seed = 7;
  opts.deadline = Deadline::After(0.5);
  auto r = SolveLlndpMip(mesh, costs, opts);
  ASSERT_TRUE(r.ok());
  auto boot = BootstrapDeployment(mesh, costs, Objective::kLongestLink, 7);
  EXPECT_LE(r->cost, LongestLinkCost(mesh, *boot, costs) + 1e-9);
  EXPECT_TRUE(ValidateDeployment(mesh, r->deployment, costs,
                                 Objective::kLongestLink)
                  .ok());
}

TEST(MipLlndpTest, EdgelessGraphTrivial) {
  Rng master(7);
  auto g = graph::CommGraph::Create(2, {});
  CostMatrix costs = RandomCosts(4, master);
  auto r = SolveLlndpMip(*g, costs, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->proven_optimal);
  EXPECT_DOUBLE_EQ(r->cost, 0.0);
}

TEST(MipLpndpTest, OptimalOnTinyDagsVsBruteForce) {
  Rng master(11);
  for (int trial = 0; trial < 6; ++trial) {
    graph::CommGraph g = graph::RandomDag(4, 0.5, master);
    CostMatrix costs = RandomCosts(6, master);
    MipNdpOptions opts;
    opts.seed = master.Next();
    auto r = SolveLpndpMip(g, costs, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->proven_optimal) << "trial " << trial;
    double expected = BruteForceOptimum(g, costs, Objective::kLongestPath);
    EXPECT_NEAR(r->cost, expected, 1e-6) << "trial " << trial;
  }
}

TEST(MipLpndpTest, AggregationTreeImprovesOverBootstrap) {
  Rng master(13);
  graph::CommGraph tree = graph::AggregationTree(2, 3);  // 7 nodes
  CostMatrix costs = RandomCosts(9, master);
  MipNdpOptions opts;
  opts.seed = 3;
  opts.deadline = Deadline::After(2.0);
  auto r = SolveLpndpMip(tree, costs, opts);
  ASSERT_TRUE(r.ok());
  auto boot = BootstrapDeployment(tree, costs, Objective::kLongestPath, 3);
  auto boot_cost = LongestPathCost(tree, *boot, costs);
  EXPECT_LE(r->cost, *boot_cost + 1e-9);
  EXPECT_TRUE(ValidateDeployment(tree, r->deployment, costs,
                                 Objective::kLongestPath)
                  .ok());
}

TEST(MipLpndpTest, RejectsCyclicGraph) {
  Rng master(17);
  graph::CommGraph ring = graph::Ring(4);
  CostMatrix costs = RandomCosts(6, master);
  EXPECT_FALSE(SolveLpndpMip(ring, costs, {}).ok());
}

TEST(MipNdpTest, TraceImprovesMonotonically) {
  Rng master(19);
  graph::CommGraph mesh = graph::Mesh2D(2, 3);
  CostMatrix costs = RandomCosts(8, master);
  MipNdpOptions opts;
  opts.seed = 23;
  auto r = SolveLlndpMip(mesh, costs, opts);
  ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < r->trace.size(); ++i) {
    EXPECT_LT(r->trace[i].cost, r->trace[i - 1].cost);
  }
  EXPECT_DOUBLE_EQ(r->trace.back().cost, r->cost);
}

// Six-node instances on seven instances: big enough that the LP work per
// node shows, small enough for the brute-force oracle.
TEST(MipLlndpTest, SixNodeMeshProvenOptimalVsBruteForce) {
  Rng master(53);
  graph::CommGraph mesh = graph::Mesh2D(2, 3);
  for (int trial = 0; trial < 3; ++trial) {
    CostMatrix costs = RandomCosts(7, master);
    MipNdpOptions opts;
    opts.seed = master.Next();
    auto r = SolveLlndpMip(mesh, costs, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->proven_optimal) << "trial " << trial;
    EXPECT_NEAR(r->cost,
                BruteForceOptimum(mesh, costs, Objective::kLongestLink), 1e-6)
        << "trial " << trial;
  }
}

TEST(MipLpndpTest, SixNodeDagProvenOptimalVsBruteForce) {
  Rng master(59);
  for (int trial = 0; trial < 3; ++trial) {
    graph::CommGraph dag = graph::RandomDag(6, 0.4, master);
    CostMatrix costs = RandomCosts(7, master);
    MipNdpOptions opts;
    opts.seed = master.Next();
    auto r = SolveLpndpMip(dag, costs, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->proven_optimal) << "trial " << trial;
    EXPECT_NEAR(r->cost,
                BruteForceOptimum(dag, costs, Objective::kLongestPath), 1e-6)
        << "trial " << trial;
  }
}

// The cut-pool bound documented in solver/mip/branch_and_bound.cc: the LP
// holds at most its model rows plus one cut per column, plus one round's
// batch, however many cuts the pool collects.
TEST(MipNdpTest, LpRowsStayBoundedWhileCutsAccumulate) {
  Rng master(41);
  graph::CommGraph mesh = graph::Mesh2D(4, 4);
  const int n = mesh.num_nodes();
  const int m = 20;
  CostMatrix costs = RandomCosts(m, master);
  MipNdpOptions opts;
  opts.seed = 43;
  opts.max_nodes = 200;
  obs::Tracer tracer;
  SolveContext context;
  context.set_obs(&tracer, 0, "mip");
  auto r = SolveLlndpMip(mesh, costs, opts, context);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const obs::TraceEvent* summary = nullptr;
  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  for (const obs::TraceEvent& e : events) {
    if (e.name == "mip.summary") summary = &e;
  }
  ASSERT_NE(summary, nullptr);
  auto arg = [&](const std::string& key) {
    for (const obs::TraceArg& a : summary->args) {
      if (a.key == key) return a.number;
    }
    ADD_FAILURE() << "no " << key;
    return 0.0;
  };
  // Assignment rows (n + m) plus one cut per column (n * m x's and c) plus
  // one batch of lazy rows.
  const double bound = (n + m) + (n * m + 1) + opts.max_lazy_rows_per_round;
  EXPECT_EQ(arg("nodes"), 200.0);
  EXPECT_LT(arg("max_lp_rows"), bound);
  EXPECT_GT(arg("lazy_rows"), bound);
}

TEST(MipNdpTest, ZeroDeadlineReturnsBootstrap) {
  Rng master(23);
  graph::CommGraph mesh = graph::Mesh2D(2, 3);
  CostMatrix costs = RandomCosts(8, master);
  MipNdpOptions opts;
  opts.deadline = Deadline::After(0);
  opts.seed = 29;
  auto r = SolveLlndpMip(mesh, costs, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->proven_optimal);
  EXPECT_FALSE(r->deployment.empty());
}

TEST(MipNdpTest, ClusteringStillYieldsValidDeployments) {
  Rng master(31);
  graph::CommGraph mesh = graph::Mesh2D(2, 2);
  CostMatrix costs = RandomCosts(6, master);
  MipNdpOptions opts;
  opts.cost_clusters = 4;
  opts.seed = 37;
  opts.deadline = Deadline::After(2.0);
  auto r = SolveLlndpMip(mesh, costs, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(ValidateDeployment(mesh, r->deployment, costs,
                                 Objective::kLongestLink)
                  .ok());
}

}  // namespace
}  // namespace cloudia::deploy
