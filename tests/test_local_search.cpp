#include <gtest/gtest.h>

#include "deploy/local_search.h"
#include "deploy/random_search.h"
#include "deploy/solve.h"
#include "deploy_test_util.h"
#include "graph/templates.h"

namespace cloudia::deploy {
namespace {

TEST(LocalSearchTest, ProducesValidDeploymentBothObjectives) {
  Rng master(1);
  graph::CommGraph mesh = graph::Mesh2D(3, 3);
  graph::CommGraph tree = graph::AggregationTree(2, 3);
  CostMatrix costs = RandomCosts(12, master);
  for (auto [g, obj] :
       {std::pair{&mesh, Objective::kLongestLink},
        std::pair{&tree, Objective::kLongestPath}}) {
    LocalSearchOptions opts;
    opts.seed = 5;
    auto r = SolveLocalSearch(*g, costs, obj, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(ValidateDeployment(*g, r->deployment, costs, obj).ok());
  }
}

TEST(LocalSearchTest, NeverWorseThanBootstrap) {
  Rng master(2);
  graph::CommGraph mesh = graph::Mesh2D(3, 4);
  CostMatrix costs = RandomCosts(15, master);
  auto boot = BootstrapDeployment(mesh, costs, Objective::kLongestLink, 7);
  LocalSearchOptions opts;
  opts.seed = 7;
  auto r = SolveLocalSearch(mesh, costs, Objective::kLongestLink, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->cost, LongestLinkCost(mesh, *boot, costs) + 1e-12);
}

TEST(LocalSearchTest, ReachesLocalOptimumNoImprovingSwap) {
  Rng master(3);
  graph::CommGraph mesh = graph::Mesh2D(2, 3);
  CostMatrix costs = RandomCosts(8, master);
  LocalSearchOptions opts;
  opts.seed = 9;
  opts.max_restarts = 0;
  auto r = SolveLocalSearch(mesh, costs, Objective::kLongestLink, opts);
  ASSERT_TRUE(r.ok());
  // Verify local optimality: no single swap of two nodes improves.
  auto eval =
      CostEvaluator::Create(&mesh, &costs, Objective::kLongestLink);
  Deployment d = r->deployment;
  for (size_t a = 0; a < d.size(); ++a) {
    for (size_t b = a + 1; b < d.size(); ++b) {
      std::swap(d[a], d[b]);
      EXPECT_GE(eval->Cost(d), r->cost - 1e-12);
      std::swap(d[a], d[b]);
    }
  }
}

TEST(LocalSearchTest, FindsOptimumOnTinyInstancesWithRestarts) {
  Rng master(4);
  int hits = 0;
  for (int trial = 0; trial < 8; ++trial) {
    graph::CommGraph g = graph::RandomSymmetric(5, 2.0, master);
    CostMatrix costs = RandomCosts(7, master);
    LocalSearchOptions opts;
    opts.seed = master.Next();
    opts.max_restarts = 20;
    auto r = SolveLocalSearch(g, costs, Objective::kLongestLink, opts);
    ASSERT_TRUE(r.ok());
    double best = BruteForceOptimum(g, costs, Objective::kLongestLink);
    EXPECT_GE(r->cost, best - 1e-12);
    if (r->cost <= best + 1e-9) ++hits;
  }
  EXPECT_GE(hits, 6) << "multi-start should usually find tiny optima";
}

TEST(LocalSearchTest, DeadlineRespected) {
  Rng master(5);
  graph::CommGraph mesh = graph::Mesh2D(4, 5);
  CostMatrix costs = RandomCosts(25, master);
  LocalSearchOptions opts;
  opts.deadline = Deadline::After(0);
  opts.seed = 11;
  auto r = SolveLocalSearch(mesh, costs, Objective::kLongestLink, opts);
  ASSERT_TRUE(r.ok());  // returns the bootstrap deployment
  EXPECT_FALSE(r->deployment.empty());
}

TEST(LocalSearchTest, UsableThroughTheFacade) {
  Rng master(6);
  graph::CommGraph mesh = graph::Mesh2D(3, 3);
  CostMatrix costs = RandomCosts(11, master);
  NdpSolveOptions opts;
  opts.seed = 13;
  SolveContext context(Deadline::After(1.0));
  auto r = SolveNodeDeploymentByName(mesh, costs, "LocalSearch", opts, context);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(ValidateDeployment(mesh, r->deployment, costs,
                                 Objective::kLongestLink)
                  .ok());
}

TEST(LocalSearchTest, BeatsR1OnAverage) {
  // Hill climbing from the same bootstrap should beat pure random sampling
  // of equal effort on most instances.
  Rng master(7);
  double ls_total = 0, r1_total = 0;
  graph::CommGraph mesh = graph::Mesh2D(3, 4);
  for (int trial = 0; trial < 6; ++trial) {
    CostMatrix costs = RandomCosts(14, master);
    uint64_t seed = master.Next();
    LocalSearchOptions opts;
    opts.seed = seed;
    opts.max_restarts = 4;
    auto ls = SolveLocalSearch(mesh, costs, Objective::kLongestLink, opts);
    auto r1 = RandomSearchR1(mesh, costs, Objective::kLongestLink, 500, seed);
    ASSERT_TRUE(ls.ok() && r1.ok());
    ls_total += ls->cost;
    r1_total += r1->cost;
  }
  EXPECT_LT(ls_total, r1_total);
}

}  // namespace
}  // namespace cloudia::deploy
