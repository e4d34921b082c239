// Golden regression: every deterministic registered solver must return
// exactly these costs on fixed-seed instances. The values were recorded from
// the nested-vector CostMatrix implementation immediately before the flat
// row-major migration, so bitwise equality here proves the migration (and
// the incremental delta evaluation inside local search) changed no result.
//
// R2 and the portfolio are deliberately absent: both run until a wall-clock
// deadline, so their trajectories are machine-dependent by design. The same
// filter drops MIP cases that exhaust the budget instead of proving
// optimality (mesh3x4/tree3x2): only runs that terminate on their own are
// reproducible.
#include <gtest/gtest.h>

#include <string>

#include "deploy/solve.h"
#include "deploy_test_util.h"
#include "graph/templates.h"

namespace cloudia::deploy {
namespace {

struct GoldenCase {
  const char* fixture;
  const char* method;
  double cost;
  int cost_clusters = 4;
};

// Recorded 2026-07 from the pre-migration evaluator (seed state at commit
// "Race registered solvers concurrently..."); %.17g round-trips doubles.
constexpr GoldenCase kGolden[] = {
    {"mesh3x4-ll", "g1", 1.2673762788870306},
    {"mesh3x4-ll", "g2", 1.1860050071579844},
    {"mesh3x4-ll", "r1", 1.1696751548310433},
    {"mesh3x4-ll", "cp", 0.77676741626981083},
    {"mesh3x4-ll", "local", 0.64643780479241519},
    {"tree3x2-lp", "g1", 1.3711792659825517},
    {"tree3x2-lp", "g2", 1.3711792659825517},
    {"tree3x2-lp", "r1", 1.5873182779479917},
    {"tree3x2-lp", "local", 0.80656054056313198},
    {"bip2x4-ll", "g1", 1.3435908923006501},
    {"bip2x4-ll", "g2", 1.2673762788870306},
    {"bip2x4-ll", "r1", 1.1232986803465945},
    {"bip2x4-ll", "cp", 1.1540856223671832},
    {"bip2x4-ll", "local", 1.1232986803465945},
    // Unclustered, the MIP proves the actual optimum, so whichever of the
    // optimal deployments its search meets, the cost is this one. With
    // clusters it proves one of 3408 tied clustered optima, whose actual
    // costs differ; ClusteredMipProvesTheBruteForceClusteredOptimum checks
    // that case against brute force instead of pinning it.
    {"bip2x4-ll", "mip", 1.1232986803465945, /*cost_clusters=*/0},
};

struct Fixture {
  graph::CommGraph graph;
  int m;
  Objective objective;
};

Fixture MakeFixture(const std::string& name) {
  if (name == "mesh3x4-ll") {
    return {graph::Mesh2D(3, 4), 14, Objective::kLongestLink};
  }
  if (name == "tree3x2-lp") {
    return {graph::AggregationTree(3, 3), 15, Objective::kLongestPath};
  }
  CLOUDIA_CHECK(name == "bip2x4-ll");
  return {graph::Bipartite(2, 4), 8, Objective::kLongestLink};
}

TEST(SolverGoldenTest, DeterministicSolversAreBitIdenticalToPreMigration) {
  for (const GoldenCase& c : kGolden) {
    Fixture fx = MakeFixture(c.fixture);
    Rng rng(42);
    CostMatrix costs = RandomCosts(fx.m, rng);

    NdpSolveOptions opts;
    opts.objective = fx.objective;
    opts.seed = 7;
    opts.time_budget_s = 60.0;
    opts.cost_clusters = c.cost_clusters;
    opts.r1_samples = 200;
    SolveContext context(Deadline::After(60.0));
    auto r = SolveNodeDeploymentByName(fx.graph, costs, c.method, opts,
                                       context);
    ASSERT_TRUE(r.ok()) << c.fixture << "/" << c.method << ": "
                        << r.status().ToString();
    EXPECT_EQ(r->cost, c.cost)
        << c.fixture << "/" << c.method
        << ": cost drifted from the pre-migration recording";
  }
}

// The clustered MIP on bip2x4-ll proves the optimum of the clustered
// matrix (paper Sect. 4.3), which 3408 deployments share. The actual cost
// it reports is that of the one its search meets first, which any change
// of search path may move; what must hold is the proof and its value.
TEST(SolverGoldenTest, ClusteredMipProvesTheBruteForceClusteredOptimum) {
  Fixture fx = MakeFixture("bip2x4-ll");
  Rng rng(42);
  CostMatrix costs = RandomCosts(fx.m, rng);
  NdpSolveOptions opts;
  opts.objective = fx.objective;
  opts.seed = 7;
  opts.time_budget_s = 60.0;
  opts.cost_clusters = 4;
  SolveContext context(Deadline::After(60.0));
  auto r = SolveNodeDeploymentByName(fx.graph, costs, "mip", opts, context);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->proven_optimal);

  auto clustered = ClusterCostMatrix(costs, opts.cost_clusters);
  ASSERT_TRUE(clustered.ok()) << clustered.status().ToString();
  auto eval = CostEvaluator::Create(&fx.graph, &*clustered, fx.objective);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  EXPECT_EQ(eval->Cost(r->deployment),
            BruteForceOptimum(fx.graph, *clustered, fx.objective));
}

}  // namespace
}  // namespace cloudia::deploy
