// Property-based (parameterized) sweeps over the core invariants:
//   - every search method returns a valid injection whose reported cost
//     matches a recomputation, deterministically per seed;
//   - threshold descent traces strictly improve;
//   - k-means clustering cost is monotone in k;
//   - provider CDFs are ordered and latency bounds hold for all providers.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "cluster/kmeans1d.h"
#include "common/stats.h"
#include "deploy/solve.h"
#include "deploy/solver_registry.h"
#include "deploy_test_util.h"
#include "graph/templates.h"
#include "netsim/cloud.h"

namespace cloudia {
namespace {

using deploy::Objective;

// ---------------------------------------------------------------------------
// Deployment-method properties over (method, graph shape, seed).
// ---------------------------------------------------------------------------

enum class Shape { kMesh, kTree, kBipartite, kRandom };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kMesh:
      return "Mesh";
    case Shape::kTree:
      return "Tree";
    case Shape::kBipartite:
      return "Bipartite";
    case Shape::kRandom:
      return "Random";
  }
  return "?";
}

graph::CommGraph MakeShape(Shape s, Rng& rng) {
  switch (s) {
    case Shape::kMesh:
      return graph::Mesh2D(3, 4);
    case Shape::kTree:
      return graph::AggregationTree(3, 3);
    case Shape::kBipartite:
      return graph::Bipartite(3, 9);
    case Shape::kRandom:
      return graph::RandomSymmetric(12, 3.0, rng);
  }
  CLOUDIA_CHECK(false);
}

// Solvers are named by registry key; test names use their display names.
using MethodShapeSeed = std::tuple<std::string, Shape, int>;

const char* DisplayName(const std::string& method) {
  return deploy::SolverRegistry::Global().Find(method)->display_name();
}

Result<deploy::NdpSolveResult> SolveByName(const graph::CommGraph& g,
                                           const deploy::CostMatrix& costs,
                                           const std::string& method,
                                           const deploy::NdpSolveOptions& opts) {
  deploy::SolveContext context(Deadline::After(opts.time_budget_s));
  return deploy::SolveNodeDeploymentByName(g, costs, method, opts, context);
}

class DeployPropertyTest : public ::testing::TestWithParam<MethodShapeSeed> {};

TEST_P(DeployPropertyTest, ValidInjectionConsistentCostDeterministic) {
  auto [method, shape, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  graph::CommGraph g = MakeShape(shape, rng);
  deploy::CostMatrix costs = deploy::RandomCosts(g.num_nodes() + 3, rng);

  // CP handles only the longest-link objective; trees get longest path when
  // the method supports it.
  Objective objective =
      (shape == Shape::kTree && method != "cp")
          ? Objective::kLongestPath
          : Objective::kLongestLink;

  deploy::NdpSolveOptions opts;
  opts.objective = objective;
  opts.time_budget_s = 0.5;
  opts.r1_samples = 150;
  opts.threads = 2;
  opts.cost_clusters = method == "cp" ? 10 : 0;
  opts.seed = static_cast<uint64_t>(seed) * 7 + 1;

  auto r = SolveByName(g, costs, method, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // (1) valid injection
  EXPECT_TRUE(deploy::ValidateDeployment(g, r->deployment, costs, objective)
                  .ok());
  // (2) reported cost matches recomputation
  auto eval = deploy::CostEvaluator::Create(&g, &costs, objective);
  ASSERT_TRUE(eval.ok());
  EXPECT_NEAR(r->cost, eval->Cost(r->deployment), 1e-9);
  // (3) the trace ends at the final cost and strictly improves
  ASSERT_FALSE(r->trace.empty());
  EXPECT_NEAR(r->trace.back().cost, r->cost, 1e-9);
  for (size_t i = 1; i < r->trace.size(); ++i) {
    EXPECT_LT(r->trace[i].cost, r->trace[i - 1].cost);
  }
  // (4) determinism (R2 races wall-clock; exempt)
  if (method != "r2") {
    auto again = SolveByName(g, costs, method, opts);
    ASSERT_TRUE(again.ok());
    // Time-limited solvers may do more or less work per run; costs can only
    // be compared when the search space was exhausted both times.
    if (r->proven_optimal && again->proven_optimal) {
      EXPECT_NEAR(r->cost, again->cost, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeployPropertyTest,
    ::testing::Combine(::testing::Values("g1", "g2", "r1", "r2", "cp", "mip"),
                       ::testing::Values(Shape::kMesh, Shape::kTree,
                                         Shape::kBipartite, Shape::kRandom),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<MethodShapeSeed>& info) {
      return std::string(DisplayName(std::get<0>(info.param))) +
             ShapeName(std::get<1>(info.param)) +
             "S" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// k-means clustering: cost monotone non-increasing in k.
// ---------------------------------------------------------------------------

class KMeansMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(KMeansMonotoneTest, CostDecreasesWithK) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.Uniform(0.2, 1.4));
  double prev = std::numeric_limits<double>::infinity();
  for (int k = 1; k <= 40; k += 3) {
    auto r = cluster::KMeans1D(values, k);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->cost, prev + 1e-9) << "k=" << k;
    prev = r->cost;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMeansMonotoneTest,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Provider properties over all three profiles.
// ---------------------------------------------------------------------------

class ProviderPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ProviderPropertyTest, LatencyDistributionInvariants) {
  auto [provider, seed] = GetParam();
  net::ProviderProfile profile = provider == 0   ? net::AmazonEc2Profile()
                                 : provider == 1 ? net::GoogleComputeEngineProfile()
                                                 : net::RackspaceCloudProfile();
  net::CloudSimulator cloud(profile, static_cast<uint64_t>(seed));
  auto alloc = cloud.Allocate(40);
  ASSERT_TRUE(alloc.ok());
  std::vector<double> lat;
  for (size_t i = 0; i < alloc->size(); ++i) {
    for (size_t j = 0; j < alloc->size(); ++j) {
      if (i == j) continue;
      double forward = cloud.ExpectedRtt((*alloc)[i], (*alloc)[j]);
      double backward = cloud.ExpectedRtt((*alloc)[j], (*alloc)[i]);
      lat.push_back(forward);
      // Near-symmetry: directions differ at most by the asymmetry knob.
      EXPECT_NEAR(forward, backward, 2 * profile.asymmetry_ms + 1e-9);
      EXPECT_GT(forward, 0.05);
      EXPECT_LT(forward, 3.0);
    }
  }
  // Quantiles are ordered and spread out (heterogeneity exists).
  double q10 = Percentile(lat, 10), q50 = Percentile(lat, 50),
         q90 = Percentile(lat, 90);
  EXPECT_LT(q10, q50);
  EXPECT_LT(q50, q90);
  EXPECT_GT(q90 / q10, 1.2) << "latency heterogeneity should be visible";
}

std::string ProviderParamName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* const kNames[] = {"EC2", "GCE", "Rackspace"};
  return std::string(kNames[std::get<0>(info.param)]) + "S" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllProviders, ProviderPropertyTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(5, 6)),
                         ProviderParamName);

// ---------------------------------------------------------------------------
// Degenerate cost matrices: all-equal costs make every deployment optimal.
// ---------------------------------------------------------------------------

TEST(DegenerateCostsTest, AllMethodsAgreeOnUniformCosts) {
  graph::CommGraph g = graph::Mesh2D(2, 3);
  deploy::CostMatrix costs(8, 0.5);
  for (int i = 0; i < 8; ++i) costs.At(i, i) = 0;
  for (const std::string m : {"g1", "g2", "r1", "cp", "mip"}) {
    deploy::NdpSolveOptions opts;
    opts.time_budget_s = 1.0;
    opts.r1_samples = 5;
    opts.seed = 3;
    auto r = SolveByName(g, costs, m, opts);
    ASSERT_TRUE(r.ok()) << m;
    EXPECT_DOUBLE_EQ(r->cost, 0.5) << m;
  }
}

TEST(DegenerateCostsTest, ExactFitNoSpareInstances) {
  // |V| == |S|: the search space is permutations only.
  Rng rng(9);
  graph::CommGraph g = graph::Mesh2D(2, 3);
  deploy::CostMatrix costs = deploy::RandomCosts(6, rng);
  deploy::NdpSolveOptions opts;
  opts.time_budget_s = 5.0;
  opts.seed = 4;
  auto r = SolveByName(g, costs, "cp", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->cost, deploy::BruteForceOptimum(g, costs,
                                                 Objective::kLongestLink),
              1e-9);
}

}  // namespace
}  // namespace cloudia
