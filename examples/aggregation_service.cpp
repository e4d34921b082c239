// Service scenario (paper Sect. 6.1.2): a two-level top-k aggregation tree
// (1 root + 7 aggregators + 42 leaves = 50 nodes). The longest-path
// objective models the critical path of service calls; the deployment is
// searched with the LPNDP MIP encoding.
//
//   $ ./build/examples/aggregation_service [seed]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "cloudia/session.h"
#include "graph/templates.h"
#include "workloads/aggregation.h"

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2;
  cloudia::net::CloudSimulator cloud(cloudia::net::AmazonEc2Profile(), seed);
  cloudia::graph::CommGraph tree = cloudia::graph::AggregationTree(7, 3);
  std::printf("aggregation tree: %d nodes, %d edges\n", tree.num_nodes(),
              tree.num_edges());

  cloudia::SessionOptions options;
  options.measure_duration_s = 90.0;
  options.seed = seed;
  cloudia::DeploymentSession session(&cloud, &tree, options);

  cloudia::SolveSpec spec;
  spec.method = "mip";
  spec.objective = cloudia::deploy::Objective::kLongestPath;
  spec.cost_clusters = 0;  // clustering does not help LPNDP (paper Fig. 9)
  spec.time_budget_s = 10.0;
  spec.seed = seed;
  auto solve = session.Solve(spec);
  if (!solve.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 solve.status().ToString().c_str());
    return 1;
  }
  auto terminated = session.Terminate(*solve);
  if (!terminated.ok()) {
    std::fprintf(stderr, "terminate failed: %s\n",
                 terminated.status().ToString().c_str());
    return 1;
  }
  // The baseline the paper compares against: node i on allocated()[i].
  const std::vector<cloudia::net::Instance> default_placement(
      session.allocated().begin(),
      session.allocated().begin() + tree.num_nodes());
  std::printf("allocated %zu instances, measured %.1f virtual s, terminated "
              "%zu extras\n",
              session.allocated().size(), session.measure_virtual_s(),
              terminated->size());
  std::printf("deployment cost: default %.4f ms, optimized %.4f ms%s "
              "(predicted reduction %.1f %%)\n\n",
              solve->default_cost_ms, solve->cost_ms,
              solve->result.proven_optimal ? " (proven optimal)" : "",
              100.0 * solve->predicted_improvement);

  cloudia::wl::AggregationConfig q;
  q.queries = 2000;
  q.seed = seed + 100;
  auto tuned =
      cloudia::wl::RunAggregationQueries(cloud, tree, solve->placement, q);
  auto fallback = cloudia::wl::RunAggregationQueries(
      cloud, tree, default_placement, q);
  if (!tuned.ok() || !fallback.ok()) {
    std::fprintf(stderr, "query simulation failed\n");
    return 1;
  }
  double reduction =
      100.0 * (fallback->primary_ms - tuned->primary_ms) / fallback->primary_ms;
  std::printf("top-k query response time over %d queries:\n", q.queries);
  std::printf("  default deployment : mean %6.3f ms   p99 %6.3f ms\n",
              fallback->primary_ms, fallback->p99_ms);
  std::printf("  ClouDiA deployment : mean %6.3f ms   p99 %6.3f ms\n",
              tuned->primary_ms, tuned->p99_ms);
  std::printf("  reduction          : %5.1f %%\n", reduction);
  return 0;
}
