// HPC scenario (paper Sect. 6.1.1): a fish-school behavioral simulation
// partitioned over a 10x10 mesh. Compares time-to-solution of the default
// deployment against the ClouDiA-optimized one on the same allocation.
//
//   $ ./build/examples/behavioral_simulation [seed]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "cloudia/session.h"
#include "graph/templates.h"
#include "workloads/behavioral.h"

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  cloudia::net::CloudSimulator cloud(cloudia::net::AmazonEc2Profile(), seed);
  cloudia::graph::CommGraph mesh = cloudia::graph::Mesh2D(10, 10);

  cloudia::SessionOptions options;
  options.measure_duration_s = 120.0;
  options.seed = seed;
  cloudia::DeploymentSession session(&cloud, &mesh, options);

  cloudia::SolveSpec spec;
  spec.method = "cp";
  spec.objective = cloudia::deploy::Objective::kLongestLink;
  spec.cost_clusters = 20;
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
      session.allocated().begin() + mesh.num_nodes());
  std::printf("allocated %zu instances, measured %.1f virtual s, terminated "
              "%zu extras\n",
              session.allocated().size(), session.measure_virtual_s(),
              terminated->size());
  std::printf("deployment cost: default %.4f ms, optimized %.4f ms%s "
              "(predicted reduction %.1f %%)\n\n",
              solve->default_cost_ms, solve->cost_ms,
              solve->result.proven_optimal ? " (proven optimal)" : "",
              100.0 * solve->predicted_improvement);

  cloudia::wl::BehavioralConfig sim;
  sim.ticks = 2000;  // the paper runs 100K ticks; per-tick time is what counts
  sim.seed = seed + 100;
  auto tuned =
      cloudia::wl::RunBehavioralSimulation(cloud, mesh, solve->placement, sim);
  auto fallback = cloudia::wl::RunBehavioralSimulation(
      cloud, mesh, default_placement, sim);
  if (!tuned.ok() || !fallback.ok()) {
    std::fprintf(stderr, "simulation failed\n");
    return 1;
  }
  double reduction =
      100.0 * (fallback->primary_ms - tuned->primary_ms) / fallback->primary_ms;
  std::printf("time-to-solution, %d ticks:\n", sim.ticks);
  std::printf("  default deployment : %8.1f ms (%.3f ms/tick)\n",
              fallback->primary_ms, fallback->primary_ms / sim.ticks);
  std::printf("  ClouDiA deployment : %8.1f ms (%.3f ms/tick)\n",
              tuned->primary_ms, tuned->primary_ms / sim.ticks);
  std::printf("  reduction          : %5.1f %%  (paper Fig. 12: 15-55%%)\n",
              reduction);
  return 0;
}
