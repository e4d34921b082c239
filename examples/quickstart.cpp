// Quickstart: tune the deployment of a 30-node mesh application on a
// simulated EC2 region with the staged DeploymentSession API -- measure the
// pairwise latencies once, then solve the same cached cost matrix with
// three registered methods and keep the best plan.
//
//   $ ./build/examples/quickstart [seed]
#include <cstdio>
#include <cstdlib>

#include "cloudia/session.h"
#include "graph/templates.h"

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // A cloud region that behaves like EC2 US East (latency heterogeneity,
  // non-contiguous allocation, jitter).
  cloudia::net::CloudSimulator cloud(cloudia::net::AmazonEc2Profile(), seed);

  // The application: a 5x6 mesh of communicating components, the pattern of
  // a BSP-style behavioral simulation.
  cloudia::graph::CommGraph app = cloudia::graph::Mesh2D(5, 6);

  cloudia::SessionOptions options;
  options.over_allocation = 0.10;   // allocate 10% extra, keep the best 30
  options.measure_duration_s = 60;  // virtual measurement time
  options.seed = seed;

  cloudia::DeploymentSession session(&cloud, &app, options);

  // Stage 1+2: allocate the instances and measure their pairwise latencies.
  // This is the expensive step of a real run -- every solve below reuses the
  // one cached cost matrix, with zero re-measurement.
  cloudia::Status measured = session.Measure();
  if (!measured.ok()) {
    std::fprintf(stderr, "measurement failed: %s\n",
                 measured.ToString().c_str());
    return 1;
  }
  std::printf("measured %zu instances for %.0f virtual seconds\n\n",
              session.allocated().size(), session.measure_virtual_s());

  // Stage 3: compare three registered solvers on identical measured costs.
  std::printf("%-12s %14s %14s %10s\n", "method", "cost (ms)", "default (ms)",
              "reduction");
  for (const char* method : {"g2", "cp", "local"}) {
    cloudia::SolveSpec spec;
    spec.method = method;
    spec.time_budget_s = 5.0;
    spec.seed = seed;
    auto solve = session.Solve(spec);
    if (!solve.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", method,
                   solve.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12s %14.4f %14.4f %9.1f%%\n", method, solve->cost_ms,
                solve->default_cost_ms, 100.0 * solve->predicted_improvement);
  }

  // Stage 4: terminate the extras, keeping the best plan's instances.
  auto terminated = session.Terminate();
  if (!terminated.ok()) {
    std::fprintf(stderr, "terminate failed: %s\n",
                 terminated.status().ToString().c_str());
    return 1;
  }
  const cloudia::SessionSolve* best = session.best_solve();
  std::printf("\nbest method: %s (terminated %zu extra instances)\n",
              best->method.c_str(), terminated->size());
  std::printf("node -> instance (first 10 shown)\n");
  for (int i = 0; i < 10; ++i) {
    const auto& inst = best->placement[static_cast<size_t>(i)];
    std::printf("  node %2d -> instance %3d (%s)\n", i, inst.id,
                cloudia::net::IpToString(inst.internal_ip).c_str());
  }
  return 0;
}
