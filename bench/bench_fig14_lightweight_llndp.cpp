// Fig. 14: lightweight approaches vs CP for LLNDP over 20 allocations of 50
// instances (10% over-allocation -> 45 application nodes).
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "common/table.h"
#include "deploy/solve.h"
#include "deploy/solver_registry.h"
#include "graph/templates.h"

int main() {
  using namespace cloudia;
  bench::PrintHeader(
      "Figure 14: lightweight approaches vs CP (LLNDP)",
      "G1 worst (+66.7% vs CP); G2 much better than G1; R1 slightly better "
      "than G2 (-3.4%); R2 within 8.65% of CP",
      "20 allocations x 50 instances, 45-node mesh; R2 and CP share the "
      "same wall-clock budget");

  const double budget = bench::ScaledSeconds(2 * 60, 2);
  const int allocations = 20;
  graph::CommGraph mesh = graph::Mesh2D(5, 9);  // 45 nodes

  std::map<std::string, double> total;
  const char* const methods[] = {"g1", "g2", "r1", "r2", "cp"};

  for (int a = 0; a < allocations; ++a) {
    bench::CloudFixture fx(net::AmazonEc2Profile(),
                           /*seed=*/1400 + static_cast<uint64_t>(a), 50);
    deploy::CostMatrix costs = bench::MeasuredMeanCosts(
        fx.cloud, fx.instances, bench::ScaledSeconds(150, 5),
        9000 + static_cast<uint64_t>(a));
    for (const std::string method : methods) {
      deploy::NdpSolveOptions opts;
      opts.objective = deploy::Objective::kLongestLink;
      opts.time_budget_s = budget;
      opts.cost_clusters = method == "cp" ? 20 : 0;
      opts.r1_samples = 1000;
      opts.seed = static_cast<uint64_t>(a) * 31 + 7;
      deploy::SolveContext context(Deadline::After(budget));
      auto r = deploy::SolveNodeDeploymentByName(mesh, costs, method, opts,
                                                 context);
      CLOUDIA_CHECK(r.ok());
      total[method] += r->cost;
    }
    std::printf("allocation %2d done\n", a + 1);
  }

  TextTable t({"method", "avg longest-link latency[ms]", "vs CP[%]"});
  double cp_avg = total["cp"] / allocations;
  for (const std::string method : methods) {
    double avg = total[method] / allocations;
    t.AddRow({deploy::SolverRegistry::Global().Find(method)->display_name(),
              StrFormat("%.4f", avg),
              StrFormat("%+.2f", 100.0 * (avg - cp_avg) / cp_avg)});
  }
  std::printf("\n%s", t.ToString().c_str());
  return 0;
}
