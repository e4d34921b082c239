// Fig. 9: convergence of the LPNDP MIP solver with k = 5, k = 20, and no
// cost clustering -- clustering does not help because path costs are sums.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "deploy/mip_ndp.h"
#include "graph/templates.h"

int main() {
  using namespace cloudia;
  bench::PrintHeader(
      "Figure 9: LPNDP-MIP convergence vs cost clustering",
      "k=5 performs poorly; clustering does not improve LPNDP (costs are "
      "aggregated by summation along paths)",
      "aggregation tree (depth <= 4) of 45 nodes on 50 instances");

  bench::CloudFixture fx(net::AmazonEc2Profile(), /*seed=*/9, /*n=*/50);
  deploy::CostMatrix costs = bench::MeasuredMeanCosts(
      fx.cloud, fx.instances, bench::ScaledSeconds(150, 8), 99);
  // Depth-4 tree: 1 + 3 + 9 + 27 = 40 nodes (within the 45-node budget).
  graph::CommGraph tree = graph::AggregationTree(3, 4);
  const double budget = bench::ScaledSeconds(16 * 60, 5);

  TextTable t({"clusters", "time[s]", "longest-path latency[ms]"});
  for (int k : {5, 20, 0}) {
    deploy::MipNdpOptions opts;
    opts.cost_clusters = k;
    opts.deadline = Deadline::After(budget);
    opts.seed = 23;
    auto r = deploy::SolveLpndpMip(tree, costs, opts);
    CLOUDIA_CHECK(r.ok());
    std::string label = k == 0 ? "none" : StrFormat("k=%d", k);
    for (const deploy::TracePoint& p : r->trace) {
      t.AddRow({label, StrFormat("%.2f", p.seconds),
                StrFormat("%.4f", p.cost)});
    }
    std::printf("[%s] final cost %.4f ms (B&B nodes: %lld)\n", label.c_str(),
                r->cost, static_cast<long long>(r->iterations));
  }
  std::printf("\nconvergence traces:\n%s", t.ToString().c_str());
  return 0;
}
