// Fig. 7: CP vs MIP convergence for LLNDP with k=20 cost clusters at the
// 100-instance scale -- the MIP encoding's weak relaxation makes it
// uncompetitive. Extended with a Portfolio series that races both solvers
// concurrently against a shared incumbent: its final incumbent is never
// worse than the best single solver on the same instances.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "deploy/cp_llndp.h"
#include "deploy/mip_ndp.h"
#include "deploy/solve.h"
#include "graph/templates.h"

int main() {
  using namespace cloudia;
  bench::PrintHeader(
      "Figure 7: LLNDP solved by CP vs MIP (k=20 clusters)",
      "CP finds a significantly better deployment; MIP performs poorly at "
      "the 100-instance scale (weak linear relaxation); the concurrent "
      "cp+mip portfolio matches or beats the better of the two",
      "same 90-node mesh / 100 instances / budget for all series");

  bench::CloudFixture fx(net::AmazonEc2Profile(), /*seed=*/7, /*n=*/100);
  deploy::CostMatrix costs = bench::MeasuredMeanCosts(
      fx.cloud, fx.instances, bench::ScaledSeconds(300, 10), 77);
  graph::CommGraph mesh = graph::Mesh2D(9, 10);
  const double budget = bench::ScaledSeconds(16 * 60, 5);

  TextTable t({"solver", "time[s]", "longest-link latency[ms]"});

  deploy::CpLlndpOptions cp_opts;
  cp_opts.cost_clusters = 20;
  cp_opts.deadline = Deadline::After(budget);
  cp_opts.seed = 19;
  auto cp = deploy::SolveLlndpCp(mesh, costs, cp_opts);
  CLOUDIA_CHECK(cp.ok());
  for (const deploy::TracePoint& p : cp->trace) {
    t.AddRow({"CP", StrFormat("%.2f", p.seconds), StrFormat("%.4f", p.cost)});
  }

  deploy::MipNdpOptions mip_opts;
  mip_opts.cost_clusters = 20;
  mip_opts.deadline = Deadline::After(budget);
  mip_opts.seed = 19;
  auto mip = deploy::SolveLlndpMip(mesh, costs, mip_opts);
  CLOUDIA_CHECK(mip.ok());
  for (const deploy::TracePoint& p : mip->trace) {
    t.AddRow({"MIP", StrFormat("%.2f", p.seconds), StrFormat("%.4f", p.cost)});
  }

  // Portfolio series: cp and mip race concurrently (one worker each) on the
  // same instances, seed, and budget, sharing one global incumbent.
  deploy::NdpSolveOptions pf_opts;
  pf_opts.objective = deploy::Objective::kLongestLink;
  pf_opts.cost_clusters = 20;
  pf_opts.portfolio_members = {"cp", "mip"};
  pf_opts.threads = 2;
  pf_opts.seed = 19;
  deploy::SolveContext pf_context(Deadline::After(budget));
  auto pf = deploy::SolveNodeDeploymentByName(mesh, costs, "portfolio",
                                              pf_opts, pf_context);
  CLOUDIA_CHECK(pf.ok());
  for (const deploy::TracePoint& p : pf->trace) {
    t.AddRow({"Portfolio", StrFormat("%.2f", p.seconds),
              StrFormat("%.4f", p.cost)});
  }

  std::printf("%s", t.ToString().c_str());
  const double best_single = std::min(cp->cost, mip->cost);
  std::printf("\nfinal: CP %.4f ms vs MIP %.4f ms vs Portfolio %.4f ms "
              "(lower is better)\n",
              cp->cost, mip->cost, pf->cost);
  std::printf("portfolio vs best single solver: %.4f vs %.4f ms (%s)\n",
              pf->cost, best_single,
              pf->cost <= best_single + 1e-9 ? "never worse" : "WORSE");
  return 0;
}
