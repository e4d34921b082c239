// The one entry point for node-deployment search (paper Sect. 4):
// SolveNodeDeploymentByName looks a solver up in the SolverRegistry
// (deploy/solver_registry.h) by name -- greedy (G1/G2), randomized (R1/R2),
// CP threshold descent, the MIP encodings, or any solver registered at
// startup -- checks the paper's method/objective compatibility (CP is only
// formulated for LLNDP, Sect. 4.4; greedy solves LLNDP and serves as a
// heuristic for LPNDP, Sect. 4.5.2), and runs it under a SolveContext.
// cloudia::DeploymentSession::Solve and every other layer that solves a flat
// problem dispatch through it.
//
// What else is left here and why: NdpSolveOptions holds every solver knob
// (cloudia::SolveSpec inherits it). The Method enum, its `method` field and
// the budget-only overload of SolveNodeDeployment remain only because
// advbench/driver.cc still uses them; new code names solvers by registry key.
#ifndef CLOUDIA_DEPLOY_SOLVE_H_
#define CLOUDIA_DEPLOY_SOLVE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "deploy/solver.h"
#include "deploy/solver_result.h"

namespace cloudia::deploy {

enum class Method {
  kGreedyG1,
  kGreedyG2,
  kRandomR1,
  kRandomR2,
  kCp,
  kMip,
  /// Extension beyond the paper: multi-start swap/move hill climbing
  /// (deploy/local_search.h). Works for both objectives.
  kLocalSearch,
  /// Extension beyond the paper: races several registered solvers
  /// concurrently against one shared incumbent (deploy/portfolio.h).
  kPortfolio,
  /// Extension beyond the paper: hierarchical divide-and-conquer for
  /// 10k+-node problems -- cluster-decompose, coarse-assign, shard-solve in
  /// parallel, polish the seams (hier/solver.h). Works for both objectives.
  kHier,
};

struct NdpSolveOptions {
  /// Primary latency objective plus optional weighted price / migration
  /// terms (deploy/cost.h). A bare Objective enum converts implicitly to the
  /// degenerate latency-only spec, which is bit-identical to the pre-spec
  /// behavior.
  ObjectiveSpec objective;
  /// Read only by the budget-only SolveNodeDeployment overload.
  Method method = Method::kCp;
  /// Wall-clock budget for R2 / CP / MIP (ignored by G1/G2/R1). Solvers read
  /// the deadline from their SolveContext; this field is what the caller
  /// building that context (the session, the budget-only overload) reads.
  double time_budget_s = 60.0;
  /// k-means cost clusters for CP / MIP; 0 = no clustering. The paper's best
  /// configuration is k=20 for LLNDP-CP and no clustering for LPNDP-MIP.
  int cost_clusters = 0;
  /// Samples for R1 (the paper uses 1,000).
  int r1_samples = 1000;
  /// Worker threads for R2 and the portfolio; 0 = hardware concurrency.
  int threads = 0;
  /// Member solvers for the portfolio (registry names); empty selects the
  /// default set ("cp", "mip", "local", "r2"). Ignored by other methods.
  std::vector<std::string> portfolio_members;
  uint64_t seed = 1;
  /// Optional starting deployment for CP / MIP (empty = best of 10 random).
  Deployment initial;
  /// CP: warm-start iterations with the previous solution's values.
  bool warm_start_hints = false;
  /// Hier: instance clusters to decompose into; 0 = auto (latency-threshold
  /// derived). Ignored by other methods.
  int hier_clusters = 0;
  /// Hier: registry name of the per-shard solver; empty = "local". Any
  /// registered solver except "hier" itself works (cp, mip, portfolio, ...).
  std::string hier_shard_solver;
  /// Hier: accepted-step budget for the cross-shard boundary polish.
  int hier_polish_steps = 2000;
};

/// Runs the solver registered under `method` (case-insensitive registry key
/// or display name) under `context` (deadline, cancellation, progress).
/// Fails on an unknown name, on a graph or objective the cost matrix cannot
/// evaluate, and on method/objective combinations the paper does not define
/// (CP for LPNDP). `options.method` and `options.time_budget_s` are ignored:
/// the name and the context carry them.
Result<NdpSolveResult> SolveNodeDeploymentByName(const graph::CommGraph& graph,
                                                 const CostMatrix& costs,
                                                 std::string_view method,
                                                 const NdpSolveOptions& options,
                                                 SolveContext& context);

/// Budget-only overload, kept for advbench's replay: runs
/// MethodKey(options.method) under a context built from
/// `options.time_budget_s`, with no cancellation and no progress callback.
Result<NdpSolveResult> SolveNodeDeployment(const graph::CommGraph& graph,
                                           const CostMatrix& costs,
                                           const NdpSolveOptions& options);

}  // namespace cloudia::deploy

#endif  // CLOUDIA_DEPLOY_SOLVE_H_
