// The "hier" solver: divide-and-conquer NDP solving for deployments far
// beyond what the flat methods handle (ROADMAP Open item 1).
//
// Pipeline (each stage its own module):
//   decompose  MatrixDecomposer clusters instances by latency equivalence
//              and partitions the application graph to cluster capacities.
//   coarse     SolveCoarseAssignment places node groups on instance
//              clusters over the reduced C x C matrix.
//   shard      SolveShards fans the per-group subproblems out on a thread
//              pool, each dispatched through the SolverRegistry (any flat
//              solver works as the shard solver).
//   polish     BoundaryPolisher repairs the seams with incremental
//              swap/move descent on the CostEvaluator hot path.
//
// Two entry points: SolveHierarchical consumes a CostSource, so
// datacenter-scale synthetic problems never materialize an m x m matrix;
// HierSolver adapts a measured CostMatrix and is registered as "hier" in
// the global SolverRegistry. Every flat caller reaches it through
// deploy::SolveNodeDeploymentByName: the CLI's --method=hier, a session's
// SolveSpec (which inherits the hier_* knobs from NdpSolveOptions), and
// AdvisorService's "auto" routing above a node threshold.
//
// Determinism: with converging shard budgets the whole pipeline is a pure
// function of (problem, options.seed) regardless of thread count -- every
// stage is deterministic and shard results are collected by index.
#ifndef CLOUDIA_HIER_SOLVER_H_
#define CLOUDIA_HIER_SOLVER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "deploy/solve.h"
#include "deploy/solver.h"
#include "hier/cost_source.h"

namespace cloudia::hier {

struct HierOptions {
  /// Instance clusters; 0 = auto (latency-threshold derived).
  int clusters = 0;
  /// Registry name of the per-shard solver; empty = "local". "hier" itself
  /// is rejected (no self-recursion).
  std::string shard_solver;
  /// Accepted-step budget for the boundary polish (<= 0 disables it).
  int polish_steps = 2000;
  /// Neighborhood sweeps for the coarse assignment descent.
  int coarse_passes = 8;
  /// Per-shard wall budget; <= 0 = generous safety-net default.
  double shard_time_budget_s = 0.0;
  /// Fan-out worker threads; 0 defers to the context / hardware.
  int threads = 0;
  uint64_t seed = 1;
  /// Forwarded to shard solvers that cluster costs (cp/mip).
  int cost_clusters = 0;
  /// At or below this many instances the problem is solved flat with the
  /// shard solver -- hierarchy only pays off at scale.
  int flat_fallback_instances = 96;
};

/// Where the time and the objective went, for benches and logs.
struct HierStats {
  bool flat_fallback = false;
  int clusters = 0;
  int shards = 0;
  int coarse_passes = 0;
  int seams_polished = 0;
  int polish_steps = 0;
  double threshold_ms = 0.0;
  double decompose_s = 0.0;
  double coarse_s = 0.0;
  double shard_s = 0.0;
  double polish_s = 0.0;
  double stitched_cost = 0.0;
  double polished_cost = 0.0;
};

struct HierSolveResult {
  deploy::NdpSolveResult result;
  HierStats stats;
};

/// Runs the full pipeline against an implicit cost source. Incumbents
/// (post-stitch and post-polish) are reported through `context`.
Result<HierSolveResult> SolveHierarchical(const graph::CommGraph& graph,
                                          const CostSource& source,
                                          deploy::Objective objective,
                                          const HierOptions& options,
                                          deploy::SolveContext& context);

/// Registry adapter: reads HierOptions off NdpSolveOptions (hier_clusters,
/// hier_shard_solver, hier_polish_steps, threads, seed, cost_clusters) and
/// wraps the problem's matrix in a MatrixCostSource.
class HierSolver : public deploy::NdpSolver {
 public:
  const char* name() const override { return "hier"; }
  const char* display_name() const override { return "Hier"; }
  /// Both objectives: every stage is objective-aware (the polisher verifies
  /// longest-path changes against the exact global objective).
  bool Supports(deploy::Objective) const override { return true; }
  Result<deploy::NdpSolveResult> Solve(const deploy::NdpProblem& problem,
                                       const deploy::NdpSolveOptions& options,
                                       deploy::SolveContext& context)
      const override;
};

}  // namespace cloudia::hier

#endif  // CLOUDIA_HIER_SOLVER_H_
