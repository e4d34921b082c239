// Mixed-integer programming solvers for LLNDP (paper Sect. 4.1) and LPNDP
// (Sect. 4.4), on one assignment model:
//
//   sum_j x_ij = 1 for all nodes i,  sum_i x_ij <= 1 for all instances j,
//   x_ij binary.
//
// LLNDP minimizes one c >= 0 bounding every link; LPNDP bounds each edge
// e = (i,i') by its own c_e >= 0 and minimizes the longest path t (the
// graph must be acyclic):
//
//   LLNDP: c   >= CL(j,j') (x_ij + x_i'j' - 1)   for all (i,i') in E, j, j'
//   LPNDP: c_e >= CL(j,j') (x_ij + x_i'j' - 1)   for all e in E, j, j'
//          t >= t_i >= 0,  t_i' >= t_i + c_e     for all i, e = (i,i')
//
// The O(|E| |S|^2) coupling family is generated lazily (violated rows only);
// the relaxation stays weak regardless -- x_ij + x_i'j' must exceed 1 before
// a row binds -- which is exactly why the paper finds MIP uncompetitive at
// scale (Fig. 7; Sect. 4.4 on LPNDP).
#ifndef CLOUDIA_DEPLOY_MIP_NDP_H_
#define CLOUDIA_DEPLOY_MIP_NDP_H_

#include <cstdint>

#include "common/result.h"
#include "common/timer.h"
#include "deploy/solver.h"
#include "deploy/solver_result.h"

namespace cloudia::deploy {

struct MipNdpOptions {
  /// Budget for the convenience overloads only; the SolveContext overloads
  /// take their deadline (and cancellation) from the context.
  Deadline deadline = Deadline::Infinite();
  /// k-means cost clusters; 0 disables clustering (Sect. 6.3 studies both).
  int cost_clusters = 0;
  /// Starting deployment; empty -> best of 10 random (Sect. 6.3).
  Deployment initial;
  uint64_t seed = 1;
  /// Violated coupling rows added per separation round (keeps LPs small).
  int max_lazy_rows_per_round = 64;
  /// Branch-and-bound node cap, -1 for none: fixes the work of a test or
  /// bench run regardless of the wall clock.
  int64_t max_nodes = -1;
};

/// Solves LLNDP via branch & bound on the encoding above, under `context`
/// (deadline, cancellation, incumbent progress). With a tracer on
/// `context`, either encoding emits one "mip.summary" instant under its
/// parent span: nodes, LP pivots, lazy rows, the LP's largest row count and
/// the final bound.
Result<NdpSolveResult> SolveLlndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options,
                                     SolveContext& context);

/// Convenience overload: context built from `options.deadline` only.
Result<NdpSolveResult> SolveLlndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options);

/// Solves LPNDP via branch & bound on the encoding above, under `context`.
/// Note the paper's finding that cost clustering does *not* help LPNDP
/// (costs are summed along paths, Fig. 9); the option is still honored for
/// that experiment.
Result<NdpSolveResult> SolveLpndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options,
                                     SolveContext& context);

/// Convenience overload: context built from `options.deadline` only.
Result<NdpSolveResult> SolveLpndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options);

}  // namespace cloudia::deploy

#endif  // CLOUDIA_DEPLOY_MIP_NDP_H_
