// LP-based branch & bound for MipModel on one warm-started bounded dual
// simplex (solver/lp/simplex.h) that lives for the whole solve:
//   - depth-first diving (finds incumbents early, bounded memory),
//   - most-fractional branching, round-to-nearest child first; a branch is
//     a column-bound change, and backtracking resets the bounds of the
//     popped node and re-optimizes from the current basis,
//   - the model's single-column rows (the binaries' x <= 1) become column
//     bounds, not LP rows,
//   - lazy-constraint callback, called on LP optima once no pooled cut is
//     violated; returned rows join a global cut pool shared by all nodes and
//     enter the LP by bordering the basis inverse. This is how the
//     O(|E| * |S|^2) coupling constraints of the paper's LLNDP/LPNDP
//     encodings (Sect. 4.1/4.4) stay tractable: rows are generated only when
//     violated, exactly as a commercial solver would treat lazy constraints.
//     The LP keeps only the cuts that bind (see the cut-pool comment in
//     branch_and_bound.cc), so its inverse stays small however long the
//     solve runs.
//   - optional warm-start incumbent (the paper bootstraps its solvers with
//     the best of 10 random deployments, Sect. 6.3).
#ifndef CLOUDIA_SOLVER_MIP_BRANCH_AND_BOUND_H_
#define CLOUDIA_SOLVER_MIP_BRANCH_AND_BOUND_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/cancel.h"
#include "common/timer.h"
#include "solver/mip/model.h"

namespace cloudia::mip {

/// Returns violated rows for the given LP-optimal point (empty if none).
/// Invoked at node LP optima that violate no pooled cut; `is_integral` tells
/// whether all integer variables are integral there (i.e. a candidate
/// incumbent).
using LazyConstraintCallback = std::function<std::vector<lp::Row>(
    const std::vector<double>& x, bool is_integral)>;

struct MipOptions {
  Deadline deadline = Deadline::Infinite();
  /// Cooperative cancellation, polled once per branch-and-bound node; a
  /// cancelled solve terminates like an expired deadline (kFeasible /
  /// kLimitNoSolution, best incumbent in hand).
  CancelToken cancel;
  int64_t max_nodes = -1;
  double integrality_tol = 1e-6;
  /// Prune nodes whose LP bound is >= incumbent - gap_tol.
  double gap_tol = 1e-9;
  int lp_max_iterations = 200000;
  LazyConstraintCallback lazy;
  /// Optional known-feasible start (checked against the model + lazy rows).
  std::vector<double> warm_start;
  /// Invoked whenever the incumbent improves (including the warm start).
  std::function<void(const std::vector<double>& x, double objective,
                     double seconds)>
      on_incumbent;
};

enum class MipStatus {
  kOptimal,        ///< search space exhausted, incumbent is optimal
  kFeasible,       ///< limit hit with an incumbent in hand
  kInfeasible,     ///< search space exhausted, no feasible point
  kLimitNoSolution ///< limit hit before any feasible point was found
};

const char* MipStatusName(MipStatus status);

/// A (time, objective) pair recorded whenever the incumbent improves; the
/// convergence curves of paper Figs. 6/7/9 are exactly this trace.
struct IncumbentPoint {
  double seconds;
  double objective;
};

struct MipResult {
  MipStatus status = MipStatus::kLimitNoSolution;
  double objective = 0.0;
  std::vector<double> x;
  double best_bound = 0.0;  ///< global lower bound at termination
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
  int lazy_rows_added = 0;
  /// Most rows the LP held at once (model rows that are not column bounds,
  /// plus cuts).
  int max_lp_rows = 0;
  std::vector<IncumbentPoint> incumbent_trace;
};

/// Solves `model` under `options`.
MipResult SolveMip(const MipModel& model, const MipOptions& options = {});

}  // namespace cloudia::mip

#endif  // CLOUDIA_SOLVER_MIP_BRANCH_AND_BOUND_H_
