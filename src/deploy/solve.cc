#include "deploy/solve.h"

#include "common/check.h"
#include "deploy/solver_registry.h"

namespace cloudia::deploy {

Result<NdpSolveResult> SolveNodeDeploymentByName(const graph::CommGraph& graph,
                                                 const CostMatrix& costs,
                                                 std::string_view method,
                                                 const NdpSolveOptions& options,
                                                 SolveContext& context) {
  // Validate objective/graph compatibility up front.
  CLOUDIA_RETURN_IF_ERROR(
      CostEvaluator::Create(&graph, &costs, options.objective).status());

  CLOUDIA_ASSIGN_OR_RETURN(const NdpSolver* solver,
                           SolverRegistry::Global().Require(method));
  if (!solver->Supports(options.objective.primary)) {
    return Status::InvalidArgument(
        std::string(solver->display_name()) + " is not formulated for the " +
        ObjectiveName(options.objective) +
        " objective (see paper Sect. 4.4 for the CP/LPNDP case)");
  }

  NdpProblem problem;
  problem.graph = &graph;
  problem.costs = &costs;
  problem.objective = options.objective;
  return solver->Solve(problem, options, context);
}

Result<NdpSolveResult> SolveNodeDeployment(const graph::CommGraph& graph,
                                           const CostMatrix& costs,
                                           const NdpSolveOptions& options) {
  SolveContext context(Deadline::After(options.time_budget_s));
  return SolveNodeDeploymentByName(graph, costs, MethodKey(options.method),
                                   options, context);
}

}  // namespace cloudia::deploy
