// Name-indexed registry of node-deployment solvers plus the objective-name
// round-trip shared by the facade, the CLI, and the staged session API.
//
// The global registry self-populates with the paper's methods (G1/G2, R1/R2,
// CP, MIP) and the local-search extension on first use; additional solvers
// can be registered at startup and become immediately usable by name
// everywhere (deploy::SolveNodeDeploymentByName, cloudia::DeploymentSession,
// cloudia_cli --method=...).
#ifndef CLOUDIA_DEPLOY_SOLVER_REGISTRY_H_
#define CLOUDIA_DEPLOY_SOLVER_REGISTRY_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "deploy/solve.h"
#include "deploy/solver.h"

namespace cloudia::deploy {

class SolverRegistry {
 public:
  /// The process-wide registry, with the built-in solvers pre-registered.
  static SolverRegistry& Global();

  /// Registers `solver` under its canonical name. Fails with InvalidArgument
  /// on a null solver, an empty name, or a name that is already taken.
  Status Register(std::unique_ptr<NdpSolver> solver);

  /// Case-insensitive lookup; nullptr when unknown. The returned solver is
  /// owned by the registry and valid for the registry's lifetime.
  const NdpSolver* Find(std::string_view name) const;

  /// Like Find, but a clean NotFound error (listing the known names) instead
  /// of nullptr -- never a crash on a typo.
  Result<const NdpSolver*> Require(std::string_view name) const;

  /// Canonical solver names, sorted.
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<NdpSolver>> solvers_;
};

/// Registers the built-in methods into `registry`; ignores names already
/// present (so it is idempotent and composes with custom registrations).
void RegisterBuiltinSolvers(SolverRegistry& registry);

/// Canonical registry key for a facade Method ("g1", "cp", "local", ...).
const char* MethodKey(Method method);

/// Parses an objective name: "longest-link" / "LongestLink" / "ll" and
/// "longest-path" / "LongestPath" / "lp". Round-trips with ObjectiveName.
Result<Objective> ParseObjective(std::string_view name);

/// Runs `inner` -- a solver that understands only the primary latency
/// objective (CP, the MIP encodings, the hierarchical decomposition) -- under
/// a multi-term ObjectiveSpec. Degenerate specs call `inner` directly.
/// Otherwise `inner` runs latency-only in an isolated sub-context (same
/// deadline / cancellation / thread budget, but no shared incumbent: a
/// latency-scale cost must never be published into a total-scale race);
/// every inner incumbent is re-costed under the full spec and forwarded to
/// `context`, the best re-costed deployment seen wins, and
/// `proven_optimal` is cleared (a latency optimality proof does not
/// transfer to the weighted total).
Result<NdpSolveResult> SolveWithSecondaryRecost(
    const NdpProblem& problem, SolveContext& context,
    const std::function<Result<NdpSolveResult>(const NdpProblem& problem,
                                               SolveContext& context)>& inner);

/// Validates a portfolio member list against `registry` and canonicalizes
/// each entry to its registry key. Fails with InvalidArgument on an unknown
/// name (listing the known ones), a duplicate member (racing two copies of
/// one solver only burns threads), or "portfolio" itself (the race cannot
/// contain itself). An empty list is valid and means "the default set".
Result<std::vector<std::string>> ValidatePortfolioMembers(
    const SolverRegistry& registry, const std::vector<std::string>& members);

}  // namespace cloudia::deploy

#endif  // CLOUDIA_DEPLOY_SOLVER_REGISTRY_H_
