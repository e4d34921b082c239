// Migration-constrained re-deployment planning.
//
// Once the DriftMonitor declares the deployment-time cost matrix stale and a
// full re-measure produced a fresh one, the question is not "what is the
// best deployment?" but "what is the best deployment *reachable from here*?"
// Moving a node means live-migrating a VM (or draining and restarting it),
// which costs downtime and money -- decision-support work on cloud migration
// (Khajeh-Hosseini et al.) prices the move, not only the target. The planner
// therefore searches the swap/move neighborhood of the *current* deployment
// under two complementary prices:
//
//   * a hard budget `max_migrations` K: at most K nodes may end up on a
//     different instance than they run on today (K = 0 degenerates to "keep
//     everything", K >= V to an unconstrained re-solve);
//   * an optional per-move penalty `objective.migration_weight` folded into
//     the objective, so a move must buy at least its own cost in latency.
//
// The search runs on deploy::CostEvaluator's incremental SwapCost/MoveCost
// hot path -- O(deg) per candidate -- exactly like the unconstrained local
// search, plus O(1) migration-count bookkeeping against the current
// deployment. For K >= V the planner instead dispatches an unconstrained
// solve through the SolverRegistry (seeded with the current deployment) so
// "unlimited budget" matches what a fresh deployment would have produced.
//
// The result is an ordered MigrationPlan whose steps are executable one at a
// time: every move targets an instance that is free at that point in the
// sequence (cycles among occupied instances are broken with swap steps), and
// ValidateMigrationPlan replays the steps to prove the plan reaches the
// advertised deployment at the advertised cost.
#ifndef CLOUDIA_REDEPLOY_MIGRATION_PLANNER_H_
#define CLOUDIA_REDEPLOY_MIGRATION_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "deploy/cost.h"
#include "graph/comm_graph.h"

namespace cloudia::redeploy {

struct PlannerOptions {
  /// Max nodes that may change instance; < 0 or >= node count means
  /// unconstrained (an unlimited budget), 0 means "never move anything".
  int max_migrations = -1;
  /// Objective spec for the search. The planner always prices migrations
  /// against the *current* deployment: `migration_weight` is the per-move
  /// penalty (ms), so a move must improve the deployment cost by more than
  /// it to be accepted (0 = free moves), and any `reference` is ignored.
  /// `cost_before_ms`/`cost_after_ms` exclude the migration term (they
  /// answer "what does the deployment cost", not "what did it cost to get
  /// there"). Price terms are honored as-is.
  deploy::ObjectiveSpec objective;
  /// Registry solver used for the unconstrained (K >= V) path; it is seeded
  /// with the current deployment when it consumes initials.
  std::string full_solve_method = "local";
  /// Wall budget of the unconstrained path's solver.
  double time_budget_s = 2.0;
  /// Constrained path: the steepest descent accepts one move per step and
  /// normally stops when no feasible improving candidate remains; this is
  /// a safety cap on accepted moves for degenerate landscapes.
  int max_steps = 1000;
  uint64_t seed = 1;

  bool operator==(const PlannerOptions&) const = default;
};

/// One executable redeployment step.
struct MigrationStep {
  enum class Kind { kMove, kSwap };
  Kind kind = Kind::kMove;
  /// kMove: relocate `node` from instance `from` to the (free) instance
  /// `to`. kSwap: exchange the instances of `node` (at `from`) and
  /// `other_node` (at `to`) -- the cycle-breaking primitive when no free
  /// instance exists.
  int node = 0;
  int other_node = -1;  ///< kSwap only
  int from = 0;
  int to = 0;
};

/// An ordered, validated redeployment plan.
struct MigrationPlan {
  /// The deployment after all steps (node -> instance).
  deploy::Deployment target;
  std::vector<MigrationStep> steps;
  /// Nodes whose instance differs between current and target.
  int migrations = 0;
  /// Objective cost of the *current* deployment under the fresh matrix.
  double cost_before_ms = 0.0;
  /// Objective cost of `target` under the fresh matrix.
  double cost_after_ms = 0.0;
  /// cost_before - cost_after (>= 0; the planner never emits regressions).
  double improvement_ms() const { return cost_before_ms - cost_after_ms; }
  bool empty() const { return steps.empty(); }
};

/// Plans the best redeployment of `current` under `costs` subject to the
/// options' migration budget and penalty. `current` must be a valid
/// deployment of `graph` on `costs`. Deterministic for fixed inputs.
/// K = 0 (or no improving move) returns `current` verbatim with no steps.
Result<MigrationPlan> PlanMigration(const graph::CommGraph& graph,
                                    const deploy::CostMatrix& costs,
                                    const deploy::Deployment& current,
                                    const PlannerOptions& options);

/// Replays `plan.steps` from `current` and fails unless every step is
/// executable (moves only target free instances, swaps only exchange
/// occupied ones, no node appears where it is not), the final deployment
/// equals `plan.target`, the advertised migration count and costs match,
/// and the target is a valid (injective) deployment.
Status ValidateMigrationPlan(const graph::CommGraph& graph,
                             const deploy::CostMatrix& costs,
                             const deploy::Deployment& current,
                             const MigrationPlan& plan,
                             const deploy::ObjectiveSpec& objective);

}  // namespace cloudia::redeploy

#endif  // CLOUDIA_REDEPLOY_MIGRATION_PLANNER_H_
