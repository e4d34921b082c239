#include "redeploy/migration_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/timer.h"
#include "deploy/solve.h"

namespace cloudia::redeploy {

namespace {

constexpr double kGainEps = 1e-12;

std::vector<int> UnusedInstances(const deploy::Deployment& d, int m) {
  std::vector<bool> used(static_cast<size_t>(m), false);
  for (int s : d) used[static_cast<size_t>(s)] = true;
  std::vector<int> unused;
  for (int s = 0; s < m; ++s) {
    if (!used[static_cast<size_t>(s)]) unused.push_back(s);
  }
  return unused;
}

int CountMigrations(const deploy::Deployment& from,
                    const deploy::Deployment& to) {
  CLOUDIA_DCHECK(from.size() == to.size());
  int count = 0;
  for (size_t v = 0; v < from.size(); ++v) {
    if (from[v] != to[v]) ++count;
  }
  return count;
}

// Orders the diff between `current` and `target` into executable steps:
// moves into free instances while any exist, swap steps to break cycles of
// occupied instances. Each iteration places at least one node at its target,
// so the loop terminates after <= migrations iterations.
std::vector<MigrationStep> BuildSteps(const deploy::Deployment& current,
                                      const deploy::Deployment& target,
                                      int num_instances) {
  const int n = static_cast<int>(current.size());
  std::vector<int> occupant(static_cast<size_t>(num_instances), -1);
  for (int v = 0; v < n; ++v) {
    occupant[static_cast<size_t>(current[static_cast<size_t>(v)])] = v;
  }
  deploy::Deployment cur = current;
  std::vector<MigrationStep> steps;
  for (;;) {
    bool progressed = false;
    for (int v = 0; v < n; ++v) {
      const int from = cur[static_cast<size_t>(v)];
      const int to = target[static_cast<size_t>(v)];
      if (from == to || occupant[static_cast<size_t>(to)] != -1) continue;
      MigrationStep step;
      step.kind = MigrationStep::Kind::kMove;
      step.node = v;
      step.from = from;
      step.to = to;
      steps.push_back(step);
      occupant[static_cast<size_t>(from)] = -1;
      occupant[static_cast<size_t>(to)] = v;
      cur[static_cast<size_t>(v)] = to;
      progressed = true;
    }
    if (progressed) continue;
    // Any remaining displaced node sits in a cycle of occupied instances:
    // break it with a swap that parks this node at its target.
    int v = -1;
    for (int w = 0; w < n; ++w) {
      if (cur[static_cast<size_t>(w)] != target[static_cast<size_t>(w)]) {
        v = w;
        break;
      }
    }
    if (v < 0) break;  // everything placed
    const int to = target[static_cast<size_t>(v)];
    const int u = occupant[static_cast<size_t>(to)];
    CLOUDIA_CHECK(u >= 0 && u != v);
    MigrationStep step;
    step.kind = MigrationStep::Kind::kSwap;
    step.node = v;
    step.other_node = u;
    step.from = cur[static_cast<size_t>(v)];
    step.to = to;
    steps.push_back(step);
    occupant[static_cast<size_t>(step.from)] = u;
    occupant[static_cast<size_t>(to)] = v;
    std::swap(cur[static_cast<size_t>(v)], cur[static_cast<size_t>(u)]);
  }
  return steps;
}

// Steepest-descent search over the swap/move neighborhood of `current`,
// priced with the evaluator's incremental multi-term API, under the
// migration budget and the effective per-move `penalty`. The evaluator's
// spec carries no migration term (the planner does its own move bookkeeping
// against `current`); its totals cover latency plus any price term. Returns
// the best reachable deployment.
deploy::Deployment ConstrainedDescent(const deploy::CostEvaluator& eval,
                                      const deploy::Deployment& current,
                                      int num_instances, int budget,
                                      double penalty,
                                      const PlannerOptions& options) {
  const int n = static_cast<int>(current.size());
  deploy::Deployment d = current;
  deploy::CostTerms terms = eval.Terms(d);
  double cost = eval.Total(terms);
  int migrations = 0;
  std::vector<int> unused = UnusedInstances(d, num_instances);

  auto moved = [&](int node, int instance) {
    return instance != current[static_cast<size_t>(node)] ? 1 : 0;
  };

  for (int step = 0; step < options.max_steps; ++step) {
    // One steepest move per step: scan every feasible candidate, apply the
    // largest penalized gain. Steepest (not first-improvement) matters under
    // a tight budget: each accepted migration should buy as much objective
    // as any single move can.
    double best_gain = kGainEps;
    int best_a = -1, best_b = -1;   // swap candidate
    size_t best_u = 0;              // move candidate (index into unused)
    bool best_is_move = false;
    deploy::CostTerms best_terms = terms;
    double best_cost = cost;
    int best_migs = migrations;

    for (int a = 0; a < n; ++a) {
      const int inst_a = d[static_cast<size_t>(a)];
      for (size_t u = 0; u < unused.size(); ++u) {
        const int new_migs = migrations - moved(a, inst_a) +
                             moved(a, unused[u]);
        if (new_migs > budget) continue;
        const deploy::CostTerms ct = eval.MoveTerms(d, terms, a, unused[u]);
        const double c = eval.Total(ct);
        const double gain =
            (cost + penalty * migrations) - (c + penalty * new_migs);
        if (gain > best_gain) {
          best_gain = gain;
          best_is_move = true;
          best_a = a;
          best_u = u;
          best_terms = ct;
          best_cost = c;
          best_migs = new_migs;
        }
      }
      for (int b = a + 1; b < n; ++b) {
        const int inst_b = d[static_cast<size_t>(b)];
        const int new_migs = migrations - moved(a, inst_a) - moved(b, inst_b) +
                             moved(a, inst_b) + moved(b, inst_a);
        if (new_migs > budget) continue;
        const deploy::CostTerms ct = eval.SwapTerms(d, terms, a, b);
        const double c = eval.Total(ct);
        const double gain =
            (cost + penalty * migrations) - (c + penalty * new_migs);
        if (gain > best_gain) {
          best_gain = gain;
          best_is_move = false;
          best_a = a;
          best_b = b;
          best_terms = ct;
          best_cost = c;
          best_migs = new_migs;
        }
      }
    }
    if (best_a < 0) break;  // no feasible improving candidate
    if (best_is_move) {
      std::swap(d[static_cast<size_t>(best_a)], unused[best_u]);
    } else {
      std::swap(d[static_cast<size_t>(best_a)],
                d[static_cast<size_t>(best_b)]);
    }
    terms = best_terms;
    cost = best_cost;
    migrations = best_migs;
  }
  return d;
}

// The planner reports deployment costs without the migration term (see
// PlannerOptions::objective): same primary objective and price term, no
// reference bookkeeping.
deploy::ObjectiveSpec StripMigrationTerm(const deploy::ObjectiveSpec& spec) {
  deploy::ObjectiveSpec stripped = spec;
  stripped.migration_weight = 0.0;
  stripped.reference.clear();
  return stripped;
}

}  // namespace

Result<MigrationPlan> PlanMigration(const graph::CommGraph& graph,
                                    const deploy::CostMatrix& costs,
                                    const deploy::Deployment& current,
                                    const PlannerOptions& options) {
  const deploy::ObjectiveSpec spec = StripMigrationTerm(options.objective);
  CLOUDIA_RETURN_IF_ERROR(
      deploy::ValidateDeployment(graph, current, costs, spec));
  if (options.max_steps < 1) {
    return Status::InvalidArgument("max_steps must be >= 1");
  }
  CLOUDIA_ASSIGN_OR_RETURN(
      deploy::CostEvaluator eval,
      deploy::CostEvaluator::Create(&graph, &costs, spec));

  const double penalty = options.objective.migration_weight;
  const int n = graph.num_nodes();
  const bool unlimited =
      options.max_migrations < 0 || options.max_migrations >= n;

  MigrationPlan plan;
  plan.target = current;
  plan.cost_before_ms = eval.Cost(current);
  plan.cost_after_ms = plan.cost_before_ms;
  if (options.max_migrations == 0) return plan;  // keep everything, verbatim

  deploy::Deployment candidate;
  if (unlimited && penalty <= 0.0) {
    // Unlimited free moves: this *is* the unconstrained problem, so answer
    // it with a real solver (seeded from the current deployment, which
    // consuming solvers can only improve on).
    deploy::NdpSolveOptions sopts;
    sopts.objective = spec;
    sopts.seed = options.seed;
    sopts.threads = 1;  // planning must be deterministic
    sopts.initial = current;
    deploy::SolveContext context(Deadline::After(options.time_budget_s));
    context.set_max_threads(1);
    CLOUDIA_ASSIGN_OR_RETURN(
        deploy::NdpSolveResult result,
        deploy::SolveNodeDeploymentByName(graph, costs,
                                          options.full_solve_method, sopts,
                                          context));
    candidate = std::move(result.deployment);
  } else {
    const int budget = unlimited ? n : options.max_migrations;
    candidate = ConstrainedDescent(eval, current, costs.size(), budget,
                                   penalty, options);
  }

  const double candidate_cost = eval.Cost(candidate);
  const int migrations = CountMigrations(current, candidate);
  const double gain = plan.cost_before_ms - candidate_cost;
  // Never emit a regression, and with a penalty the whole plan must pay for
  // itself (the descent enforces this per step; the solver path checks here).
  if (gain <= kGainEps || gain <= penalty * migrations + kGainEps) {
    return plan;
  }
  plan.target = std::move(candidate);
  plan.cost_after_ms = candidate_cost;
  plan.migrations = migrations;
  plan.steps = BuildSteps(current, plan.target, costs.size());
  return plan;
}

Status ValidateMigrationPlan(const graph::CommGraph& graph,
                             const deploy::CostMatrix& costs,
                             const deploy::Deployment& current,
                             const MigrationPlan& plan,
                             const deploy::ObjectiveSpec& objective) {
  // Plans advertise costs without the migration term (PlannerOptions doc).
  const deploy::ObjectiveSpec spec = StripMigrationTerm(objective);
  CLOUDIA_RETURN_IF_ERROR(
      deploy::ValidateDeployment(graph, current, costs, spec));
  CLOUDIA_RETURN_IF_ERROR(
      deploy::ValidateDeployment(graph, plan.target, costs, spec));

  const int n = static_cast<int>(current.size());
  std::vector<int> occupant(static_cast<size_t>(costs.size()), -1);
  for (int v = 0; v < n; ++v) {
    occupant[static_cast<size_t>(current[static_cast<size_t>(v)])] = v;
  }
  deploy::Deployment cur = current;
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const MigrationStep& step = plan.steps[s];
    const std::string at = "step " + std::to_string(s) + ": ";
    if (step.node < 0 || step.node >= n || step.from == step.to ||
        step.from < 0 || step.from >= costs.size() || step.to < 0 ||
        step.to >= costs.size()) {
      return Status::InvalidArgument(at + "malformed step");
    }
    if (cur[static_cast<size_t>(step.node)] != step.from) {
      return Status::InvalidArgument(
          at + "node " + std::to_string(step.node) + " is not on instance " +
          std::to_string(step.from));
    }
    if (step.kind == MigrationStep::Kind::kMove) {
      if (occupant[static_cast<size_t>(step.to)] != -1) {
        return Status::InvalidArgument(
            at + "move targets occupied instance " + std::to_string(step.to));
      }
      occupant[static_cast<size_t>(step.from)] = -1;
      occupant[static_cast<size_t>(step.to)] = step.node;
      cur[static_cast<size_t>(step.node)] = step.to;
    } else {
      if (step.other_node < 0 || step.other_node >= n ||
          step.other_node == step.node ||
          cur[static_cast<size_t>(step.other_node)] != step.to) {
        return Status::InvalidArgument(
            at + "swap partner is not on instance " + std::to_string(step.to));
      }
      occupant[static_cast<size_t>(step.from)] = step.other_node;
      occupant[static_cast<size_t>(step.to)] = step.node;
      std::swap(cur[static_cast<size_t>(step.node)],
                cur[static_cast<size_t>(step.other_node)]);
    }
  }
  if (cur != plan.target) {
    return Status::Infeasible(
        "applying the steps in order does not reach the advertised target");
  }
  if (CountMigrations(current, plan.target) != plan.migrations) {
    return Status::InvalidArgument("advertised migration count is wrong");
  }
  CLOUDIA_ASSIGN_OR_RETURN(
      deploy::CostEvaluator eval,
      deploy::CostEvaluator::Create(&graph, &costs, spec));
  const double before = eval.Cost(current);
  const double after = eval.Cost(plan.target);
  if (before != plan.cost_before_ms || after != plan.cost_after_ms) {
    return Status::InvalidArgument(
        "advertised costs do not match the matrix (before " +
        std::to_string(before) + " vs " + std::to_string(plan.cost_before_ms) +
        ", after " + std::to_string(after) + " vs " +
        std::to_string(plan.cost_after_ms) + ")");
  }
  return Status::OK();
}

}  // namespace cloudia::redeploy
