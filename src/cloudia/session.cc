#include "cloudia/session.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/timer.h"
#include "deploy/solver_registry.h"
#include "measure/recipe.h"

namespace cloudia {

DeploymentSession::DeploymentSession(net::CloudSimulator* cloud,
                                     const graph::CommGraph* app,
                                     SessionOptions options)
    : cloud_(cloud), app_(app), options_(std::move(options)) {
  CLOUDIA_CHECK(cloud != nullptr);
  CLOUDIA_CHECK(app != nullptr);
}

Status DeploymentSession::Allocate() {
  if (allocated_done_) {
    return Status::InvalidArgument("Allocate() already ran in this session");
  }
  const int n = app_->num_nodes();
  if (n < 2) return Status::InvalidArgument("application needs >= 2 nodes");
  if (options_.over_allocation < 0) {
    return Status::InvalidArgument("over_allocation must be >= 0");
  }
  obs::Span span(options_.obs.tracer, "session.allocate", "session",
                 options_.obs.parent);
  int total = n + static_cast<int>(std::floor(
                      static_cast<double>(n) * options_.over_allocation));
  CLOUDIA_ASSIGN_OR_RETURN(allocated_, cloud_->Allocate(total));
  allocated_done_ = true;
  return Status::OK();
}

Status DeploymentSession::Measure() {
  if (measured_done_) {
    return Status::InvalidArgument(
        "Measure() already ran; the session caches one cost matrix and "
        "reuses it across Solve() calls");
  }
  if (!allocated_done_) CLOUDIA_RETURN_IF_ERROR(Allocate());

  obs::Span span(options_.obs.tracer, "session.measure", "session",
                 options_.obs.parent);
  CLOUDIA_ASSIGN_OR_RETURN(
      measure::MeasuredMatrix measured,
      measure::MeasureCostMatrix(
          *cloud_, allocated_,
          {.protocol = options_.protocol,
           .metric = options_.metric,
           .duration_s = options_.measure_duration_s,
           .probe_bytes = options_.probe_bytes,
           .seed = options_.seed},
          options_.cancel, options_.obs.Under(span.id())));
  costs_ = std::move(measured.costs);
  measure_virtual_s_ = measured.virtual_s;
  measured_done_ = true;
  return Status::OK();
}

Result<SessionSolve> SolveOnPool(const graph::CommGraph& app,
                                 const std::vector<net::Instance>& pool,
                                 const deploy::CostMatrix& costs,
                                 const SolveSpec& spec,
                                 const obs::ObsConfig& obs) {
  const int n = app.num_nodes();
  if (n > static_cast<int>(pool.size())) {
    return Status::InvalidArgument(
        "application graph needs " + std::to_string(n) +
        " nodes but the pool has only " + std::to_string(pool.size()) +
        " instances");
  }
  if (costs.size() != static_cast<int>(pool.size())) {
    return Status::InvalidArgument(
        "cost matrix covers " + std::to_string(costs.size()) +
        " instances but the pool has " + std::to_string(pool.size()));
  }

  // The canonical name labels the span and the result; the solve itself
  // goes through the facade, which checks the objective and graph.
  CLOUDIA_ASSIGN_OR_RETURN(const deploy::NdpSolver* solver,
                           deploy::SolverRegistry::Global().Require(spec.method));
  obs::Span span(obs.tracer, std::string("session.solve.") + solver->name(),
                 "session", obs.parent);
  deploy::SolveContext context(Deadline::After(spec.time_budget_s),
                               spec.cancel, spec.on_progress);
  context.set_max_threads(spec.threads);
  if (spec.shared_incumbent != nullptr) {
    context.set_shared_incumbent(spec.shared_incumbent);
  }
  if (obs.tracer != nullptr) {
    context.set_obs(obs.tracer, span.id(), solver->name());
  }
  CLOUDIA_ASSIGN_OR_RETURN(deploy::NdpSolveResult result,
                           deploy::SolveNodeDeploymentByName(
                               app, costs, solver->name(), spec, context));

  SessionSolve solve;
  solve.method = solver->name();
  solve.objective = spec.objective;
  solve.wall_s = context.ElapsedSeconds();
  solve.cost_ms = result.cost;

  CLOUDIA_ASSIGN_OR_RETURN(
      deploy::CostEvaluator eval,
      deploy::CostEvaluator::Create(&app, &costs, spec.objective));

  deploy::Deployment default_deployment(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) default_deployment[static_cast<size_t>(i)] = i;
  solve.default_cost_ms = eval.Cost(default_deployment);
  solve.predicted_improvement =
      solve.default_cost_ms > 0
          ? (solve.default_cost_ms - solve.cost_ms) / solve.default_cost_ms
          : 0.0;

  solve.placement.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int idx = result.deployment[static_cast<size_t>(i)];
    solve.placement.push_back(pool[static_cast<size_t>(idx)]);
  }
  solve.result = std::move(result);
  return solve;
}

Result<SessionSolve> DeploymentSession::Solve(const SolveSpec& spec) {
  if (terminated_done_) {
    return Status::InvalidArgument(
        "Solve() after Terminate(): the over-allocated instances are gone");
  }
  if (!measured_done_) CLOUDIA_RETURN_IF_ERROR(Measure());
  const graph::CommGraph& graph = spec.app != nullptr ? *spec.app : *app_;
  CLOUDIA_ASSIGN_OR_RETURN(
      SessionSolve solve,
      SolveOnPool(graph, allocated_, costs_, spec, options_.obs));
  solves_.push_back(std::move(solve));
  return solves_.back();
}

const SessionSolve* DeploymentSession::best_solve() const {
  const SessionSolve* best = nullptr;
  for (const SessionSolve& solve : solves_) {
    if (best == nullptr || solve.cost_ms < best->cost_ms) best = &solve;
  }
  return best;
}

Result<std::vector<net::Instance>> DeploymentSession::Terminate() {
  const SessionSolve* best = best_solve();
  if (best != nullptr) return Terminate(*best);
  // No successful solve: abandon the session, releasing the whole pool.
  if (terminated_done_) {
    return Status::InvalidArgument("Terminate() already ran in this session");
  }
  if (!allocated_done_) {
    return Status::InvalidArgument("Terminate() before Allocate()");
  }
  std::vector<net::Instance> terminated = allocated_;
  cloud_->Terminate(terminated);
  terminated_done_ = true;
  return terminated;
}

Result<std::vector<net::Instance>> DeploymentSession::Terminate(
    const SessionSolve& keep) {
  if (terminated_done_) {
    return Status::InvalidArgument("Terminate() already ran in this session");
  }
  if (!allocated_done_) {
    return Status::InvalidArgument("Terminate() before Allocate()");
  }
  std::vector<bool> used(allocated_.size(), false);
  for (const net::Instance& inst : keep.placement) {
    for (size_t i = 0; i < allocated_.size(); ++i) {
      if (allocated_[i].id == inst.id) {
        used[i] = true;
        break;
      }
    }
  }
  std::vector<net::Instance> terminated;
  for (size_t i = 0; i < allocated_.size(); ++i) {
    if (!used[i]) terminated.push_back(allocated_[i]);
  }
  cloud_->Terminate(terminated);
  terminated_done_ = true;
  return terminated;
}

}  // namespace cloudia
