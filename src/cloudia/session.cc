#include "cloudia/session.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/timer.h"
#include "deploy/solver_registry.h"

namespace cloudia {

DeploymentSession::DeploymentSession(net::CloudSimulator* cloud,
                                     const graph::CommGraph* app,
                                     SessionOptions options)
    : cloud_(cloud), app_(app), options_(std::move(options)) {
  CLOUDIA_CHECK(app != nullptr);
}

Status DeploymentSession::Allocate() {
  if (allocated_done_) {
    return Status::InvalidArgument("Allocate() already ran in this session");
  }
  if (cloud_ == nullptr) {
    return Status::InvalidArgument(
        "session has no cloud: construct it with a CloudSimulator or feed it "
        "via AdoptMeasurement()");
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
  measure::ProtocolOptions popts;
  popts.msg_bytes = options_.probe_bytes;
  popts.keep_percentiles = options_.metric == measure::CostMetric::kP99;
  popts.seed = measure::MeasurementProtocolSeed(options_.seed);
  popts.cancel = options_.cancel;
  popts.duration_s = options_.measure_duration_s > 0
                         ? options_.measure_duration_s
                         : measure::DefaultMeasureDurationS(allocated_.size());
  CLOUDIA_ASSIGN_OR_RETURN(
      measure::MeasurementResult measurement,
      measure::RunProtocol(*cloud_, allocated_, options_.protocol, popts));
  measure_virtual_s_ = measurement.virtual_time_ms / 1e3;
  // Full coverage is required here: a sentinel-poisoned matrix would skew
  // every Solve() this session caches it for.
  CLOUDIA_ASSIGN_OR_RETURN(
      costs_, measure::BuildCostMatrix(measurement, options_.metric));
  measured_done_ = true;
  return Status::OK();
}

Status DeploymentSession::AdoptMeasurement(std::vector<net::Instance> instances,
                                           deploy::CostMatrix costs,
                                           double measure_virtual_s) {
  // Re-adoption is the redeployment re-solve path: a session fed by an
  // external cache may adopt a *refreshed* matrix in place and keep its
  // solve history. A session that allocated or measured its own pool owns
  // those instances -- swapping the pool out from under it would leak them
  // -- so only never-started and previously-adopted sessions qualify.
  const bool readopting = !owns_pool_ && !terminated_done_;
  if ((allocated_done_ || measured_done_) && !readopting) {
    return Status::InvalidArgument(
        "AdoptMeasurement() on a session that already allocated or measured "
        "its own pool (re-adoption only replaces adopted measurements)");
  }
  if (instances.size() < 2) {
    return Status::InvalidArgument("adopted pool needs >= 2 instances");
  }
  if (costs.size() != static_cast<int>(instances.size())) {
    return Status::InvalidArgument(
        "adopted cost matrix covers " + std::to_string(costs.size()) +
        " instances but the pool has " + std::to_string(instances.size()));
  }
  allocated_ = std::move(instances);
  costs_ = std::move(costs);
  measure_virtual_s_ = measure_virtual_s;
  allocated_done_ = true;
  measured_done_ = true;
  owns_pool_ = false;
  return Status::OK();
}

Result<SessionSolve> DeploymentSession::Solve(const SolveSpec& spec) {
  if (terminated_done_) {
    return Status::InvalidArgument(
        "Solve() after Terminate(): the over-allocated instances are gone");
  }
  if (!measured_done_) CLOUDIA_RETURN_IF_ERROR(Measure());

  const graph::CommGraph* graph = spec.app != nullptr ? spec.app : app_;
  const int n = graph->num_nodes();
  if (n > static_cast<int>(allocated_.size())) {
    return Status::InvalidArgument(
        "application graph needs " + std::to_string(n) +
        " nodes but the session allocated only " +
        std::to_string(allocated_.size()) + " instances");
  }

  CLOUDIA_ASSIGN_OR_RETURN(const deploy::NdpSolver* solver,
                           deploy::SolverRegistry::Global().Require(spec.method));
  if (!solver->Supports(spec.objective.primary)) {
    return Status::InvalidArgument(
        std::string(solver->display_name()) + " is not formulated for the " +
        deploy::ObjectiveName(spec.objective) +
        " objective (see paper Sect. 4.4 for the CP/LPNDP case)");
  }
  // Validate objective/graph compatibility before launching the solver.
  CLOUDIA_ASSIGN_OR_RETURN(
      deploy::CostEvaluator eval,
      deploy::CostEvaluator::Create(graph, &costs_, spec.objective));

  deploy::NdpProblem problem;
  problem.graph = graph;
  problem.costs = &costs_;
  problem.objective = spec.objective;

  deploy::NdpSolveOptions sopts;
  sopts.objective = spec.objective;
  sopts.cost_clusters = spec.cost_clusters;
  sopts.r1_samples = spec.r1_samples;
  sopts.threads = spec.threads;
  sopts.portfolio_members = spec.portfolio_members;
  sopts.seed = spec.seed;
  sopts.initial = spec.initial;
  sopts.warm_start_hints = spec.warm_start_hints;
  sopts.hier_clusters = spec.hier_clusters;
  sopts.hier_shard_solver = spec.hier_shard_solver;
  sopts.hier_polish_steps = spec.hier_polish_steps;

  obs::Span span(options_.obs.tracer,
                 std::string("session.solve.") + solver->name(), "session",
                 options_.obs.parent);
  deploy::SolveContext context(Deadline::After(spec.time_budget_s),
                               spec.cancel, spec.on_progress);
  context.set_max_threads(spec.threads);
  if (spec.shared_incumbent != nullptr) {
    context.set_shared_incumbent(spec.shared_incumbent);
  }
  if (options_.obs.tracer != nullptr) {
    context.set_obs(options_.obs.tracer, span.id(), solver->name());
  }
  CLOUDIA_ASSIGN_OR_RETURN(deploy::NdpSolveResult result,
                           solver->Solve(problem, sopts, context));

  SessionSolve solve;
  solve.method = solver->name();
  solve.objective = spec.objective;
  solve.wall_s = context.ElapsedSeconds();
  solve.cost_ms = result.cost;

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
    solve.placement.push_back(allocated_[static_cast<size_t>(idx)]);
  }
  solve.result = std::move(result);

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
  if (!owns_pool_) {
    return Status::InvalidArgument(
        "Terminate() on an adopted pool: the layer that measured these "
        "instances owns their lifetime");
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
  if (!owns_pool_) {
    return Status::InvalidArgument(
        "Terminate() on an adopted pool: the layer that measured these "
        "instances owns their lifetime");
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
