#include "deploy/mip_llndp.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "deploy/random_search.h"
#include "solver/mip/branch_and_bound.h"

namespace cloudia::deploy {

namespace {

constexpr double kSupportTol = 1e-7;
constexpr double kViolationTol = 1e-6;

// One candidate violated coupling row, kept for sorting by violation.
struct Violation {
  double amount;
  lp::Row row;
};

// Keeps the `cap` most violated rows.
std::vector<lp::Row> TopRows(std::vector<Violation> violations, int cap) {
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return a.amount > b.amount;
            });
  if (static_cast<int>(violations.size()) > cap) {
    violations.resize(static_cast<size_t>(cap));
  }
  std::vector<lp::Row> rows;
  rows.reserve(violations.size());
  for (auto& v : violations) rows.push_back(std::move(v.row));
  return rows;
}

// Values of variable block x starting at 0: x index (i, j) = i * m + j.
std::vector<std::vector<int>> SupportsPerNode(const std::vector<double>& x,
                                              int n, int m) {
  std::vector<std::vector<int>> support(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      if (x[static_cast<size_t>(i * m + j)] > kSupportTol) {
        support[static_cast<size_t>(i)].push_back(j);
      }
    }
  }
  return support;
}

}  // namespace

Result<NdpSolveResult> SolveLlndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options,
                                     SolveContext& context) {
  CLOUDIA_ASSIGN_OR_RETURN(
      CostEvaluator actual_eval,
      CostEvaluator::Create(&graph, &costs, Objective::kLongestLink));
  CLOUDIA_ASSIGN_OR_RETURN(CostMatrix clustered,
                           ClusterCostMatrix(costs, options.cost_clusters));

  const int n = graph.num_nodes();
  const int m = costs.size();
  NdpSolveResult result;

  Deployment initial = options.initial;
  if (initial.empty() && n > 0) {
    CLOUDIA_ASSIGN_OR_RETURN(
        initial,
        BootstrapDeployment(graph, costs, Objective::kLongestLink,
                            options.seed));
  }
  CLOUDIA_RETURN_IF_ERROR(
      ValidateDeployment(graph, initial, costs, Objective::kLongestLink));
  result.deployment = initial;
  result.cost = n > 0 ? actual_eval.Cost(initial) : 0.0;
  result.trace.push_back(context.ReportIncumbent(result.cost, initial));
  if (n == 0 || graph.num_edges() == 0) {
    result.proven_optimal = true;
    return result;
  }

  // Model: x_ij = i * m + j (integers; <= 1 implied by the assignment rows),
  // then the objective variable c.
  mip::MipModel model;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) model.AddIntegerVar(0.0);
  }
  const int c_var = model.AddContinuousVar(1.0, "c");
  for (int i = 0; i < n; ++i) {
    lp::Row r;
    for (int j = 0; j < m; ++j) r.coeffs.push_back({i * m + j, 1.0});
    r.sense = lp::RowSense::kEq;
    r.rhs = 1.0;
    model.AddConstraint(std::move(r));
  }
  for (int j = 0; j < m; ++j) {
    lp::Row r;
    for (int i = 0; i < n; ++i) r.coeffs.push_back({i * m + j, 1.0});
    r.sense = lp::RowSense::kLe;
    r.rhs = 1.0;
    model.AddConstraint(std::move(r));
  }

  mip::MipOptions mip_options;
  mip_options.deadline = context.deadline();
  mip_options.cancel = context.cancel_token();
  mip_options.max_nodes = options.max_nodes;
  // Separation of c >= CL(j,j')(x_ij + x_i'j' - 1): rewritten as
  //   c - CL * x_ij - CL * x_i'j'  >=  -CL.
  mip_options.lazy = [&graph, &clustered, &options, n, m, c_var](
                         const std::vector<double>& x,
                         bool /*integral*/) -> std::vector<lp::Row> {
    std::vector<Violation> violations;
    double c_val = x[static_cast<size_t>(c_var)];
    auto support = SupportsPerNode(x, n, m);
    for (const graph::Edge& e : graph.edges()) {
      for (int j : support[static_cast<size_t>(e.src)]) {
        for (int j2 : support[static_cast<size_t>(e.dst)]) {
          if (j == j2) continue;
          double cl = clustered.At(j, j2);
          double activation = x[static_cast<size_t>(e.src * m + j)] +
                              x[static_cast<size_t>(e.dst * m + j2)] - 1.0;
          double violation = cl * activation - c_val;
          if (violation > kViolationTol) {
            lp::Row row;
            row.coeffs = {{c_var, 1.0},
                          {e.src * m + j, -cl},
                          {e.dst * m + j2, -cl}};
            row.sense = lp::RowSense::kGe;
            row.rhs = -cl;
            violations.push_back({violation, std::move(row)});
          }
        }
      }
    }
    return TopRows(std::move(violations), options.max_lazy_rows_per_round);
  };

  // Warm start from the bootstrap deployment.
  {
    std::vector<double> warm(static_cast<size_t>(model.num_vars()), 0.0);
    for (int i = 0; i < n; ++i) {
      warm[static_cast<size_t>(i * m + initial[static_cast<size_t>(i)])] = 1.0;
    }
    // c must cover every clustered link cost of the deployment.
    double c0 = 0.0;
    for (const graph::Edge& e : graph.edges()) {
      c0 = std::max(c0, clustered.At(initial[static_cast<size_t>(e.src)],
                                     initial[static_cast<size_t>(e.dst)]));
    }
    warm[static_cast<size_t>(c_var)] = c0;
    mip_options.warm_start = std::move(warm);
  }

  mip_options.on_incumbent = [&](const std::vector<double>& x, double /*obj*/,
                                 double /*seconds*/) {
    Deployment d(static_cast<size_t>(n), -1);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        if (x[static_cast<size_t>(i * m + j)] > 0.5) {
          d[static_cast<size_t>(i)] = j;
          break;
        }
      }
    }
    if (!IsInjective(d, m)) return;  // defensive; should not happen
    double actual = actual_eval.Cost(d);
    if (actual < result.cost) {
      result.cost = actual;
      result.trace.push_back(context.ReportIncumbent(actual, d));
      result.deployment = std::move(d);
    }
  };

  mip::MipResult mip_result = mip::SolveMip(model, mip_options);
  TraceMipSummary(context, mip_result);
  result.proven_optimal = (mip_result.status == mip::MipStatus::kOptimal);
  result.iterations = mip_result.nodes;
  return result;
}

Result<NdpSolveResult> SolveLlndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options) {
  SolveContext context(options.deadline);
  return SolveLlndpMip(graph, costs, options, context);
}

void TraceMipSummary(const SolveContext& context,
                     const mip::MipResult& mip_result) {
  obs::Tracer* tracer = context.tracer();
  if (tracer == nullptr) return;
  std::vector<obs::TraceArg> args = {
      obs::Arg("solver", context.solver_label()),
      obs::Arg("nodes", static_cast<double>(mip_result.nodes)),
      obs::Arg("lp_pivots", static_cast<double>(mip_result.lp_iterations)),
      obs::Arg("lazy_rows", static_cast<double>(mip_result.lazy_rows_added)),
      obs::Arg("max_lp_rows", static_cast<double>(mip_result.max_lp_rows))};
  if (std::isfinite(mip_result.best_bound)) {
    args.push_back(obs::Arg("best_bound", mip_result.best_bound));
  }
  tracer->Instant("mip.summary", "solve", context.obs_parent(),
                  std::move(args));
}

}  // namespace cloudia::deploy
