#include "deploy/mip_lpndp.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "deploy/random_search.h"
#include "solver/mip/branch_and_bound.h"

namespace cloudia::deploy {

namespace {

constexpr double kSupportTol = 1e-7;
constexpr double kViolationTol = 1e-6;

}  // namespace

Result<NdpSolveResult> SolveLpndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options,
                                     SolveContext& context) {
  CLOUDIA_ASSIGN_OR_RETURN(
      CostEvaluator actual_eval,
      CostEvaluator::Create(&graph, &costs, Objective::kLongestPath));
  CLOUDIA_ASSIGN_OR_RETURN(CostMatrix clustered,
                           ClusterCostMatrix(costs, options.cost_clusters));
  CLOUDIA_ASSIGN_OR_RETURN(std::vector<int> topo, graph.TopologicalOrder());

  const int n = graph.num_nodes();
  const int m = costs.size();
  const int num_edges = graph.num_edges();
  NdpSolveResult result;

  Deployment initial = options.initial;
  if (initial.empty() && n > 0) {
    CLOUDIA_ASSIGN_OR_RETURN(
        initial,
        BootstrapDeployment(graph, costs, Objective::kLongestPath,
                            options.seed));
  }
  CLOUDIA_RETURN_IF_ERROR(
      ValidateDeployment(graph, initial, costs, Objective::kLongestPath));
  result.deployment = initial;
  result.cost = n > 0 ? actual_eval.Cost(initial) : 0.0;
  result.trace.push_back(context.ReportIncumbent(result.cost, initial));
  if (n == 0 || num_edges == 0) {
    result.proven_optimal = true;
    return result;
  }

  // Variable layout: x_ij = i * m + j; then c_e per edge; then t_i per node;
  // finally the objective variable t.
  mip::MipModel model;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) model.AddIntegerVar(0.0);
  }
  const int c_base = n * m;
  for (int e = 0; e < num_edges; ++e) model.AddContinuousVar(0.0);
  const int t_base = c_base + num_edges;
  for (int i = 0; i < n; ++i) model.AddContinuousVar(0.0);
  const int t_var = model.AddContinuousVar(1.0, "t");

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
  // t >= t_i.
  for (int i = 0; i < n; ++i) {
    model.AddConstraint(
        {{{t_var, 1.0}, {t_base + i, -1.0}}, lp::RowSense::kGe, 0.0});
  }
  // t_i' >= t_i + c_e for every edge e = (i, i').
  for (int e = 0; e < num_edges; ++e) {
    const graph::Edge& edge = graph.edges()[static_cast<size_t>(e)];
    model.AddConstraint({{{t_base + edge.dst, 1.0},
                          {t_base + edge.src, -1.0},
                          {c_base + e, -1.0}},
                         lp::RowSense::kGe,
                         0.0});
  }

  mip::MipOptions mip_options;
  mip_options.deadline = context.deadline();
  mip_options.cancel = context.cancel_token();
  mip_options.max_nodes = options.max_nodes;
  // Separation of c_e >= CL(j,j')(x_ij + x_i'j' - 1) per edge e = (i, i').
  mip_options.lazy = [&graph, &clustered, &options, n, m, c_base](
                         const std::vector<double>& x,
                         bool /*integral*/) -> std::vector<lp::Row> {
    struct Violation {
      double amount;
      lp::Row row;
    };
    std::vector<Violation> violations;
    std::vector<std::vector<int>> support(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        if (x[static_cast<size_t>(i * m + j)] > kSupportTol) {
          support[static_cast<size_t>(i)].push_back(j);
        }
      }
    }
    for (int e = 0; e < graph.num_edges(); ++e) {
      const graph::Edge& edge = graph.edges()[static_cast<size_t>(e)];
      double ce_val = x[static_cast<size_t>(c_base + e)];
      for (int j : support[static_cast<size_t>(edge.src)]) {
        for (int j2 : support[static_cast<size_t>(edge.dst)]) {
          if (j == j2) continue;
          double cl = clustered.At(j, j2);
          double violation = cl * (x[static_cast<size_t>(edge.src * m + j)] +
                                   x[static_cast<size_t>(edge.dst * m + j2)] -
                                   1.0) -
                             ce_val;
          if (violation > kViolationTol) {
            lp::Row row;
            row.coeffs = {{c_base + e, 1.0},
                          {edge.src * m + j, -cl},
                          {edge.dst * m + j2, -cl}};
            row.sense = lp::RowSense::kGe;
            row.rhs = -cl;
            violations.push_back({violation, std::move(row)});
          }
        }
      }
    }
    std::sort(violations.begin(), violations.end(),
              [](const Violation& a, const Violation& b) {
                return a.amount > b.amount;
              });
    if (static_cast<int>(violations.size()) > options.max_lazy_rows_per_round) {
      violations.resize(static_cast<size_t>(options.max_lazy_rows_per_round));
    }
    std::vector<lp::Row> rows;
    rows.reserve(violations.size());
    for (auto& v : violations) rows.push_back(std::move(v.row));
    return rows;
  };

  // Warm start: x from the bootstrap deployment; c_e the clustered link
  // costs; t_i the longest clustered path reaching i; t their max.
  {
    std::vector<double> warm(static_cast<size_t>(model.num_vars()), 0.0);
    for (int i = 0; i < n; ++i) {
      warm[static_cast<size_t>(i * m + initial[static_cast<size_t>(i)])] = 1.0;
    }
    for (int e = 0; e < num_edges; ++e) {
      const graph::Edge& edge = graph.edges()[static_cast<size_t>(e)];
      warm[static_cast<size_t>(c_base + e)] =
          clustered.At(initial[static_cast<size_t>(edge.src)],
                       initial[static_cast<size_t>(edge.dst)]);
    }
    double t_max = 0.0;
    for (int v : topo) {
      double tv = warm[static_cast<size_t>(t_base + v)];
      for (int w : graph.OutNeighbors(v)) {
        double cl = clustered.At(initial[static_cast<size_t>(v)],
                                 initial[static_cast<size_t>(w)]);
        double& tw = warm[static_cast<size_t>(t_base + w)];
        tw = std::max(tw, tv + cl);
        t_max = std::max(t_max, tw);
      }
    }
    warm[static_cast<size_t>(t_var)] = t_max;
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
    if (!IsInjective(d, m)) return;
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

Result<NdpSolveResult> SolveLpndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options) {
  SolveContext context(options.deadline);
  return SolveLpndpMip(graph, costs, options, context);
}

}  // namespace cloudia::deploy
