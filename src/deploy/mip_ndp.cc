#include "deploy/mip_ndp.h"

#include <algorithm>
#include <functional>

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

// Separation of c_e >= CL(j,j')(x_ij + x_i'j' - 1) per edge e = (i, i'),
// rewritten as c_e - CL * x_ij - CL * x_i'j' >= -CL, where c_e is column
// edge_cost_col[e]. Returns the `cap` most violated rows.
std::vector<lp::Row> SeparateCoupling(const std::vector<double>& x,
                                      const graph::CommGraph& graph,
                                      const CostMatrix& clustered, int m,
                                      const std::vector<int>& edge_cost_col,
                                      int cap) {
  std::vector<Violation> violations;
  auto support = SupportsPerNode(x, graph.num_nodes(), m);
  for (int e = 0; e < graph.num_edges(); ++e) {
    const graph::Edge& edge = graph.edges()[static_cast<size_t>(e)];
    const int c_col = edge_cost_col[static_cast<size_t>(e)];
    double c_val = x[static_cast<size_t>(c_col)];
    for (int j : support[static_cast<size_t>(edge.src)]) {
      for (int j2 : support[static_cast<size_t>(edge.dst)]) {
        if (j == j2) continue;
        double cl = clustered.At(j, j2);
        double activation = x[static_cast<size_t>(edge.src * m + j)] +
                            x[static_cast<size_t>(edge.dst * m + j2)] - 1.0;
        double violation = cl * activation - c_val;
        if (violation > kViolationTol) {
          lp::Row row;
          row.coeffs = {{c_col, 1.0},
                        {edge.src * m + j, -cl},
                        {edge.dst * m + j2, -cl}};
          row.sense = lp::RowSense::kGe;
          row.rhs = -cl;
          violations.push_back({violation, std::move(row)});
        }
      }
    }
  }
  return TopRows(std::move(violations), cap);
}

// With a tracer on `context`, emits one "mip.summary" instant under its
// parent span (an open bound exports as null).
void TraceMipSummary(const SolveContext& context,
                     const mip::MipResult& mip_result) {
  obs::Tracer* tracer = context.tracer();
  if (tracer == nullptr) return;
  tracer->Instant(
      "mip.summary", "solve", context.obs_parent(),
      {obs::Arg("solver", context.solver_label()),
       obs::Arg("nodes", static_cast<double>(mip_result.nodes)),
       obs::Arg("lp_pivots", static_cast<double>(mip_result.lp_iterations)),
       obs::Arg("lazy_rows", static_cast<double>(mip_result.lazy_rows_added)),
       obs::Arg("max_lp_rows", static_cast<double>(mip_result.max_lp_rows)),
       obs::Arg("best_bound", mip_result.best_bound)});
}

// An encoding's own part of the model: the columns it adds after the x
// block, described for the shared separation and warm start.
struct Encoding {
  /// Column bounding edge e's clustered link cost in the coupling rows.
  std::vector<int> edge_cost_col;
  /// Warm-start values of the encoding's columns, in column order.
  std::vector<double> warm;
};

// Adds an encoding's columns and rows to `model` (which holds the x block
// and the assignment rows) and describes them for start deployment `d`.
using Encoder = std::function<Encoding(
    mip::MipModel& model, const Deployment& d, const CostMatrix& clustered)>;

// Solves `objective` on the assignment model (x_ij = i * m + j, then the
// assignment rows) extended by `encode`. Bootstraps from options.initial
// (or the best of 10 random deployments), warm-starts the branch and bound
// from it, and reports every strictly better decoded incumbent at its
// actual cost.
Result<NdpSolveResult> SolveAssignmentMip(const graph::CommGraph& graph,
                                          const CostMatrix& costs,
                                          const MipNdpOptions& options,
                                          Objective objective,
                                          SolveContext& context,
                                          const Encoder& encode) {
  CLOUDIA_ASSIGN_OR_RETURN(CostEvaluator actual_eval,
                           CostEvaluator::Create(&graph, &costs, objective));
  CLOUDIA_ASSIGN_OR_RETURN(CostMatrix clustered,
                           ClusterCostMatrix(costs, options.cost_clusters));

  const int n = graph.num_nodes();
  const int m = costs.size();
  NdpSolveResult result;

  Deployment initial = options.initial;
  if (initial.empty() && n > 0) {
    CLOUDIA_ASSIGN_OR_RETURN(
        initial, BootstrapDeployment(graph, costs, objective, options.seed));
  }
  CLOUDIA_RETURN_IF_ERROR(ValidateDeployment(graph, initial, costs, objective));
  result.deployment = initial;
  result.cost = n > 0 ? actual_eval.Cost(initial) : 0.0;
  result.trace.push_back(context.ReportIncumbent(result.cost, initial));
  if (n == 0 || graph.num_edges() == 0) {
    result.proven_optimal = true;
    return result;
  }

  // x_ij are integers; <= 1 is implied by the assignment rows.
  mip::MipModel model;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) model.AddIntegerVar(0.0);
  }
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
  const Encoding encoding = encode(model, initial, clustered);

  mip::MipOptions mip_options;
  mip_options.deadline = context.deadline();
  mip_options.cancel = context.cancel_token();
  mip_options.max_nodes = options.max_nodes;
  mip_options.lazy = [&graph, &clustered, &encoding, &options, m](
                         const std::vector<double>& x,
                         bool /*integral*/) -> std::vector<lp::Row> {
    return SeparateCoupling(x, graph, clustered, m, encoding.edge_cost_col,
                            options.max_lazy_rows_per_round);
  };

  std::vector<double> warm(static_cast<size_t>(n * m), 0.0);
  for (int i = 0; i < n; ++i) {
    warm[static_cast<size_t>(i * m + initial[static_cast<size_t>(i)])] = 1.0;
  }
  warm.insert(warm.end(), encoding.warm.begin(), encoding.warm.end());
  mip_options.warm_start = std::move(warm);

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

}  // namespace

Result<NdpSolveResult> SolveLlndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options,
                                     SolveContext& context) {
  return SolveAssignmentMip(
      graph, costs, options, Objective::kLongestLink, context,
      [&graph](mip::MipModel& model, const Deployment& d,
               const CostMatrix& clustered) {
        // One objective column c bounds every link; it starts at the
        // deployment's largest clustered link cost.
        double c0 = 0.0;
        for (const graph::Edge& e : graph.edges()) {
          c0 = std::max(c0, clustered.At(d[static_cast<size_t>(e.src)],
                                         d[static_cast<size_t>(e.dst)]));
        }
        const int c_var = model.AddContinuousVar(1.0, "c");
        return Encoding{
            std::vector<int>(static_cast<size_t>(graph.num_edges()), c_var),
            {c0}};
      });
}

Result<NdpSolveResult> SolveLlndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options) {
  SolveContext context(options.deadline);
  return SolveLlndpMip(graph, costs, options, context);
}

Result<NdpSolveResult> SolveLpndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options,
                                     SolveContext& context) {
  CLOUDIA_ASSIGN_OR_RETURN(std::vector<int> topo, graph.TopologicalOrder());
  return SolveAssignmentMip(
      graph, costs, options, Objective::kLongestPath, context,
      [&graph, &topo](mip::MipModel& model, const Deployment& d,
                      const CostMatrix& clustered) {
        const int n = graph.num_nodes();
        const int num_edges = graph.num_edges();
        // After the x block: c_e per edge, t_i per node, then the objective
        // variable t.
        const int c_base = model.num_vars();
        for (int e = 0; e < num_edges; ++e) model.AddContinuousVar(0.0);
        const int t_base = c_base + num_edges;
        for (int i = 0; i < n; ++i) model.AddContinuousVar(0.0);
        const int t_var = model.AddContinuousVar(1.0, "t");
        // t >= t_i.
        for (int i = 0; i < n; ++i) {
          model.AddConstraint(
              {{{t_var, 1.0}, {t_base + i, -1.0}}, lp::RowSense::kGe, 0.0});
        }
        // t_i' >= t_i + c_e for every edge e = (i, i').
        Encoding encoding;
        for (int e = 0; e < num_edges; ++e) {
          const graph::Edge& edge = graph.edges()[static_cast<size_t>(e)];
          model.AddConstraint({{{t_base + edge.dst, 1.0},
                                {t_base + edge.src, -1.0},
                                {c_base + e, -1.0}},
                               lp::RowSense::kGe,
                               0.0});
          encoding.edge_cost_col.push_back(c_base + e);
          // Warm start: c_e the clustered link costs...
          encoding.warm.push_back(
              clustered.At(d[static_cast<size_t>(edge.src)],
                           d[static_cast<size_t>(edge.dst)]));
        }
        // ...t_i the longest clustered path reaching i, t their max.
        encoding.warm.resize(static_cast<size_t>(num_edges + n + 1), 0.0);
        double* t = encoding.warm.data() + num_edges;
        double t_max = 0.0;
        for (int v : topo) {
          for (int w : graph.OutNeighbors(v)) {
            double cl = clustered.At(d[static_cast<size_t>(v)],
                                     d[static_cast<size_t>(w)]);
            t[w] = std::max(t[w], t[v] + cl);
            t_max = std::max(t_max, t[w]);
          }
        }
        t[n] = t_max;
        return encoding;
      });
}

Result<NdpSolveResult> SolveLpndpMip(const graph::CommGraph& graph,
                                     const CostMatrix& costs,
                                     const MipNdpOptions& options) {
  SolveContext context(options.deadline);
  return SolveLpndpMip(graph, costs, options, context);
}

}  // namespace cloudia::deploy
