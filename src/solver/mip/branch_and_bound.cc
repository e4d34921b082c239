#include "solver/mip/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace cloudia::mip {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kInf = std::numeric_limits<double>::infinity();
// Pool cuts violated by more than this re-enter the LP before the callback
// is asked for new rows.
constexpr double kPoolViolationTol = 1e-7;
// Most-violated pool cuts re-entering the LP per round.
constexpr int kPoolRowsPerRound = 64;
// A cut the LP optimum satisfies with more than this slack does not bind.
constexpr double kSlackTol = 1e-9;

// An open node: its branch, applied on top of the bounds of its parent's
// path. Its depth is the number of branches on its path (0 for the root).
struct OpenNode {
  size_t depth = 0;
  int var = -1;  // branched column, -1 for the root
  double lower = 0.0;
  double upper = 0.0;
  double bound = kNegInf;  // LP bound inherited from the parent
};

// A branch applied on the current depth-first path, with the bounds it
// replaced.
struct AppliedBranch {
  int var;
  double lower;
  double upper;
};

// By how much `x` violates `row` (<= 0 when satisfied).
double Violation(const lp::Row& row, const std::vector<double>& x) {
  double lhs = 0.0;
  for (const auto& [var, coeff] : row.coeffs) {
    lhs += coeff * x[static_cast<size_t>(var)];
  }
  switch (row.sense) {
    case lp::RowSense::kLe:
      return lhs - row.rhs;
    case lp::RowSense::kGe:
      return row.rhs - lhs;
    case lp::RowSense::kEq:
      break;
  }
  return std::fabs(lhs - row.rhs);
}

// Most fractional integer variable, or -1 if all integral within tol.
int PickBranchVar(const MipModel& model, const std::vector<double>& x,
                  double tol) {
  int best = -1;
  double best_score = tol;
  for (int v = 0; v < model.num_vars(); ++v) {
    if (!model.is_integer(v)) continue;
    double val = x[static_cast<size_t>(v)];
    double frac = std::fabs(val - std::round(val));
    if (frac > best_score) {
      best_score = frac;
      best = v;
    }
  }
  return best;
}

// Column bounds of the relaxation: x >= 0, tightened by the model's
// single-column rows (the binaries' x <= 1), which then stay out of the LP,
// and by rows of nonnegative terms (an assignment row implies x_ij <= 1).
// Integer columns get integral bounds. Returns the rows the LP keeps.
std::vector<const lp::Row*> ColumnBounds(const MipModel& model,
                                         std::vector<double>* lower,
                                         std::vector<double>* upper) {
  const size_t n = static_cast<size_t>(model.num_vars());
  lower->assign(n, 0.0);
  upper->assign(n, kInf);
  std::vector<const lp::Row*> kept;
  for (const lp::Row& row : model.rows()) {
    if (row.coeffs.size() != 1 || row.coeffs[0].second == 0.0) {
      kept.push_back(&row);
      continue;
    }
    const auto [var, coeff] = row.coeffs[0];
    const size_t v = static_cast<size_t>(var);
    const double value = row.rhs / coeff;
    const bool caps = row.sense == lp::RowSense::kEq ||
                      ((row.sense == lp::RowSense::kLe) == (coeff > 0));
    const bool floors = row.sense == lp::RowSense::kEq || !caps;
    if (caps) (*upper)[v] = std::min((*upper)[v], value);
    if (floors) (*lower)[v] = std::max((*lower)[v], value);
  }
  for (const lp::Row* row : kept) {
    if (row->sense == lp::RowSense::kGe || row->rhs < 0) continue;
    bool nonnegative = true;
    double floor_sum = 0.0;
    for (const auto& [var, coeff] : row->coeffs) {
      nonnegative = nonnegative && coeff > 0;
      floor_sum += coeff * (*lower)[static_cast<size_t>(var)];
    }
    if (!nonnegative) continue;
    for (const auto& [var, coeff] : row->coeffs) {
      const size_t v = static_cast<size_t>(var);
      (*upper)[v] = std::min(
          (*upper)[v], (row->rhs - floor_sum + coeff * (*lower)[v]) / coeff);
    }
  }
  for (int var = 0; var < model.num_vars(); ++var) {
    if (!model.is_integer(var)) continue;
    const size_t v = static_cast<size_t>(var);
    (*lower)[v] = std::ceil((*lower)[v] - 1e-9);
    (*upper)[v] = std::floor((*upper)[v] + 1e-9);
  }
  return kept;
}

}  // namespace

const char* MipStatusName(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal:
      return "Optimal";
    case MipStatus::kFeasible:
      return "Feasible";
    case MipStatus::kInfeasible:
      return "Infeasible";
    case MipStatus::kLimitNoSolution:
      return "LimitNoSolution";
  }
  return "Unknown";
}

MipResult SolveMip(const MipModel& model, const MipOptions& options) {
  Stopwatch clock;
  MipResult result;

  std::vector<double> lower, upper;
  std::vector<const lp::Row*> model_rows = ColumnBounds(model, &lower, &upper);
  lp::DualSimplex lp(model.objective(), std::move(lower), std::move(upper));
  for (const lp::Row* row : model_rows) lp.AddRow(*row);
  const int base_rows = lp.num_rows();
  const int row_cap = base_rows + model.num_vars();
  result.max_lp_rows = base_rows;

  // Cut pool: every lazy row ever separated, kept sparse. The LP holds only
  // the cuts that bind. After each LP optimum, a cut whose logical is basic
  // and slack is dropped; it carries no dual, so this deletes one row and
  // one column of the inverse exactly and keeps the solution. Tight cuts
  // with a basic logical (degenerate ones) stay, since dropping them makes
  // a stalled node drop and re-add the same cuts round after round, unless
  // the LP holds more than row_cap = r + num_vars rows, r the model rows in
  // the LP. Then every cut with a basic logical goes: a kept cut's logical
  // is nonbasic, so the basis has at most r basic logicals and the kept
  // cuts number at most the basic columns. So the LP never holds more than
  // row_cap rows plus one round's batch (kPoolRowsPerRound pool cuts, or one
  // callback answer), however long the solve runs.
  std::vector<lp::Row> pool;
  std::vector<int> pool_row;                        // LP row, -1 when out
  std::vector<int> row_cut(static_cast<size_t>(base_rows), -1);  // pool index
  auto add_cut = [&](size_t k) {
    pool_row[k] = lp.AddRow(pool[k]);
    row_cut.push_back(static_cast<int>(k));
  };
  auto drop_basic_cuts = [&](const std::vector<double>& x) {
    const bool over_cap = lp.num_rows() > row_cap;
    for (int i = lp.num_rows() - 1; i >= base_rows; --i) {
      const size_t row = static_cast<size_t>(i);
      if (!lp.LogicalIsBasic(i) ||
          (!over_cap && Violation(pool[static_cast<size_t>(row_cut[row])],
                                  x) > -kSlackTol)) {
        continue;
      }
      pool_row[static_cast<size_t>(row_cut[row])] = -1;
      lp.RemoveRow(i);  // the last row moves into i
      row_cut[row] = row_cut.back();
      row_cut.pop_back();
      if (row < row_cut.size()) {
        pool_row[static_cast<size_t>(row_cut[row])] = i;
      }
    }
  };
  // Re-enters the most violated pool cuts that are out of the LP.
  auto readd_violated = [&](const std::vector<double>& x) {
    std::vector<std::pair<double, size_t>> violated;
    for (size_t k = 0; k < pool.size(); ++k) {
      if (pool_row[k] >= 0) continue;
      const double v = Violation(pool[k], x);
      if (v > kPoolViolationTol) violated.push_back({v, k});
    }
    std::sort(violated.begin(), violated.end(),
              [](const auto& a, const auto& b) {
                return a.first > b.first ||
                       (a.first == b.first && a.second < b.second);
              });
    if (violated.size() > static_cast<size_t>(kPoolRowsPerRound)) {
      violated.resize(static_cast<size_t>(kPoolRowsPerRound));
    }
    for (const auto& [v, k] : violated) add_cut(k);
    return !violated.empty();
  };

  bool have_incumbent = false;
  double incumbent_obj = kInf;

  auto accept_incumbent = [&](const std::vector<double>& x, double obj) {
    have_incumbent = true;
    incumbent_obj = obj;
    result.x = x;
    result.objective = obj;
    double seconds = clock.ElapsedSeconds();
    result.incumbent_trace.push_back({seconds, obj});
    if (options.on_incumbent) options.on_incumbent(x, obj, seconds);
  };

  // Warm start: accepted only if feasible for the model *and* the lazy family.
  if (!options.warm_start.empty() &&
      model.IsFeasible(options.warm_start, options.integrality_tol)) {
    bool lazy_ok = true;
    if (options.lazy) {
      auto violated = options.lazy(options.warm_start, /*is_integral=*/true);
      if (!violated.empty()) {
        lazy_ok = false;
        result.lazy_rows_added += static_cast<int>(violated.size());
        for (auto& row : violated) {
          pool.push_back(std::move(row));
          pool_row.push_back(-1);
        }
      }
    }
    if (lazy_ok) {
      accept_incumbent(options.warm_start,
                       model.ObjectiveValue(options.warm_start));
    }
  }

  // Depth-first search on one LP: a node is a set of column bounds, reached
  // by undoing the branches below its parent and applying its own.
  std::vector<OpenNode> stack = {OpenNode{}};
  std::vector<AppliedBranch> path;
  bool limit_hit = false;

  std::vector<double> x;  // LP solution scratch
  while (!stack.empty()) {
    if (options.deadline.Expired() || options.cancel.Cancelled() ||
        (options.max_nodes >= 0 && result.nodes >= options.max_nodes)) {
      limit_hit = true;
      break;
    }
    const OpenNode node = stack.back();
    stack.pop_back();
    // Bound-based pruning against the current incumbent.
    if (have_incumbent && node.bound >= incumbent_obj - options.gap_tol) {
      continue;
    }
    ++result.nodes;

    const size_t keep = node.depth > 0 ? node.depth - 1 : 0;
    while (path.size() > keep) {
      lp.SetBounds(path.back().var, path.back().lower, path.back().upper);
      path.pop_back();
    }
    if (node.var >= 0) {
      path.push_back({node.var, lp.lower(node.var), lp.upper(node.var)});
      lp.SetBounds(node.var, node.lower, node.upper);
    }

    // Lazy-constraint loop: re-optimize while pool cuts or the callback
    // bring violated rows.
    double bound = kNegInf;
    bool node_done = false;
    while (true) {
      lp::LpStatus status = lp.Solve(options.lp_max_iterations, options.deadline);
      if (status == lp::LpStatus::kInfeasible) {
        node_done = true;
        break;
      }
      if (status != lp::LpStatus::kOptimal) {
        // Unbounded or iteration-limited relaxation: no usable bound/point.
        limit_hit = true;
        node_done = true;
        break;
      }
      bound = lp.Objective();
      x = lp.Primal();
      drop_basic_cuts(x);
      if (have_incumbent && bound >= incumbent_obj - options.gap_tol) {
        node_done = true;  // dominated
        break;
      }
      if (readd_violated(x)) {
        result.max_lp_rows = std::max(result.max_lp_rows, lp.num_rows());
        continue;
      }
      bool integral = PickBranchVar(model, x, options.integrality_tol) == -1;
      if (options.lazy) {
        auto violated = options.lazy(x, integral);
        if (!violated.empty()) {
          result.lazy_rows_added += static_cast<int>(violated.size());
          for (auto& row : violated) {
            pool.push_back(std::move(row));
            pool_row.push_back(-1);
            add_cut(pool.size() - 1);
          }
          result.max_lp_rows = std::max(result.max_lp_rows, lp.num_rows());
          continue;  // re-solve with the new rows
        }
      }
      if (integral) {
        for (int v = 0; v < model.num_vars(); ++v) {
          if (model.is_integer(v)) {
            x[static_cast<size_t>(v)] = std::round(x[static_cast<size_t>(v)]);
          }
        }
        double obj = model.ObjectiveValue(x);
        if (!have_incumbent || obj < incumbent_obj - options.gap_tol) {
          accept_incumbent(x, obj);
        }
        node_done = true;
      }
      break;
    }
    if (limit_hit) break;
    if (node_done) continue;

    // Branch on the most fractional integer variable: x_v <= floor(val) or
    // x_v >= floor(val) + 1, as column bounds.
    int v = PickBranchVar(model, x, options.integrality_tol);
    CLOUDIA_CHECK(v >= 0);
    double val = x[static_cast<size_t>(v)];
    double floor_v = std::floor(val);
    const OpenNode down{path.size() + 1, v, lp.lower(v), floor_v, bound};
    const OpenNode up{path.size() + 1, v, floor_v + 1.0, lp.upper(v), bound};
    // Push the preferred child last so DFS pops it first.
    if ((val - floor_v) >= 0.5) {
      stack.push_back(down);
      stack.push_back(up);
    } else {
      stack.push_back(up);
      stack.push_back(down);
    }
  }
  result.lp_iterations = lp.iterations();

  // Global lower bound: min over open nodes, or the incumbent when exhausted.
  if (stack.empty() && !limit_hit) {
    result.best_bound = have_incumbent ? incumbent_obj : 0.0;
    result.status = have_incumbent ? MipStatus::kOptimal : MipStatus::kInfeasible;
  } else {
    double open_bound_min = kInf;
    for (const OpenNode& node : stack) {
      open_bound_min = std::min(open_bound_min, node.bound);
    }
    if (stack.empty()) open_bound_min = kNegInf;
    result.best_bound = open_bound_min;
    result.status =
        have_incumbent ? MipStatus::kFeasible : MipStatus::kLimitNoSolution;
  }
  return result;
}

}  // namespace cloudia::mip
