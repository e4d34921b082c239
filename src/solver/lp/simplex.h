// Bounded dual simplex for linear programs in the form
//     minimize c^T x   subject to   A x {<=,>=,=} b,   lower <= x <= upper.
//
// This is the LP relaxation engine under the branch-and-bound MIP solver that
// substitutes for CPLEX in the paper's Sect. 4.1/4.4 encodings. Every row i
// gets a logical variable s_i = a_i x whose bounds carry the sense (<= b is
// s_i in (-inf, b], >= b is [b, inf), = b is [b, b]), so the engine works on
// A x - s = 0 with bounds on every variable and no right-hand side.
//
// The basis inverse is an explicit dense m x m matrix over sparse columns,
// updated in O(m^2) per pivot and rebuilt from the basis every few hundred
// pivots. Rows are priced by dual steepest edge (exact squared norms of the
// inverse's rows, taken for the infeasible rows only), columns by a Harris
// two-pass ratio test, with Bland's rule after a long dual-degenerate
// stretch.
//
// The all-logical start basis is dual feasible whenever each column can sit
// at the bound its cost points to. A column whose cost points to an infinite
// upper bound sits at an artificial bound 1e6 above its lower bound; an
// optimum that still needs it there is reported kUnbounded. So there is no
// phase 1 and no artificial column.
//
// A DualSimplex stays alive across solves: AddRow borders the inverse (the
// new logical is basic, so the basis stays dual feasible), RemoveRow drops a
// row whose logical is basic (one row and one column of the inverse, exactly)
// and SetBounds moves a column's bounds. The next Solve() re-optimizes from
// the current basis with a few dual pivots. SolveLp is the from-scratch entry
// on the same engine.
#ifndef CLOUDIA_SOLVER_LP_SIMPLEX_H_
#define CLOUDIA_SOLVER_LP_SIMPLEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace cloudia::lp {

enum class RowSense { kLe, kGe, kEq };

/// One linear constraint: sum(coeffs) sense rhs. Coefficients are sparse
/// (var index, value) pairs; duplicate indices are summed.
struct Row {
  std::vector<std::pair<int, double>> coeffs;
  RowSense sense = RowSense::kLe;
  double rhs = 0.0;
};

/// minimize objective . x subject to rows, lower <= x <= upper.
struct LpProblem {
  int num_vars = 0;
  std::vector<double> objective;  ///< size num_vars
  std::vector<Row> rows;
  /// Column bounds, size num_vars or empty. Empty lower means 0; empty upper
  /// means +infinity. Lower bounds must be finite.
  std::vector<double> lower;
  std::vector<double> upper;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* LpStatusName(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< size num_vars (meaningful when kOptimal)
  /// Row duals y, size rows (meaningful when kOptimal): the reduced costs
  /// are objective - A^T y, y_i <= 0 on <= rows and >= 0 on >= rows.
  std::vector<double> duals;
  int iterations = 0;
};

/// The warm-startable engine. Column indices are fixed at construction; row
/// indices are dense, and RemoveRow moves the last row into the freed slot.
class DualSimplex {
 public:
  /// `lower` and `upper` are size objective.size() (see LpProblem).
  DualSimplex(std::vector<double> objective, std::vector<double> lower,
              std::vector<double> upper);

  int num_vars() const { return n_; }
  int num_rows() const { return m_; }

  /// Appends a row (duplicate indices summed) with its logical basic; returns
  /// its index. The basis stays dual feasible, so Solve() repairs the new
  /// row's violation with dual pivots.
  int AddRow(const Row& row);
  /// True when row `row`'s logical is basic: the row carries no dual and
  /// RemoveRow may drop it without changing the current solution.
  bool LogicalIsBasic(int row) const;
  /// Drops a row whose logical is basic; the last row takes index `row`.
  void RemoveRow(int row);

  /// Moves column `var`'s bounds (lower finite, lower <= upper for a
  /// feasible LP); the next Solve() re-optimizes from the current basis.
  void SetBounds(int var, double lower, double upper);
  double lower(int var) const { return lo_[static_cast<size_t>(var)]; }
  double upper(int var) const { return hi_[static_cast<size_t>(var)]; }

  /// Re-optimizes from the current basis. Stops with kIterationLimit after
  /// `max_iterations` pivots or when `deadline` expires (checked every few
  /// pivots), so callers with wall-clock budgets never stall inside one LP.
  LpStatus Solve(int max_iterations = 200000,
                 Deadline deadline = Deadline::Infinite());

  /// Current column values, objective and row duals (meaningful after a
  /// kOptimal Solve()).
  std::vector<double> Primal() const;
  double Objective() const;
  std::vector<double> Duals() const;
  /// Pivots over this object's lifetime.
  int64_t iterations() const { return iterations_; }

 private:
  enum class Status : uint8_t { kBasic, kLower, kUpper };

  size_t vi(int v) const { return static_cast<size_t>(v); }
  double* BinvRow(int p) { return &binv_[static_cast<size_t>(p) * cap_]; }
  const double* BinvRow(int p) const {
    return &binv_[static_cast<size_t>(p) * cap_];
  }
  double NonbasicValue(int v) const;
  bool AtArtificialBound(int v) const;
  double ColumnValue(int j) const;
  void Grow(int rows);
  void ComputeDuals();
  bool PlaceNonbasics();
  void ComputePrimal();
  // Duals, nonbasic placement and basic values afresh from the inverse;
  // true when a nonbasic column moved to its other bound.
  bool Recompute();
  bool Refactor();
  double RowNormSquared(int p) const;
  void SlackBasis();
  int ChooseRow(bool bland) const;
  int RatioTest(double dir, bool bland);
  void ComputePivotRow(int r);
  void ComputeColumn(int q);
  void Pivot(int r, int q, double leave_value, Status leave_status);

  int n_ = 0;  // structural columns; logical of row i is column n_ + i
  int m_ = 0;
  std::vector<double> cost_, lo_, hi_, value_, d_;  // per column
  std::vector<Status> status_;
  std::vector<int> pos_;  // basis position, -1 when nonbasic
  std::vector<Row> rows_;  // merged coefficients, structural columns only
  std::vector<std::vector<std::pair<int, double>>> cols_;  // (row, coeff)

  size_t cap_ = 0;              // row stride of binv_
  std::vector<double> binv_;    // binv_[p * cap_ + i] = (B^-1)_{p,i}
  std::vector<int> basis_;      // column at each basis position
  std::vector<double> xb_;      // basic values
  int updates_ = 0;             // pivots since the last refactor
  int64_t iterations_ = 0;

  std::vector<double> alpha_row_;  // pivot row over all columns
  std::vector<double> alpha_col_;  // B^-1 a_q over basis positions
  struct Candidate {
    int var;
    double ratio;
    double mag;
  };
  std::vector<Candidate> candidates_;  // ratio-test scratch
};

/// Solves the LP from scratch on a fresh DualSimplex. Deterministic.
LpSolution SolveLp(const LpProblem& problem, int max_iterations = 200000,
                   Deadline deadline = Deadline::Infinite());

}  // namespace cloudia::lp

#endif  // CLOUDIA_SOLVER_LP_SIMPLEX_H_
