#include "solver/lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace cloudia::lp {

namespace {

constexpr double kPrimalTol = 1e-9;
constexpr double kDualTol = 1e-9;
constexpr double kPivotTol = 1e-9;
// Explicit-inverse updates between rebuilds from the basis columns.
constexpr int kRefactorEvery = 200;
// How far above its lower bound a column whose cost points to an infinite
// upper bound is boxed; an optimum that needs the box is kUnbounded.
constexpr double kArtificialBound = 1e6;

const double kInf = std::numeric_limits<double>::infinity();

// Sorts by column, sums duplicates and drops zeros.
std::vector<std::pair<int, double>> MergeCoeffs(
    std::vector<std::pair<int, double>> coeffs) {
  std::sort(coeffs.begin(), coeffs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<int, double>> merged;
  for (const auto& [var, coeff] : coeffs) {
    if (!merged.empty() && merged.back().first == var) {
      merged.back().second += coeff;
    } else {
      merged.push_back({var, coeff});
    }
  }
  std::erase_if(merged, [](const auto& e) { return e.second == 0.0; });
  return merged;
}

}  // namespace

const char* LpStatusName(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "Optimal";
    case LpStatus::kInfeasible:
      return "Infeasible";
    case LpStatus::kUnbounded:
      return "Unbounded";
    case LpStatus::kIterationLimit:
      return "IterationLimit";
  }
  return "Unknown";
}

DualSimplex::DualSimplex(std::vector<double> objective,
                         std::vector<double> lower, std::vector<double> upper)
    : n_(static_cast<int>(objective.size())),
      cost_(std::move(objective)),
      lo_(std::move(lower)),
      hi_(std::move(upper)) {
  CLOUDIA_CHECK(lo_.size() == cost_.size() && hi_.size() == cost_.size());
  for (double lo : lo_) CLOUDIA_CHECK(std::isfinite(lo));
  value_.assign(cost_.size(), 0.0);
  d_ = cost_;
  status_.assign(cost_.size(), Status::kLower);
  pos_.assign(cost_.size(), -1);
  cols_.resize(cost_.size());
}

double DualSimplex::NonbasicValue(int v) const {
  const double lo = lo_[vi(v)], hi = hi_[vi(v)];
  if (status_[vi(v)] == Status::kLower) {
    return std::isfinite(lo) ? lo : hi - kArtificialBound;
  }
  return std::isfinite(hi) ? hi : lo + kArtificialBound;
}

bool DualSimplex::AtArtificialBound(int v) const {
  const Status s = status_[vi(v)];
  return (s == Status::kLower && !std::isfinite(lo_[vi(v)])) ||
         (s == Status::kUpper && !std::isfinite(hi_[vi(v)]));
}

double DualSimplex::ColumnValue(int j) const {
  return pos_[vi(j)] >= 0 ? xb_[vi(pos_[vi(j)])] : value_[vi(j)];
}

std::vector<double> DualSimplex::Duals() const {
  // y = c_B^T B^-1.
  std::vector<double> y(static_cast<size_t>(m_), 0.0);
  for (int p = 0; p < m_; ++p) {
    const double c = cost_[vi(basis_[vi(p)])];
    if (c == 0.0) continue;
    const double* row = BinvRow(p);
    for (int i = 0; i < m_; ++i) y[vi(i)] += c * row[i];
  }
  return y;
}

void DualSimplex::Grow(int rows) {
  if (static_cast<size_t>(rows) <= cap_) return;
  // Grow by a quarter: the inverse is cap^2 doubles, so doubling would
  // touch up to four times the memory it needs.
  const size_t cap =
      std::max<size_t>(static_cast<size_t>(rows), cap_ + cap_ / 4 + 16);
  std::vector<double> binv(cap * cap, 0.0);
  for (int p = 0; p < m_; ++p) {
    std::copy(BinvRow(p), BinvRow(p) + m_, &binv[static_cast<size_t>(p) * cap]);
  }
  binv_ = std::move(binv);
  cap_ = cap;
}

int DualSimplex::AddRow(const Row& row) {
  Row merged{MergeCoeffs(row.coeffs), row.sense, row.rhs};
  for (const auto& [var, coeff] : merged.coeffs) {
    CLOUDIA_CHECK(var >= 0 && var < n_);
    (void)coeff;
  }
  Grow(m_ + 1);
  const int i = m_;
  // The new inverse row is a_B B^-1 over the old rows and -1 on its own:
  // [B 0; a_B -1]^-1 = [B^-1 0; a_B B^-1 -1].
  double* fresh = BinvRow(i);
  std::fill(fresh, fresh + i + 1, 0.0);
  for (const auto& [var, coeff] : merged.coeffs) {
    const int p = pos_[vi(var)];
    if (p < 0) continue;
    const double* src = BinvRow(p);
    for (int k = 0; k < i; ++k) fresh[k] += coeff * src[k];
  }
  fresh[i] = -1.0;
  for (int p = 0; p < i; ++p) BinvRow(p)[i] = 0.0;

  for (const auto& [var, coeff] : merged.coeffs) {
    cols_[vi(var)].push_back({i, coeff});
  }
  const double lo = merged.sense == RowSense::kLe ? -kInf : merged.rhs;
  const double hi = merged.sense == RowSense::kGe ? kInf : merged.rhs;
  cost_.push_back(0.0);
  lo_.push_back(lo);
  hi_.push_back(hi);
  value_.push_back(0.0);
  d_.push_back(0.0);
  status_.push_back(Status::kBasic);
  pos_.push_back(i);
  basis_.push_back(n_ + i);
  xb_.push_back(0.0);  // recomputed by the next Solve()
  rows_.push_back(std::move(merged));
  ++m_;
  return i;
}

bool DualSimplex::LogicalIsBasic(int row) const {
  CLOUDIA_CHECK(row >= 0 && row < m_);
  return status_[vi(n_ + row)] == Status::kBasic;
}

void DualSimplex::RemoveRow(int row) {
  CLOUDIA_CHECK(LogicalIsBasic(row));
  const int last = m_ - 1;
  // The logical's basis column is -e_row, so column `row` of B^-1 is -e_p:
  // deleting inverse row p and column `row` leaves the exact inverse of the
  // smaller basis. The last basis position moves into p.
  const int p = pos_[vi(n_ + row)];
  if (p != last) {
    std::copy(BinvRow(last), BinvRow(last) + m_, BinvRow(p));
    basis_[vi(p)] = basis_[vi(last)];
    xb_[vi(p)] = xb_[vi(last)];
    pos_[vi(basis_[vi(p)])] = p;
  }
  basis_.pop_back();
  xb_.pop_back();

  for (const auto& [var, coeff] : rows_[vi(row)].coeffs) {
    (void)coeff;
    auto& col = cols_[vi(var)];
    col.erase(std::find_if(col.begin(), col.end(),
                           [row](const auto& e) { return e.first == row; }));
  }
  // The last row moves into the freed index, with its logical column.
  if (row != last) {
    rows_[vi(row)] = std::move(rows_[vi(last)]);
    for (const auto& [var, coeff] : rows_[vi(row)].coeffs) {
      (void)coeff;
      for (auto& e : cols_[vi(var)]) {
        if (e.first == last) e.first = row;
      }
    }
    for (int q = 0; q < last; ++q) BinvRow(q)[row] = BinvRow(q)[last];
    const size_t to = vi(n_ + row), from = vi(n_ + last);
    lo_[to] = lo_[from];
    hi_[to] = hi_[from];
    value_[to] = value_[from];
    d_[to] = d_[from];
    status_[to] = status_[from];
    pos_[to] = pos_[from];
    if (pos_[to] >= 0) basis_[vi(pos_[to])] = n_ + row;
  }
  rows_.pop_back();
  cost_.pop_back();
  lo_.pop_back();
  hi_.pop_back();
  value_.pop_back();
  d_.pop_back();
  status_.pop_back();
  pos_.pop_back();
  --m_;
}

void DualSimplex::SetBounds(int var, double lower, double upper) {
  CLOUDIA_CHECK(var >= 0 && var < n_ && std::isfinite(lower));
  lo_[vi(var)] = lower;
  hi_[vi(var)] = upper;
}

void DualSimplex::ComputeDuals() {
  // Reduced costs d = c - [A -I]^T y, so a logical's is y_i.
  const std::vector<double> y = Duals();
  for (int j = 0; j < n_; ++j) {
    if (status_[vi(j)] == Status::kBasic) {
      d_[vi(j)] = 0.0;
      continue;
    }
    double dj = cost_[vi(j)];
    for (const auto& [i, a] : cols_[vi(j)]) dj -= a * y[vi(i)];
    d_[vi(j)] = dj;
  }
  for (int i = 0; i < m_; ++i) {
    d_[vi(n_ + i)] =
        status_[vi(n_ + i)] == Status::kBasic ? 0.0 : y[vi(i)];
  }
}

bool DualSimplex::PlaceNonbasics() {
  bool moved = false;
  for (int v = 0; v < n_ + m_; ++v) {
    const Status old = status_[vi(v)];
    if (old == Status::kBasic) continue;
    const double lo = lo_[vi(v)], hi = hi_[vi(v)], dv = d_[vi(v)];
    Status s = old;
    if (lo == hi || dv > kDualTol) {
      s = Status::kLower;
    } else if (dv < -kDualTol) {
      s = Status::kUpper;
    } else if (s == Status::kLower && !std::isfinite(lo)) {
      s = Status::kUpper;  // zero reduced cost: leave an artificial bound
    } else if (s == Status::kUpper && !std::isfinite(hi)) {
      s = Status::kLower;
    }
    status_[vi(v)] = s;
    const double value = NonbasicValue(v);
    if (value != value_[vi(v)]) moved = true;
    value_[vi(v)] = value;
  }
  return moved;
}

void DualSimplex::ComputePrimal() {
  // B x_B + N x_N = 0, so x_B = -B^-1 (N x_N).
  std::vector<double> w(static_cast<size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    double wi = 0.0;
    for (const auto& [j, a] : rows_[vi(i)].coeffs) {
      if (status_[vi(j)] != Status::kBasic) wi += a * value_[vi(j)];
    }
    if (status_[vi(n_ + i)] != Status::kBasic) wi -= value_[vi(n_ + i)];
    w[vi(i)] = wi;
  }
  for (int p = 0; p < m_; ++p) {
    const double* row = BinvRow(p);
    double x = 0.0;
    for (int i = 0; i < m_; ++i) x -= row[i] * w[vi(i)];
    xb_[vi(p)] = x;
  }
}

bool DualSimplex::Recompute() {
  ComputeDuals();
  const bool moved = PlaceNonbasics();
  ComputePrimal();
  return moved;
}

void DualSimplex::SlackBasis() {
  for (int v = 0; v < n_ + m_; ++v) {
    status_[vi(v)] = v < n_ ? Status::kLower : Status::kBasic;
    pos_[vi(v)] = v < n_ ? -1 : v - n_;
  }
  for (int p = 0; p < m_; ++p) {
    basis_[vi(p)] = n_ + p;
    double* row = BinvRow(p);
    std::fill(row, row + m_, 0.0);
    row[p] = -1.0;
  }
  updates_ = 0;
}

bool DualSimplex::Refactor() {
  // With the rows whose logical is basic (R_L) and the k structural basis
  // positions (S), B = [M 0; N -I] over rows (R_S, R_L) and positions
  // (S, logicals), so B^-1 = [M^-1 0; N M^-1 -I]: only the k x k block M
  // needs Gauss-Jordan elimination.
  std::vector<int> slot(static_cast<size_t>(m_), -1);  // row -> index in R_S
  std::vector<int> structural;                         // positions in S
  for (int p = 0; p < m_; ++p) {
    if (basis_[vi(p)] < n_) structural.push_back(p);
  }
  const size_t k = structural.size();
  std::vector<int> free_rows;  // R_S
  for (int i = 0; i < m_; ++i) {
    if (status_[vi(n_ + i)] != Status::kBasic) {
      slot[vi(i)] = static_cast<int>(free_rows.size());
      free_rows.push_back(i);
    }
  }
  CLOUDIA_CHECK(free_rows.size() == k);
  std::vector<double> a(k * k, 0.0), inv(k * k, 0.0);
  for (size_t c = 0; c < k; ++c) {
    for (const auto& [i, coeff] : cols_[vi(basis_[vi(structural[c])])]) {
      if (slot[vi(i)] >= 0) a[vi(slot[vi(i)]) * k + c] = coeff;
    }
    inv[c * k + c] = 1.0;
  }
  for (size_t c = 0; c < k; ++c) {
    size_t piv = c;
    for (size_t r = c + 1; r < k; ++r) {
      if (std::fabs(a[r * k + c]) > std::fabs(a[piv * k + c])) piv = r;
    }
    if (std::fabs(a[piv * k + c]) < 1e-11) {
      SlackBasis();
      return false;
    }
    if (piv != c) {
      std::swap_ranges(&a[piv * k], &a[piv * k] + k, &a[c * k]);
      std::swap_ranges(&inv[piv * k], &inv[piv * k] + k, &inv[c * k]);
    }
    const double scale = 1.0 / a[c * k + c];
    for (size_t j = 0; j < k; ++j) {
      a[c * k + j] *= scale;
      inv[c * k + j] *= scale;
    }
    for (size_t r = 0; r < k; ++r) {
      const double f = a[r * k + c];
      if (r == c || f == 0.0) continue;
      for (size_t j = 0; j < k; ++j) {
        a[r * k + j] -= f * a[c * k + j];
        inv[r * k + j] -= f * inv[c * k + j];
      }
    }
  }
  for (int p = 0; p < m_; ++p) std::fill(BinvRow(p), BinvRow(p) + m_, 0.0);
  // Rows of M^-1 for the structural positions, scattered to R_S columns.
  for (size_t c = 0; c < k; ++c) {
    double* row = BinvRow(structural[c]);
    for (size_t j = 0; j < k; ++j) row[free_rows[j]] = inv[c * k + j];
  }
  // A logical's row: -1 on its own row plus N M^-1, where N holds the
  // structural basics' coefficients on its row.
  for (int p = 0; p < m_; ++p) {
    if (basis_[vi(p)] >= n_) BinvRow(p)[basis_[vi(p)] - n_] = -1.0;
  }
  for (size_t c = 0; c < k; ++c) {
    const double* src = BinvRow(structural[c]);
    for (const auto& [i, coeff] : cols_[vi(basis_[vi(structural[c])])]) {
      if (slot[vi(i)] >= 0) continue;
      double* row = BinvRow(pos_[vi(n_ + i)]);
      for (size_t j = 0; j < k; ++j) {
        row[free_rows[j]] += coeff * src[free_rows[j]];
      }
    }
  }
  updates_ = 0;
  return true;
}

double DualSimplex::RowNormSquared(int p) const {
  const double* row = BinvRow(p);
  double norm = 0.0;
  for (int i = 0; i < m_; ++i) norm += row[i] * row[i];
  return norm;
}

int DualSimplex::ChooseRow(bool bland) const {
  int best = -1;
  double best_score = 0.0;
  for (int p = 0; p < m_; ++p) {
    const int v = basis_[vi(p)];
    const double x = xb_[vi(p)];
    double infeas = 0.0;
    if (x < lo_[vi(v)] - kPrimalTol) {
      infeas = lo_[vi(v)] - x;
    } else if (x > hi_[vi(v)] + kPrimalTol) {
      infeas = x - hi_[vi(v)];
    } else {
      continue;
    }
    if (bland) {
      if (best < 0 || v < basis_[vi(best)]) best = p;
      continue;
    }
    // Dual steepest edge: infeasibility^2 over the inverse row's norm^2,
    // taken exactly, and only for the rows that are infeasible.
    const double score = infeas * infeas / std::max(RowNormSquared(p), 1e-12);
    if (score > best_score) {
      best_score = score;
      best = p;
    }
  }
  return best;
}

void DualSimplex::ComputePivotRow(int r) {
  alpha_row_.assign(static_cast<size_t>(n_ + m_), 0.0);
  const double* rho = BinvRow(r);
  for (int i = 0; i < m_; ++i) {
    const double ri = rho[i];
    if (ri == 0.0) continue;
    for (const auto& [j, a] : rows_[vi(i)].coeffs) alpha_row_[vi(j)] += ri * a;
    alpha_row_[vi(n_ + i)] = -ri;
  }
}

int DualSimplex::RatioTest(double dir, bool bland) {
  // A column can enter when moving it off its bound pushes the leaving
  // basic toward the violated bound: at lower with dir*alpha < 0, at upper
  // with dir*alpha > 0. Its ratio is |d| / |alpha|.
  candidates_.clear();
  for (int v = 0; v < n_ + m_; ++v) {
    const double a = dir * alpha_row_[vi(v)];
    if (a == 0.0) continue;
    const Status s = status_[vi(v)];
    if (s == Status::kBasic || lo_[vi(v)] == hi_[vi(v)]) continue;
    if (s == Status::kLower ? a >= -kPivotTol : a <= kPivotTol) continue;
    const double slack = s == Status::kLower ? d_[vi(v)] : -d_[vi(v)];
    const double mag = std::fabs(a);
    candidates_.push_back({v, std::max(slack, 0.0) / mag, mag});
  }
  int best = -1;
  if (bland) {
    double best_ratio = kInf;
    for (const Candidate& c : candidates_) {
      if (c.ratio < best_ratio - 1e-12) {
        best_ratio = c.ratio;
        best = c.var;
      }
    }
    return best;
  }
  // Harris: the loosest step that keeps every reduced cost within the
  // tolerance, then the largest pivot among columns that fit under it.
  double bound = kInf;
  for (const Candidate& c : candidates_) {
    bound = std::min(bound, c.ratio + kDualTol / c.mag);
  }
  double best_mag = 0.0;
  for (const Candidate& c : candidates_) {
    if (c.ratio <= bound && c.mag > best_mag) {
      best_mag = c.mag;
      best = c.var;
    }
  }
  return best;
}

void DualSimplex::ComputeColumn(int q) {
  alpha_col_.assign(static_cast<size_t>(m_), 0.0);
  if (q < n_) {
    for (const auto& [i, a] : cols_[vi(q)]) {
      for (int p = 0; p < m_; ++p) alpha_col_[vi(p)] += a * BinvRow(p)[i];
    }
  } else {
    for (int p = 0; p < m_; ++p) alpha_col_[vi(p)] = -BinvRow(p)[q - n_];
  }
}

void DualSimplex::Pivot(int r, int q, double leave_value, Status leave_status) {
  const int leave = basis_[vi(r)];
  const double pivot = alpha_col_[vi(r)];
  // Primal: x_q moves by theta, the basics by -theta * alpha_col.
  const double theta = (xb_[vi(r)] - leave_value) / pivot;
  for (int p = 0; p < m_; ++p) xb_[vi(p)] -= theta * alpha_col_[vi(p)];
  xb_[vi(r)] = value_[vi(q)] + theta;
  // Duals: y moves by step * rho, so d_j -= step * alpha_j.
  const double step = d_[vi(q)] / alpha_row_[vi(q)];
  for (int v = 0; v < n_ + m_; ++v) {
    if (status_[vi(v)] != Status::kBasic && alpha_row_[vi(v)] != 0.0) {
      d_[vi(v)] -= step * alpha_row_[vi(v)];
    }
  }
  d_[vi(q)] = 0.0;
  d_[vi(leave)] = -step;
  status_[vi(leave)] = leave_status;
  value_[vi(leave)] = leave_value;
  pos_[vi(leave)] = -1;
  status_[vi(q)] = Status::kBasic;
  pos_[vi(q)] = r;
  basis_[vi(r)] = q;
  // Inverse: row r /= pivot, row p -= alpha_p * row r.
  double* pr = BinvRow(r);
  const double inv = 1.0 / pivot;
  for (int i = 0; i < m_; ++i) pr[i] *= inv;
  for (int p = 0; p < m_; ++p) {
    const double f = alpha_col_[vi(p)];
    if (p == r || f == 0.0) continue;
    double* row = BinvRow(p);
    for (int i = 0; i < m_; ++i) row[i] -= f * pr[i];
  }
  ++updates_;
}

LpStatus DualSimplex::Solve(int max_iterations, Deadline deadline) {
  for (int j = 0; j < n_; ++j) {
    if (lo_[vi(j)] > hi_[vi(j)] + kPrimalTol) return LpStatus::kInfeasible;
  }
  if (updates_ >= kRefactorEvery) Refactor();
  Recompute();
  const int bland_after = 50 + m_;
  int iters = 0;
  int degenerate = 0;
  while (true) {
    if (iters >= max_iterations ||
        ((iters & 0xf) == 0 && deadline.Expired())) {
      return LpStatus::kIterationLimit;
    }
    const bool bland = degenerate > bland_after;
    const int r = ChooseRow(bland);
    if (r < 0) {
      // Primal feasible: confirm on values recomputed from the inverse, and
      // move columns whose reduced cost now points to the other bound.
      if (Recompute() || ChooseRow(false) >= 0) {
        degenerate = 0;
        continue;
      }
      for (int v = 0; v < n_ + m_; ++v) {
        if (AtArtificialBound(v)) return LpStatus::kUnbounded;
      }
      return LpStatus::kOptimal;
    }
    const int leave = basis_[vi(r)];
    const bool to_lower = xb_[vi(r)] < lo_[vi(leave)];
    ComputePivotRow(r);
    const double dir = to_lower ? 1.0 : -1.0;
    const int q = RatioTest(dir, bland);
    if (q < 0) {
      // No column can repair row r: a Farkas row, unless a column boxed at
      // an artificial bound could move past it.
      for (int v = 0; v < n_ + m_; ++v) {
        if (!AtArtificialBound(v)) continue;
        const double a = dir * alpha_row_[vi(v)];
        const bool helps =
            status_[vi(v)] == Status::kUpper ? a < -kPivotTol : a > kPivotTol;
        if (helps) return LpStatus::kUnbounded;
      }
      return LpStatus::kInfeasible;
    }
    ComputeColumn(q);
    const double pivot = alpha_col_[vi(r)];
    if (updates_ > 0 &&
        std::fabs(pivot - alpha_row_[vi(q)]) > 1e-7 * (1.0 + std::fabs(pivot))) {
      // The row and column disagree: rebuild the inverse and re-price.
      Refactor();
      Recompute();
      continue;
    }
    const double step = d_[vi(q)] / alpha_row_[vi(q)];
    degenerate = std::fabs(step) < 1e-12 ? degenerate + 1 : 0;
    Pivot(r, q, to_lower ? lo_[vi(leave)] : hi_[vi(leave)],
          to_lower ? Status::kLower : Status::kUpper);
    ++iters;
    ++iterations_;
    if (updates_ >= kRefactorEvery) {
      Refactor();
      Recompute();
    }
  }
}

std::vector<double> DualSimplex::Primal() const {
  std::vector<double> x(static_cast<size_t>(n_));
  for (int j = 0; j < n_; ++j) x[vi(j)] = ColumnValue(j);
  return x;
}

double DualSimplex::Objective() const {
  double z = 0.0;
  for (int j = 0; j < n_; ++j) z += cost_[vi(j)] * ColumnValue(j);
  return z;
}

LpSolution SolveLp(const LpProblem& problem, int max_iterations,
                   Deadline deadline) {
  const size_t n = static_cast<size_t>(problem.num_vars);
  CLOUDIA_CHECK(problem.objective.size() == n);
  CLOUDIA_CHECK(problem.lower.empty() || problem.lower.size() == n);
  CLOUDIA_CHECK(problem.upper.empty() || problem.upper.size() == n);
  DualSimplex lp(problem.objective,
                 problem.lower.empty() ? std::vector<double>(n, 0.0)
                                       : problem.lower,
                 problem.upper.empty() ? std::vector<double>(n, kInf)
                                       : problem.upper);
  for (const Row& row : problem.rows) lp.AddRow(row);
  LpSolution out;
  out.status = lp.Solve(max_iterations, deadline);
  out.iterations = static_cast<int>(lp.iterations());
  if (out.status == LpStatus::kOptimal) {
    out.x = lp.Primal();
    out.objective = lp.Objective();
    out.duals = lp.Duals();
  }
  return out;
}

}  // namespace cloudia::lp
