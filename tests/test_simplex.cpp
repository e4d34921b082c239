#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/rng.h"
#include "solver/lp/simplex.h"

namespace cloudia::lp {
namespace {

TEST(SimplexTest, SimpleBoundedMaximization) {
  // min -(x + y) s.t. x + y <= 4, x <= 2  ->  objective -4.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {-1, -1};
  p.rows.push_back({{{0, 1.0}, {1, 1.0}}, RowSense::kLe, 4.0});
  p.rows.push_back({{{0, 1.0}}, RowSense::kLe, 2.0});
  LpSolution s = SolveLp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-9);
  EXPECT_NEAR(s.x[0] + s.x[1], 4.0, 1e-9);
}

TEST(SimplexTest, TwoPhaseWithEqualityAndGe) {
  // min 2x + y s.t. x + y = 3, x + 2y >= 4  ->  x=0, y=3, objective 3.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {2, 1};
  p.rows.push_back({{{0, 1.0}, {1, 1.0}}, RowSense::kEq, 3.0});
  p.rows.push_back({{{0, 1.0}, {1, 2.0}}, RowSense::kGe, 4.0});
  LpSolution s = SolveLp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_NEAR(s.x[0], 0.0, 1e-9);
  EXPECT_NEAR(s.x[1], 3.0, 1e-9);
}

TEST(SimplexTest, InfeasibleDetected) {
  LpProblem p;
  p.num_vars = 1;
  p.objective = {1};
  p.rows.push_back({{{0, 1.0}}, RowSense::kLe, 1.0});
  p.rows.push_back({{{0, 1.0}}, RowSense::kGe, 2.0});
  EXPECT_EQ(SolveLp(p).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  LpProblem p;
  p.num_vars = 1;
  p.objective = {-1};
  LpSolution s = SolveLp(p);
  EXPECT_EQ(s.status, LpStatus::kUnbounded);
}

TEST(SimplexTest, NegativeRhsNormalization) {
  // -x <= -2 is x >= 2; minimize x -> 2.
  LpProblem p;
  p.num_vars = 1;
  p.objective = {1};
  p.rows.push_back({{{0, -1.0}}, RowSense::kLe, -2.0});
  LpSolution s = SolveLp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(SimplexTest, DuplicateCoefficientsAreSummed) {
  // (x + x) <= 4 means x <= 2; minimize -x -> -2.
  LpProblem p;
  p.num_vars = 1;
  p.objective = {-1};
  p.rows.push_back({{{0, 1.0}, {0, 1.0}}, RowSense::kLe, 4.0});
  LpSolution s = SolveLp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
}

TEST(SimplexTest, BealeCyclingExampleTerminates) {
  // Beale's classic cycling example; Bland fallback must terminate it.
  // min -0.75 x1 + 150 x2 - 0.02 x3 + 6 x4
  // s.t. 0.25 x1 - 60 x2 - 0.04 x3 + 9 x4 <= 0
  //      0.5  x1 - 90 x2 - 0.02 x3 + 3 x4 <= 0
  //      x3 <= 1
  LpProblem p;
  p.num_vars = 4;
  p.objective = {-0.75, 150, -0.02, 6};
  p.rows.push_back(
      {{{0, 0.25}, {1, -60.0}, {2, -0.04}, {3, 9.0}}, RowSense::kLe, 0.0});
  p.rows.push_back(
      {{{0, 0.5}, {1, -90.0}, {2, -0.02}, {3, 3.0}}, RowSense::kLe, 0.0});
  p.rows.push_back({{{2, 1.0}}, RowSense::kLe, 1.0});
  LpSolution s = SolveLp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-9);  // known optimum
}

TEST(SimplexTest, DegenerateRhsZero) {
  // x - y = 0, x + y <= 2, min -x  ->  x = y = 1.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {-1, 0};
  p.rows.push_back({{{0, 1.0}, {1, -1.0}}, RowSense::kEq, 0.0});
  p.rows.push_back({{{0, 1.0}, {1, 1.0}}, RowSense::kLe, 2.0});
  LpSolution s = SolveLp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 1.0, 1e-9);
  EXPECT_NEAR(s.x[1], 1.0, 1e-9);
}

TEST(SimplexTest, RedundantEqualityRows) {
  // Same equality twice: phase 1 must cope with the redundant artificial.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {1, 1};
  p.rows.push_back({{{0, 1.0}, {1, 1.0}}, RowSense::kEq, 2.0});
  p.rows.push_back({{{0, 1.0}, {1, 1.0}}, RowSense::kEq, 2.0});
  LpSolution s = SolveLp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(SimplexTest, AssignmentLpIsIntegral) {
  // 3x3 assignment LP relaxation is integral (totally unimodular).
  // Costs: pick permutation (0->1, 1->2, 2->0) of cost 1+2+1 = 4? Use matrix:
  //   c = [5 1 9; 8 7 2; 1 4 6] -> optimal 1 + 2 + 1 = 4.
  const double c[3][3] = {{5, 1, 9}, {8, 7, 2}, {1, 4, 6}};
  LpProblem p;
  p.num_vars = 9;
  p.objective.resize(9);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) p.objective[static_cast<size_t>(3 * i + j)] = c[i][j];
  for (int i = 0; i < 3; ++i) {
    Row r;
    for (int j = 0; j < 3; ++j) r.coeffs.push_back({3 * i + j, 1.0});
    r.sense = RowSense::kEq;
    r.rhs = 1.0;
    p.rows.push_back(r);
  }
  for (int j = 0; j < 3; ++j) {
    Row r;
    for (int i = 0; i < 3; ++i) r.coeffs.push_back({3 * i + j, 1.0});
    r.sense = RowSense::kEq;
    r.rhs = 1.0;
    p.rows.push_back(r);
  }
  LpSolution s = SolveLp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
  for (double v : s.x) EXPECT_TRUE(v < 1e-9 || std::abs(v - 1.0) < 1e-9);
}

TEST(SimplexTest, BoundedColumnsAndNegativeCosts) {
  // min -x - 2y s.t. x + y <= 3, x in [1, 2], y in [0, 1.5]: x = 1.5, y = 1.5.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {-1, -2};
  p.lower = {1.0, 0.0};
  p.upper = {2.0, 1.5};
  p.rows.push_back({{{0, 1.0}, {1, 1.0}}, RowSense::kLe, 3.0});
  LpSolution s = SolveLp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.5, 1e-9);
  EXPECT_NEAR(s.x[1], 1.5, 1e-9);
}

// ---------------------------------------------------------------------------
// LP oracle: seeded random LPs, each kOptimal answer checked against its own
// KKT certificate, and warm re-solves checked against cold solves.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTol = 1e-7;

double Activity(const Row& row, const std::vector<double>& x) {
  double lhs = 0.0;
  for (const auto& [var, coeff] : row.coeffs) {
    lhs += coeff * x[static_cast<size_t>(var)];
  }
  return lhs;
}

// Primal feasibility, dual sign conditions against the bound each column and
// row sits at, and primal objective == dual objective.
void ExpectKktCertificate(const LpProblem& p, const LpSolution& s,
                          const std::string& label) {
  ASSERT_EQ(s.x.size(), static_cast<size_t>(p.num_vars)) << label;
  ASSERT_EQ(s.duals.size(), p.rows.size()) << label;
  std::vector<double> d = p.objective;  // reduced costs c - A^T y
  double dual_obj = 0.0;
  for (size_t i = 0; i < p.rows.size(); ++i) {
    const Row& row = p.rows[i];
    const double lhs = Activity(row, s.x);
    const double y = s.duals[i];
    switch (row.sense) {
      case RowSense::kLe:
        EXPECT_LE(lhs, row.rhs + kTol) << label << " row " << i;
        EXPECT_LE(y, kTol) << label << " row " << i;
        break;
      case RowSense::kGe:
        EXPECT_GE(lhs, row.rhs - kTol) << label << " row " << i;
        EXPECT_GE(y, -kTol) << label << " row " << i;
        break;
      case RowSense::kEq:
        EXPECT_NEAR(lhs, row.rhs, kTol) << label << " row " << i;
        break;
    }
    if (std::fabs(lhs - row.rhs) > kTol) {
      EXPECT_NEAR(y, 0.0, kTol) << label << " slack row " << i;
    }
    dual_obj += row.rhs * y;
    for (const auto& [var, coeff] : row.coeffs) {
      d[static_cast<size_t>(var)] -= coeff * y;
    }
  }
  double primal_obj = 0.0;
  for (int j = 0; j < p.num_vars; ++j) {
    const size_t v = static_cast<size_t>(j);
    const double lo = p.lower.empty() ? 0.0 : p.lower[v];
    const double hi = p.upper.empty() ? kInf : p.upper[v];
    const double x = s.x[v];
    primal_obj += p.objective[v] * x;
    EXPECT_GE(x, lo - kTol) << label << " col " << j;
    EXPECT_LE(x, hi + kTol) << label << " col " << j;
    const bool at_lo = x <= lo + kTol;
    const bool at_hi = x >= hi - kTol;
    if (!at_lo) {
      EXPECT_LE(d[v], kTol) << label << " col " << j;
    }
    if (!at_hi) {
      EXPECT_GE(d[v], -kTol) << label << " col " << j;
    }
    dual_obj += d[v] >= 0 ? d[v] * lo : (std::isfinite(hi) ? d[v] * hi : 0.0);
  }
  EXPECT_NEAR(primal_obj, s.objective, kTol) << label;
  EXPECT_NEAR(primal_obj, dual_obj, kTol) << label;
}

// A feasible, bounded LP with 2-8 columns and 1-8 rows: rows are built
// around a random point inside the bounds, and every column whose cost is
// negative has a finite upper bound. Integral coefficients and tight rows
// make degenerate vertices common.
LpProblem RandomFeasibleLp(Rng& rng, std::vector<double>* point) {
  LpProblem p;
  p.num_vars = static_cast<int>(rng.Range(2, 8));
  const size_t n = static_cast<size_t>(p.num_vars);
  point->assign(n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double c = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(-3, 3);
    double lo = rng.Bernoulli(0.6) ? 0.0 : rng.Uniform(-2, 2);
    double hi = kInf;
    if (c < 0 || rng.Bernoulli(0.4)) {
      hi = rng.Bernoulli(0.05) ? lo : lo + rng.Uniform(0.5, 4);
    }
    p.objective.push_back(c);
    p.lower.push_back(lo);
    p.upper.push_back(hi);
    (*point)[j] = std::isfinite(hi) ? rng.Uniform(lo, hi + 1e-12)
                                    : lo + rng.Uniform(0, 3);
  }
  const int m = static_cast<int>(rng.Range(1, 8));
  for (int i = 0; i < m; ++i) {
    Row row;
    for (int j = 0; j < p.num_vars; ++j) {
      if (!rng.Bernoulli(0.6)) continue;
      double a = rng.Uniform(-3, 3);
      if (rng.Bernoulli(0.5)) a = std::round(a);
      if (a != 0.0) row.coeffs.push_back({j, a});
    }
    if (row.coeffs.empty()) continue;
    const double lhs = Activity(row, *point);
    const double gap = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0, 2);
    switch (rng.Below(3)) {
      case 0:
        row.sense = RowSense::kLe;
        row.rhs = lhs + gap;
        break;
      case 1:
        row.sense = RowSense::kGe;
        row.rhs = lhs - gap;
        break;
      default:
        row.sense = RowSense::kEq;
        row.rhs = lhs;
        break;
    }
    p.rows.push_back(std::move(row));
  }
  return p;
}

TEST(SimplexOracleTest, RandomLpsMeetTheirKktCertificates) {
  Rng rng(20261018);
  std::vector<double> point;
  for (int trial = 0; trial < 400; ++trial) {
    LpProblem p = RandomFeasibleLp(rng, &point);
    LpSolution s = SolveLp(p);
    const std::string label = "trial " + std::to_string(trial);
    ASSERT_EQ(s.status, LpStatus::kOptimal) << label;
    ExpectKktCertificate(p, s, label);
  }
}

TEST(SimplexOracleTest, RandomInfeasibleLpsAreDetected) {
  Rng rng(7);
  std::vector<double> point;
  for (int trial = 0; trial < 50; ++trial) {
    LpProblem p = RandomFeasibleLp(rng, &point);
    // a x <= t and a x >= t + 1 over a random support.
    Row le;
    for (int j = 0; j < p.num_vars; ++j) {
      if (j == 0 || rng.Bernoulli(0.5)) le.coeffs.push_back({j, rng.Uniform(0.5, 2)});
    }
    le.sense = RowSense::kLe;
    le.rhs = rng.Uniform(-1, 3);
    Row ge = le;
    ge.sense = RowSense::kGe;
    ge.rhs = le.rhs + 1.0;
    p.rows.push_back(le);
    p.rows.push_back(ge);
    EXPECT_EQ(SolveLp(p).status, LpStatus::kInfeasible) << "trial " << trial;
  }
}

TEST(SimplexOracleTest, RandomUnboundedLpsAreDetected) {
  Rng rng(11);
  std::vector<double> point;
  for (int trial = 0; trial < 50; ++trial) {
    LpProblem p = RandomFeasibleLp(rng, &point);
    // A column of negative cost and no upper bound that only ever helps:
    // positive in >= rows, negative in <= rows, absent from = rows.
    const int ray = p.num_vars++;
    p.objective.push_back(-rng.Uniform(0.1, 2));
    p.lower.push_back(0.0);
    p.upper.push_back(kInf);
    for (Row& row : p.rows) {
      if (row.sense == RowSense::kEq || rng.Bernoulli(0.5)) continue;
      const double a = rng.Uniform(0.1, 2);
      row.coeffs.push_back({ray, row.sense == RowSense::kGe ? a : -a});
    }
    EXPECT_EQ(SolveLp(p).status, LpStatus::kUnbounded) << "trial " << trial;
  }
}

TEST(SimplexOracleTest, WarmResolveMatchesColdSolve) {
  Rng rng(99);
  std::vector<double> point;
  for (int trial = 0; trial < 200; ++trial) {
    LpProblem p = RandomFeasibleLp(rng, &point);
    DualSimplex warm(p.objective, p.lower, p.upper);
    for (const Row& row : p.rows) warm.AddRow(row);
    ASSERT_EQ(warm.Solve(), LpStatus::kOptimal) << "trial " << trial;
    for (int round = 0; round < 4; ++round) {
      const std::string label =
          "trial " + std::to_string(trial) + " round " + std::to_string(round);
      // Drop a row whose logical is basic (it carries no dual).
      for (int i = warm.num_rows() - 1; i >= 0; --i) {
        if (!warm.LogicalIsBasic(i) || !rng.Bernoulli(0.5)) continue;
        warm.RemoveRow(i);
        p.rows[static_cast<size_t>(i)] = p.rows.back();
        p.rows.pop_back();
        break;
      }
      // Add rows around the current point; some may cut it off.
      for (int k = static_cast<int>(rng.Range(0, 2)); k > 0; --k) {
        Row row;
        for (int j = 0; j < p.num_vars; ++j) {
          if (rng.Bernoulli(0.5)) row.coeffs.push_back({j, rng.Uniform(-2, 2)});
        }
        if (row.coeffs.empty()) continue;
        row.sense = rng.Bernoulli(0.5) ? RowSense::kLe : RowSense::kGe;
        row.rhs = Activity(row, point) + rng.Uniform(-1, 1);
        warm.AddRow(row);
        p.rows.push_back(row);
      }
      // Move some column bounds, as a branch or a backtrack would.
      for (int k = static_cast<int>(rng.Range(0, 2)); k > 0; --k) {
        const size_t j = static_cast<size_t>(rng.Below(
            static_cast<uint64_t>(p.num_vars)));
        const double lo = rng.Bernoulli(0.5) ? p.lower[j] : p.lower[j] - 1.0;
        double hi = lo + rng.Uniform(0, 3);
        if (p.objective[j] >= 0 && rng.Bernoulli(0.3)) hi = kInf;
        p.lower[j] = lo;
        p.upper[j] = hi;
        warm.SetBounds(static_cast<int>(j), lo, hi);
      }
      const LpStatus status = warm.Solve();
      const LpSolution cold = SolveLp(p);
      ASSERT_EQ(status, cold.status) << label;
      if (status != LpStatus::kOptimal) break;
      EXPECT_NEAR(warm.Objective(), cold.objective, kTol) << label;
      LpSolution from_warm;
      from_warm.status = status;
      from_warm.objective = warm.Objective();
      from_warm.x = warm.Primal();
      from_warm.duals = warm.Duals();
      ExpectKktCertificate(p, from_warm, label);
    }
  }
}

// Hundreds of warm pivots on one engine: the inverse is rebuilt from the
// basis every few hundred updates, and every re-solve must still match a
// cold solve of the same LP.
TEST(SimplexOracleTest, LongWarmSequenceThroughRebuildsMatchesColdSolves) {
  Rng rng(123);
  LpProblem p;
  p.num_vars = 40;
  for (int j = 0; j < p.num_vars; ++j) {
    p.objective.push_back(rng.Uniform(0, 2));
    p.lower.push_back(0.0);
    p.upper.push_back(rng.Bernoulli(0.5) ? 1.0 : kInf);
  }
  std::vector<double> point(static_cast<size_t>(p.num_vars));
  DualSimplex warm(p.objective, p.lower, p.upper);
  for (int round = 0; round < 300; ++round) {
    const std::string label = "round " + std::to_string(round);
    // Rows that pull toward a moving target, then drop the slack ones.
    for (double& v : point) v = rng.Uniform(0.2, 1.0);
    for (int k = 0; k < 4; ++k) {
      Row row;
      for (int j = 0; j < p.num_vars; ++j) {
        if (rng.Bernoulli(0.3)) row.coeffs.push_back({j, rng.Uniform(0.1, 2)});
      }
      if (row.coeffs.empty()) continue;
      row.sense = RowSense::kGe;
      row.rhs = Activity(row, point);
      warm.AddRow(row);
      p.rows.push_back(row);
    }
    if (warm.Solve() != LpStatus::kOptimal) FAIL() << label;
    const std::vector<double> x = warm.Primal();
    for (int i = warm.num_rows() - 1; i >= 0; --i) {
      const Row& row = p.rows[static_cast<size_t>(i)];
      if (warm.LogicalIsBasic(i) && Activity(row, x) > row.rhs + 1e-6) {
        warm.RemoveRow(i);
        p.rows[static_cast<size_t>(i)] = p.rows.back();
        p.rows.pop_back();
      }
    }
    const size_t j = static_cast<size_t>(rng.Below(40));
    p.lower[j] = rng.Bernoulli(0.5) ? 0.0 : 0.25;
    warm.SetBounds(static_cast<int>(j), p.lower[j], p.upper[j]);
    ASSERT_EQ(warm.Solve(), LpStatus::kOptimal) << label;
    const LpSolution cold = SolveLp(p);
    ASSERT_EQ(cold.status, LpStatus::kOptimal) << label;
    EXPECT_NEAR(warm.Objective(), cold.objective, kTol) << label;
  }
  EXPECT_GT(warm.iterations(), 400);  // two or more rebuilds of the inverse
}

TEST(SimplexTest, StatusNames) {
  EXPECT_STREQ(LpStatusName(LpStatus::kOptimal), "Optimal");
  EXPECT_STREQ(LpStatusName(LpStatus::kUnbounded), "Unbounded");
}

}  // namespace
}  // namespace cloudia::lp
