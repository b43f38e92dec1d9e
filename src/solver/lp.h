// Dense two-phase primal simplex.
//
// The paper hands its ILP (4)-(16) to GUROBI; we have no solver binaries,
// so the repository carries its own: this LP core plus the branch-and-bound
// wrapper in milp.h.  The formulation the assigner generates is small after
// layer grouping (tens of rows, hundreds of columns), so a dense tableau
// with Dantzig pricing (Bland fallback for anti-cycling) is entirely
// adequate and easy to audit.
//
// Canonical form: minimize c.x subject to per-row { a.x (<=|>=|=) b } and
// x >= 0 elementwise.  Upper bounds on variables are not represented
// directly; the MILP layer handles binary fixing by substitution (a set
// branch pins a whole prefix or suffix of a one-hot row to 0) and the
// assigner's formulation implies z <= 1 through its assignment equalities.
// Rows written as `<=` with a nonnegative rhs start on a slack; `>=` and
// `=` rows need a phase-1 artificial, so the assigner states its many
// contiguity rows as `<= 0`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sq::solver {

/// Row comparison sense.
enum class Sense { kLe, kGe, kEq };

/// Sparse linear expression term: coefficient on variable `var`.
struct Term {
  int var = 0;
  double coeff = 0.0;
};

/// One linear constraint: sum(terms) sense rhs.
struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  std::string name;  ///< Optional, for debugging.
};

/// A minimization LP over nonnegative variables.
class LpProblem {
 public:
  /// Add a variable with objective coefficient `obj`.  Returns its index.
  int add_variable(double obj, std::string name = "");

  /// Add a constraint; all referenced variables must already exist.
  void add_constraint(Constraint c);

  /// Number of variables / constraints.
  int num_vars() const { return static_cast<int>(obj_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  /// Objective coefficients.
  const std::vector<double>& objective() const { return obj_; }
  /// Constraint rows.
  const std::vector<Constraint>& constraints() const { return rows_; }
  /// Variable name (may be empty).
  const std::string& var_name(int v) const { return names_[static_cast<std::size_t>(v)]; }

  /// Evaluate the objective at a point.
  double objective_value(const std::vector<double>& x) const;

  /// Max violation of any constraint at `x` (0 when feasible).
  double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<double> obj_;
  std::vector<std::string> names_;
  std::vector<Constraint> rows_;
};

/// Simplex outcome.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

/// Solution of an LP solve.
struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;  ///< Size num_vars (zeros unless kOptimal).
  int iterations = 0;
};

/// Dense two-phase primal simplex solver.
///
/// `fixed` (optional, size num_vars) pins variables to given values; fixed
/// variables are substituted out before the solve, which is how the MILP
/// branch-and-bound explores 0/1 branches without upper-bound rows.
class SimplexSolver {
 public:
  /// Iteration cap across both phases (safety net; the assigner's LPs take
  /// a few hundred iterations).
  explicit SimplexSolver(int max_iterations = 20000)
      : max_iterations_(max_iterations) {}

  /// Solve `p`, optionally with fixings: fixed_mask[v] true means variable
  /// v is pinned at fixed_value[v].
  LpSolution solve(const LpProblem& p, const std::vector<std::uint8_t>& fixed_mask = {},
                   const std::vector<double>& fixed_value = {}) const;

 private:
  int max_iterations_;
};

}  // namespace sq::solver
