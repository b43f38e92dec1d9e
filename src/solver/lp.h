// Dense simplex: a two-phase primal cold solve plus a dual simplex that
// re-optimizes a live tableau after variable fixings change.
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
// directly; binary fixings pin a variable at 0 or 1 (a set branch pins a
// whole prefix or suffix of a one-hot row to 0) and the assigner's
// formulation implies z <= 1 through its assignment equalities.  Rows
// written as `<=` with a nonnegative rhs start on a slack; `>=` and `=`
// rows need a phase-1 artificial, so the assigner states its many
// contiguity rows as `<= 0`.
//
// The tableau keeps one column per variable, fixed or not, one slack per
// inequality row, and (during phase 1 only) one artificial per row.  A
// fixed variable sits outside the basis at its value, carried in the rhs
// column, and may not enter.  That layout is what lets WarmSimplex move
// between branch-and-bound nodes: fixing or freeing a nonbasic variable
// shifts the rhs by value * column, and the previous optimal basis stays
// dual feasible, so a few dual pivots restore primal feasibility.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

/// Dense two-phase primal simplex solver: the cold path.
///
/// `fixed` (optional, size num_vars) pins variables to given values; a
/// fixed variable stays out of the basis at its value, which is how the
/// MILP branch-and-bound explores 0/1 branches without upper-bound rows.
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

/// Per-variable fixing of a WarmSimplex solve: kFree, or the value (0 or 1)
/// the variable is pinned at.
inline constexpr std::int8_t kFree = -1;

/// One live simplex tableau over `p` that re-optimizes after the fixings
/// change, as branch-and-bound does from node to node.
///
/// solve_cold() is SimplexSolver's two-phase solve on this tableau; the
/// artificial columns are dropped after phase 1 (a basic artificial, on a
/// redundant row, stays in the basis as a variable fixed at 0).
///
/// solve_warm() starts from the live tableau: it pivots to `start` (a basis
/// an earlier optimal solve reported), moves the rhs for every nonbasic
/// variable whose fixing changed, drives newly fixed basic variables out
/// with dual ratio-test pivots, runs dual simplex to primal feasibility (no
/// eligible entering column proves the fixings infeasible) and finishes
/// with primal pivots if a reduced cost drifted negative.  The point it
/// returns is checked against the original rows; a failed check, a pivot
/// element below tolerance or the pivot cap redoes the solve cold, so the
/// outcome depends only on the inputs and the call sequence.
class WarmSimplex {
 public:
  /// `p` must outlive this object.
  explicit WarmSimplex(const LpProblem& p, int max_iterations = 20000);

  /// Rebuild the tableau and solve two-phase under `fix` (size num_vars).
  LpSolution solve_cold(std::span<const std::int8_t> fix);

  /// Re-optimize under `fix` from the live tableau, first pivoting to
  /// `start` when it is nonempty.  Solves cold if nothing was solved yet.
  LpSolution solve_warm(std::span<const std::int8_t> fix,
                        std::span<const int> start = {});

  /// Basic column of each row; after an optimal solve, a valid `start`.
  const std::vector<int>& basis() const { return basis_; }

  /// Pivots performed by every solve so far, cold ones included.
  long pivots() const { return pivots_; }

 private:
  friend class SimplexSolver;

  double& at(int r, int c) {
    return tab_[static_cast<std::size_t>(r) * static_cast<std::size_t>(width_) +
                static_cast<std::size_t>(c)];
  }
  double& rhs(int r) { return at(r, n_cols_); }
  void set_fixings(std::span<const std::int8_t> fix);
  LpSolution cold();
  LpStatus primal(int& iters, int cap);
  LpStatus dual(long pivot_cap);
  bool move_to(std::span<const int> start);
  void pivot(int prow, int pcol);
  void exchange(int prow, int pcol);
  void shift(int col, double dv);
  double value_of(int col) const;
  void price_objective();
  void drop_artificials();
  LpSolution extract(int iterations) const;

  const LpProblem& p_;
  int max_iterations_;
  int n_ = 0;          ///< Structural variables.
  int m_ = 0;          ///< Rows.
  int art_begin_ = 0;  ///< First artificial column (= structural + slack count).
  int n_cols_ = 0;     ///< Columns before the rhs: art_begin_, + m_ in phase 1.
  int width_ = 0;      ///< n_cols_ + 1.
  std::vector<int> slack_of_row_;  ///< Slack column of each row, -1 for `=` rows.
  std::vector<double> tab_;        ///< (m_ + 1) x width_; row m_ holds reduced costs.
  std::vector<int> basis_;         ///< Basic column of each row.
  std::vector<int> row_of_;        ///< Per column (artificials too): row, -1 if nonbasic.
  std::vector<std::uint8_t> fixed_;    ///< Per column: may not enter the basis.
  std::vector<double> value_;          ///< Per structural variable: fixed value, else 0.
  std::vector<std::uint8_t> in_start_;  ///< Per column, move_to's mark; 0 between calls.
  bool live_ = false;                  ///< The tableau holds a solved basis.
  long pivots_ = 0;
};

}  // namespace sq::solver
