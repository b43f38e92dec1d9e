#include "solver/lp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

namespace sq::solver {

namespace {
constexpr double kEps = 1e-9;
constexpr double kFeasEps = 1e-7;
/// A pivot skips the update of rows whose entry in the pivot column is
/// below kDropTol.  The live tableau outlasts thousands of pivots, so the
/// error each skip leaves behind must stay far below kEps.
constexpr double kDropTol = 1e-12;
/// A warm re-solve repairs basic values below -kPrimalTol: a looser bound
/// would let a row stay violated by enough to move the objective.
constexpr double kPrimalTol = 1e-11;
/// Smallest pivot element a warm re-solve accepts.
constexpr double kPivotTol = 1e-7;
/// Largest violation of the original rows a warm re-solve may leave before
/// it is redone cold.
constexpr double kCheckTol = 1e-9;

/// A solve that ended without an optimal point.
LpSolution no_point(LpStatus status, int iterations) {
  LpSolution sol;
  sol.status = status;
  sol.iterations = iterations;
  return sol;
}
}  // namespace

int LpProblem::add_variable(double obj, std::string name) {
  obj_.push_back(obj);
  names_.push_back(std::move(name));
  return static_cast<int>(obj_.size()) - 1;
}

void LpProblem::add_constraint(Constraint c) {
  for ([[maybe_unused]] const auto& t : c.terms) {
    assert(t.var >= 0 && t.var < num_vars());
  }
  rows_.push_back(std::move(c));
}

double LpProblem::objective_value(const std::vector<double>& x) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < obj_.size() && i < x.size(); ++i) acc += obj_[i] * x[i];
  return acc;
}

double LpProblem::max_violation(const std::vector<double>& x) const {
  double worst = 0.0;
  for (const auto& row : rows_) {
    double lhs = 0.0;
    for (const auto& t : row.terms) lhs += t.coeff * x[static_cast<std::size_t>(t.var)];
    double v = 0.0;
    switch (row.sense) {
      case Sense::kLe: v = lhs - row.rhs; break;
      case Sense::kGe: v = row.rhs - lhs; break;
      case Sense::kEq: v = std::abs(lhs - row.rhs); break;
    }
    worst = std::max(worst, v);
  }
  for (double xi : x) worst = std::max(worst, -xi);
  return worst;
}

LpSolution SimplexSolver::solve(const LpProblem& p,
                                const std::vector<std::uint8_t>& fixed_mask,
                                const std::vector<double>& fixed_value) const {
  const int n = p.num_vars();
  const bool has_fixed = !fixed_mask.empty();
  assert(!has_fixed || (static_cast<int>(fixed_mask.size()) == n &&
                        static_cast<int>(fixed_value.size()) == n));
  WarmSimplex t(p, max_iterations_);
  for (int v = 0; v < n && has_fixed; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    t.fixed_[sv] = fixed_mask[sv];
    t.value_[sv] = fixed_mask[sv] ? fixed_value[sv] : 0.0;
  }
  return t.cold();
}

WarmSimplex::WarmSimplex(const LpProblem& p, int max_iterations)
    : p_(p), max_iterations_(max_iterations), n_(p.num_vars()), m_(p.num_constraints()) {
  slack_of_row_.assign(static_cast<std::size_t>(m_), -1);
  int col = n_;
  for (int r = 0; r < m_; ++r) {
    if (p.constraints()[static_cast<std::size_t>(r)].sense != Sense::kEq) {
      slack_of_row_[static_cast<std::size_t>(r)] = col++;
    }
  }
  art_begin_ = col;
  const auto max_cols = static_cast<std::size_t>(art_begin_ + m_);
  fixed_.assign(max_cols, 0);
  in_start_.assign(max_cols, 0);
  value_.assign(static_cast<std::size_t>(n_), 0.0);
}

void WarmSimplex::set_fixings(std::span<const std::int8_t> fix) {
  assert(static_cast<int>(fix.size()) == n_);
  for (int v = 0; v < n_; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    fixed_[sv] = fix[sv] != kFree;
    value_[sv] = fix[sv] != kFree ? fix[sv] : 0.0;
  }
}

void WarmSimplex::pivot(int prow, int pcol) {
  ++pivots_;
  const double inv = 1.0 / at(prow, pcol);
  double* src = &at(prow, 0);
  for (int c = 0; c <= n_cols_; ++c) src[c] *= inv;
  src[pcol] = 1.0;  // exact
  for (int r = 0; r <= m_; ++r) {
    if (r == prow) continue;
    double* dst = &at(r, 0);
    const double f = dst[pcol];
    if (std::abs(f) < kDropTol) { dst[pcol] = 0.0; continue; }
    for (int c = 0; c <= n_cols_; ++c) dst[c] -= f * src[c];
    dst[pcol] = 0.0;  // exact
  }
  const int out = basis_[static_cast<std::size_t>(prow)];
  if (out >= 0) row_of_[static_cast<std::size_t>(out)] = -1;
  basis_[static_cast<std::size_t>(prow)] = pcol;
  row_of_[static_cast<std::size_t>(pcol)] = prow;
}

void WarmSimplex::shift(int col, double dv) {
  if (dv == 0.0) return;
  for (int r = 0; r <= m_; ++r) rhs(r) -= dv * at(r, col);
}

double WarmSimplex::value_of(int col) const {
  return col < n_ ? value_[static_cast<std::size_t>(col)] : 0.0;
}

void WarmSimplex::exchange(int prow, int pcol) {
  // The rhs carries every nonbasic fixed variable at its value; a fixed
  // column entering stops being carried, a fixed one leaving starts.
  const int out = basis_[static_cast<std::size_t>(prow)];
  if (fixed_[static_cast<std::size_t>(pcol)]) shift(pcol, -value_of(pcol));
  pivot(prow, pcol);
  if (fixed_[static_cast<std::size_t>(out)]) shift(out, value_of(out));
}

LpStatus WarmSimplex::primal(int& iters, int cap) {
  while (true) {
    if (iters >= cap) return LpStatus::kIterLimit;
    ++iters;
    const bool bland = iters > cap / 2;
    // Entering column: negative reduced cost.
    int enter = -1;
    double best = -kEps;
    for (int c = 0; c < n_cols_; ++c) {
      if (fixed_[static_cast<std::size_t>(c)]) continue;
      const double rc = at(m_, c);
      if (bland) {
        if (rc < -kEps) { enter = c; break; }
      } else if (rc < best) {
        best = rc;
        enter = c;
      }
    }
    if (enter < 0) return LpStatus::kOptimal;
    // Ratio test.
    int leave = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < m_; ++r) {
      const double a = at(r, enter);
      if (a > kEps) {
        const double ratio = rhs(r) / a;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && leave >= 0 &&
             basis_[static_cast<std::size_t>(r)] <
                 basis_[static_cast<std::size_t>(leave)])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave < 0) return LpStatus::kUnbounded;
    exchange(leave, enter);
  }
}

void WarmSimplex::price_objective() {
  double* cost = &at(m_, 0);
  std::fill(cost, cost + width_, 0.0);
  for (int j = 0; j < n_; ++j) cost[j] = p_.objective()[static_cast<std::size_t>(j)];
  for (int r = 0; r < m_; ++r) {
    const int b = basis_[static_cast<std::size_t>(r)];
    if (b < n_ && std::abs(cost[b]) > kEps) {
      const double f = cost[b];
      const double* src = &at(r, 0);
      for (int c = 0; c <= n_cols_; ++c) cost[c] -= f * src[c];
    }
  }
}

LpSolution WarmSimplex::cold() {
  // Column layout: [structural | slack | one artificial per row | rhs].
  n_cols_ = art_begin_ + m_;
  width_ = n_cols_ + 1;
  tab_.assign(static_cast<std::size_t>(m_ + 1) * static_cast<std::size_t>(width_), 0.0);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  row_of_.assign(static_cast<std::size_t>(n_cols_), -1);  // artificials included
  std::fill(fixed_.begin() + n_, fixed_.end(), 0);
  live_ = true;

  // Rows with the fixed variables moved to the rhs, normalized to rhs >= 0.
  int n_art = 0;
  for (int r = 0; r < m_; ++r) {
    const Constraint& c = p_.constraints()[static_cast<std::size_t>(r)];
    double* row = &at(r, 0);
    double b = c.rhs;
    for (const auto& t : c.terms) {
      if (fixed_[static_cast<std::size_t>(t.var)]) {
        b -= t.coeff * value_[static_cast<std::size_t>(t.var)];
      }
      row[t.var] += t.coeff;
    }
    Sense sense = c.sense;
    if (b < 0.0) {
      for (int j = 0; j < n_; ++j) row[j] = -row[j];
      b = -b;
      if (sense == Sense::kLe) sense = Sense::kGe;
      else if (sense == Sense::kGe) sense = Sense::kLe;
    }
    row[n_cols_] = b;
    const int slack = slack_of_row_[static_cast<std::size_t>(r)];
    int start = art_begin_ + r;
    switch (sense) {
      case Sense::kLe: row[slack] = 1.0; start = slack; break;
      case Sense::kGe: row[slack] = -1.0; [[fallthrough]];
      case Sense::kEq: row[start] = 1.0; ++n_art; break;
    }
    basis_[static_cast<std::size_t>(r)] = start;
    row_of_[static_cast<std::size_t>(start)] = r;
  }

  int iters = 0;
  // ---- Phase 1: minimize sum of artificials. --------------------------
  LpStatus st = LpStatus::kOptimal;
  if (n_art > 0) {
    double* cost = &at(m_, 0);
    for (int c = art_begin_; c < n_cols_; ++c) cost[c] = 1.0;
    // Price out artificial basics.
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] >= art_begin_) {
        const double* src = &at(r, 0);
        for (int c = 0; c <= n_cols_; ++c) cost[c] -= src[c];
      }
    }
    st = primal(iters, max_iterations_);
    if (st == LpStatus::kOptimal && -at(m_, n_cols_) > kFeasEps) {
      st = LpStatus::kInfeasible;
    }
    if (st == LpStatus::kOptimal) {
      // Drive remaining artificial basics out where possible.
      for (int r = 0; r < m_; ++r) {
        if (basis_[static_cast<std::size_t>(r)] < art_begin_) continue;
        for (int c = 0; c < art_begin_; ++c) {
          if (!fixed_[static_cast<std::size_t>(c)] && std::abs(at(r, c)) > kFeasEps) {
            pivot(r, c);
            break;
          }
        }
        // else: redundant row; the artificial stays basic at value 0.
      }
    }
  }
  // From here on the artificials are variables fixed at 0.  None can enter
  // again and a basic one stays the unit column of its row, so their
  // columns are never read: drop them.
  std::fill(fixed_.begin() + art_begin_, fixed_.end(), 1);
  drop_artificials();

  // ---- Phase 2: original objective. ------------------------------------
  price_objective();
  if (st == LpStatus::kOptimal) st = primal(iters, max_iterations_);
  return st == LpStatus::kOptimal ? extract(iters) : no_point(st, iters);
}

LpSolution WarmSimplex::extract(int iterations) const {
  LpSolution sol;
  sol.status = LpStatus::kOptimal;
  sol.iterations = iterations;
  sol.x.assign(static_cast<std::size_t>(n_), 0.0);
  for (int v = 0; v < n_; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    const int r = row_of_[sv];
    if (fixed_[sv]) sol.x[sv] = value_[sv];
    else if (r >= 0) sol.x[sv] = tab_[static_cast<std::size_t>(r) * width_ + n_cols_];
  }
  sol.objective = p_.objective_value(sol.x);
  return sol;
}

void WarmSimplex::drop_artificials() {
  const int w = art_begin_ + 1;
  for (int r = 0; r <= m_; ++r) {
    const double* src = &at(r, 0);
    double* dst = &tab_[static_cast<std::size_t>(r) * static_cast<std::size_t>(w)];
    std::memmove(dst, src, static_cast<std::size_t>(art_begin_) * sizeof(double));
    dst[art_begin_] = src[n_cols_];
  }
  n_cols_ = art_begin_;
  width_ = w;
  tab_.resize(static_cast<std::size_t>(m_ + 1) * static_cast<std::size_t>(w));
}

LpSolution WarmSimplex::solve_cold(std::span<const std::int8_t> fix) {
  set_fixings(fix);
  return cold();
}

bool WarmSimplex::move_to(std::span<const int> start) {
  for (const int k : start) in_start_[static_cast<std::size_t>(k)] = 1;
  bool ok = true;
  for (const int k : start) {
    if (row_of_[static_cast<std::size_t>(k)] >= 0) continue;
    if (k >= n_cols_) { ok = false; break; }  // an artificial has no column
    // Bring k in on the row, among those whose basic column is not wanted,
    // with the largest |alpha|.
    int prow = -1;
    double best = kPivotTol;
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (in_start_[static_cast<std::size_t>(b)]) continue;
      const double a = std::abs(at(r, k));
      if (a > best) {
        best = a;
        prow = r;
      }
    }
    if (prow < 0) { ok = false; break; }
    exchange(prow, k);
  }
  for (const int k : start) in_start_[static_cast<std::size_t>(k)] = 0;
  return ok;
}

LpStatus WarmSimplex::dual(long pivot_cap) {
  // Rows no column can repair whose basic variable is within kFeasEps of
  // its target: accepted as they are (the row is redundant, or the miss is
  // round-off).
  std::vector<std::uint8_t> stuck(static_cast<std::size_t>(m_), 0);
  while (true) {
    // Leaving row: a fixed basic variable first, else the most negative
    // basic value.  `target` is the value the leaving variable ends at.
    int leave = -1;
    bool leave_fixed = false;
    double target = 0.0;
    for (int r = 0; r < m_ && leave < 0; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (fixed_[static_cast<std::size_t>(b)] && !stuck[static_cast<std::size_t>(r)]) {
        leave = r;
        leave_fixed = true;
        target = value_of(b);
      }
    }
    if (leave < 0) {
      double worst = -kPrimalTol;
      for (int r = 0; r < m_; ++r) {
        if (!fixed_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] &&
            !stuck[static_cast<std::size_t>(r)] && rhs(r) < worst) {
          worst = rhs(r);
          leave = r;
        }
      }
    }
    if (leave < 0) return LpStatus::kOptimal;  // primal feasible
    if (pivots_ >= pivot_cap) return LpStatus::kIterLimit;

    // Dual ratio test over the columns that can move the leaving variable
    // to `target`: the sign of alpha must match the gap (either sign when
    // there is none).  Harris's two passes: the smallest d/|alpha|, with a
    // kEps slack on d, bounds the step, and of the columns within it the
    // largest |alpha| enters (lowest column on ties), so a tiny pivot is
    // taken only when no sound one is as good.
    const double gap = rhs(leave) - target;
    const int sign = !leave_fixed ? -1 : (gap > kEps ? 1 : (gap < -kEps ? -1 : 0));
    const double* row = &at(leave, 0);
    const double* cost = &at(m_, 0);
    auto alpha = [&](int c) {  // |alpha| of an eligible column, else 0
      const auto sc = static_cast<std::size_t>(c);
      if (fixed_[sc] || row_of_[sc] >= 0) return 0.0;
      const double a = row[c];
      const bool wrong_way =
          sign > 0 ? a <= kEps : (sign < 0 ? a >= -kEps : std::abs(a) <= kEps);
      return wrong_way ? 0.0 : std::abs(a);
    };
    double bound = std::numeric_limits<double>::infinity();
    for (int c = 0; c < n_cols_; ++c) {
      const double a = alpha(c);
      if (a > 0.0) bound = std::min(bound, (std::max(cost[c], 0.0) + kEps) / a);
    }
    int enter = -1;
    double best_alpha = 0.0;
    for (int c = 0; c < n_cols_; ++c) {
      const double a = alpha(c);
      if (a > best_alpha && std::max(cost[c], 0.0) / a <= bound) {
        best_alpha = a;
        enter = c;
      }
    }
    if (enter < 0) {
      // Every column pushes the leaving variable the wrong way: the row
      // proves the fixings infeasible, unless the variable is already there.
      if (std::abs(gap) > kFeasEps) return LpStatus::kInfeasible;
      stuck[static_cast<std::size_t>(leave)] = 1;
      continue;
    }
    if (best_alpha < kPivotTol) return LpStatus::kIterLimit;
    exchange(leave, enter);
  }
}

LpSolution WarmSimplex::solve_warm(std::span<const std::int8_t> fix,
                                   std::span<const int> start) {
  assert(static_cast<int>(fix.size()) == n_);
  if (!live_) return solve_cold(fix);
  // A warm re-solve that takes more pivots than there are rows and columns
  // is redone cold (cycling guard).
  const long pivots0 = pivots_;
  const int cap = m_ + n_cols_;
  if (!start.empty() && !move_to(start)) return solve_cold(fix);

  // Carry every changed fixing of a nonbasic variable in the rhs; basic
  // ones are the dual simplex's job.
  for (int v = 0; v < n_; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    const bool now_fixed = fix[sv] != kFree;
    const double now = now_fixed ? fix[sv] : 0.0;
    if (now_fixed == static_cast<bool>(fixed_[sv]) && now == value_[sv]) continue;
    if (row_of_[sv] < 0) shift(v, now - value_[sv]);
    fixed_[sv] = now_fixed;
    value_[sv] = now;
  }

  const LpStatus st = dual(pivots0 + cap);
  int iters = static_cast<int>(pivots_ - pivots0);
  if (st == LpStatus::kIterLimit) return solve_cold(fix);
  if (st == LpStatus::kInfeasible) return no_point(st, iters);
  // Primal clean-up for reduced costs that drifted negative.
  const LpStatus st2 = primal(iters, cap);
  if (st2 == LpStatus::kIterLimit) return solve_cold(fix);
  if (st2 == LpStatus::kUnbounded) return no_point(st2, iters);
  LpSolution sol = extract(static_cast<int>(pivots_ - pivots0));
  if (p_.max_violation(sol.x) > kCheckTol) return solve_cold(fix);
  return sol;
}

}  // namespace sq::solver
