// Branch-and-bound mixed-integer solver over the simplex core.
//
// Plays GUROBI's role for the assigner ILP: binary decision variables
// (layer-to-device-at-bitwidth assignments) plus continuous ones (the
// straggler times T_max).  Branching pins binaries at 0 or 1 — no bound
// rows — relying on the formulation's assignment equalities to cap relaxed
// binaries at 1.  Supports a wall-clock time limit (Table VI runs the
// solver with a 60 s cap) and warm-start incumbents from heuristics.
//
// Node LPs: each solve owns one WarmSimplex tableau.  The root solves cold
// (two-phase primal); every other node stores only its fixings (one int8
// per variable) and its parent's optimal basis, and re-optimizes the live
// tableau from that basis with dual simplex.  A node whose LP is unbounded
// or hits the iteration cap gives no bound, so the search cannot be proven
// below it: the result is then kFeasible / kNoSolution with best_bound
// capped at that node's parent bound.
//
// Branching rule: one-hot sets first.  Every equality row whose terms are
// all binaries with coefficient 1 and whose rhs is 1 is a set (in the
// assigner: one row per layer group, plus the stage-0 anchor).  At a
// fractional node the solver picks the set and split point whose
// cumulative LP weight (in row order) is closest to 0.5, first wins on
// ties; one child fixes the set's suffix to 0, the other its prefix.  Only
// when no set splits does it branch on the most fractional binary.  Nodes
// are explored best-first by parent bound, deeper first on ties.
#pragma once

#include <cstdint>
#include <vector>

#include "solver/lp.h"

namespace sq::solver {

/// Branch-and-bound options.
struct MilpOptions {
  double time_limit_s = 60.0;   ///< Wall-clock cap (paper Sec. VI-F).
  double rel_gap = 1e-6;        ///< Stop when (incumbent-bound)/|incumbent| below.
  int max_nodes = 500'000;      ///< Safety cap on explored nodes.
  double int_tol = 1e-6;        ///< Integrality tolerance.
};

/// Result status of a MILP solve.
enum class MilpStatus {
  kOptimal,     ///< Proven optimal within gap.
  kFeasible,    ///< Incumbent found, optimality unproven (time/node cap, or
                ///< a node LP without an answer).
  kInfeasible,  ///< No integer-feasible point exists.
  kNoSolution,  ///< No incumbent, and infeasibility unproven.
};

/// Outcome of a MILP solve.
struct MilpResult {
  MilpStatus status = MilpStatus::kNoSolution;
  double objective = 0.0;      ///< Incumbent objective (if any).
  std::vector<double> x;       ///< Incumbent point (size num_vars).
  double best_bound = 0.0;     ///< Global lower bound at termination.
  int nodes = 0;               ///< B&B nodes explored.
  long lp_pivots = 0;          ///< Simplex pivots over every node's LP.
  double seconds = 0.0;        ///< Wall-clock solve time.
  bool hit_time_limit = false;
};

/// Branch-and-bound solver for LpProblem + binary-variable markings.
class BranchAndBound {
 public:
  explicit BranchAndBound(MilpOptions opts = {}) : opts_(opts) {}

  /// Solve `p` with `binary_vars` restricted to {0, 1}.  `warm_start`, if
  /// nonempty, must be an integer-feasible point used as the initial
  /// incumbent (checked; ignored when infeasible).
  MilpResult solve(const LpProblem& p, const std::vector<int>& binary_vars,
                   const std::vector<double>& warm_start = {}) const;

 private:
  MilpOptions opts_;
};

}  // namespace sq::solver
