// ILP formulation of the joint bitwidth-assignment / layer-partition
// problem (paper Eq. (4)-(16)), built on the PlanContext tables and solved
// with the in-repo branch-and-bound solver.
//
// Variables: binary z_{g,j,b} (layer group g on stage j at bitwidth b)
// plus continuous straggler times T_max^pre and T_max^dec.  Constraints:
// one assignment per group (9)-(11 collapsed), per-stage memory with the
// master's embedding block (12)-(13), straggler definitions (5)-(6),
// communication bounds (7), the stage-0 anchor (15), the contiguous
// partition (16), and an optional quality budget.  The objective is the
// generalized pipeline latency plus theta times the quality penalty.
//
// (16) is stated in prefix form: for every g >= 1 and stage j < J-1,
// sum_{j'<=j,b} z_{g,j',b} - sum_{j'<=j,b} z_{g-1,j',b} <= 0 ("if group g
// sits on a stage <= j, so does group g-1").  It admits exactly the
// integer points of the aggregated row sum_j j*z_g >= sum_j j*z_{g-1}, but
// its LP relaxation is much tighter: (G-1)(J-1) rows instead of G-1, and
// far fewer branch-and-bound nodes.  The assignment rows and the anchor are
// unit one-hot rows, which the solver branches on as sets (milp.h).
#pragma once

#include <optional>

#include "core/context.h"
#include "core/heuristics.h"
#include "solver/milp.h"

namespace sq::core {

/// The MILP of one PlanContext, as handed to the solver.
struct IlpModel {
  sq::solver::LpProblem problem;
  std::vector<int> binaries;  ///< z_{g,j,b} at index (g * J + j) * B + b.
  int t_pre = -1;             ///< Straggler time variables.
  int t_dec = -1;
};

/// Build the MILP for `ctx` (see solve_ilp for `quality_only`).
IlpModel build_ilp(const PlanContext& ctx, bool quality_only = false);

/// Result of one ILP solve.
struct IlpOutcome {
  bool feasible = false;
  HeuristicPlan plan;        ///< Extracted assignment with evaluation.
  double objective = 0.0;    ///< MILP objective (matches plan.eval.objective).
  double best_bound = 0.0;   ///< Solver lower bound.
  int nodes = 0;             ///< B&B nodes.
  long lp_pivots = 0;        ///< Simplex pivots over every node.
  double seconds = 0.0;      ///< Solve wall time.
  bool hit_time_limit = false;
  bool proven_optimal = false;
};

/// Build and solve the ILP for `ctx`.  `warm`, when present, seeds the
/// solver with an integer-feasible incumbent.  `quality_only` drops the
/// latency terms (the `adabits` simplified ILP of Sec. IV-C).
IlpOutcome solve_ilp(const PlanContext& ctx, const std::optional<HeuristicPlan>& warm,
                     const sq::solver::MilpOptions& opts, bool quality_only = false);

}  // namespace sq::core
