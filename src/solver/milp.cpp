#include "solver/milp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <span>

namespace sq::solver {

namespace {

using Clock = std::chrono::steady_clock;

/// An open node: its fixings (kFree, 0 or 1 per variable) and the optimal
/// basis of its parent, which the node's LP re-optimizes from.  The root
/// has no basis and solves cold.
struct Node {
  std::vector<std::int8_t> fix;
  std::shared_ptr<const std::vector<int>> basis;
  double parent_bound = -std::numeric_limits<double>::infinity();
  int depth = 0;
};

struct NodeOrder {
  bool operator()(const std::shared_ptr<Node>& a, const std::shared_ptr<Node>& b) const {
    if (a->parent_bound != b->parent_bound) return a->parent_bound > b->parent_bound;
    return a->depth < b->depth;  // Prefer deeper nodes on ties (diving).
  }
};

/// Index of the most fractional binary in `x`, or -1 if integral.
int most_fractional(const std::vector<double>& x, const std::vector<int>& bins,
                    double tol) {
  int best = -1;
  double best_frac = tol;
  for (int v : bins) {
    const double val = x[static_cast<std::size_t>(v)];
    const double frac = std::abs(val - std::round(val));
    if (frac > best_frac) {
      best_frac = frac;
      best = v;
    }
  }
  return best;
}

/// One-hot set: the variables of an equality row whose terms are all
/// binaries with coefficient 1 and whose rhs is 1, in row order.
using OneHotSet = std::vector<int>;

std::vector<OneHotSet> one_hot_sets(const LpProblem& p, const std::vector<int>& bins) {
  std::vector<std::uint8_t> is_bin(static_cast<std::size_t>(p.num_vars()), 0);
  for (int v : bins) is_bin[static_cast<std::size_t>(v)] = 1;
  std::vector<OneHotSet> sets;
  for (const auto& row : p.constraints()) {
    if (row.sense != Sense::kEq || row.rhs != 1.0 || row.terms.size() < 2) continue;
    OneHotSet s;
    for (const auto& t : row.terms) {
      if (t.coeff != 1.0 || !is_bin[static_cast<std::size_t>(t.var)]) break;
      s.push_back(t.var);
    }
    if (s.size() == row.terms.size()) sets.push_back(std::move(s));
  }
  return sets;
}

/// Set branch: the prefix [0, split] of `sets[set]` against the rest.
struct SetSplit {
  int set = -1;
  std::size_t split = 0;
};

/// The set and split point whose cumulative LP weight is closest to 0.5
/// (first wins on ties); `set` is -1 when no set has weight on both sides.
SetSplit best_set_split(const std::vector<OneHotSet>& sets, const std::vector<double>& x,
                        double tol) {
  SetSplit best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t si = 0; si < sets.size(); ++si) {
    const OneHotSet& s = sets[si];
    double cum = 0.0;
    for (std::size_t k = 0; k + 1 < s.size(); ++k) {
      cum += x[static_cast<std::size_t>(s[k])];
      if (cum <= tol || cum >= 1.0 - tol) continue;
      const double dist = std::abs(cum - 0.5);
      if (dist < best_dist) {
        best_dist = dist;
        best = {static_cast<int>(si), k};
      }
    }
  }
  return best;
}

bool integer_feasible(const LpProblem& p, const std::vector<double>& x,
                      const std::vector<int>& bins, double tol) {
  if (x.size() != static_cast<std::size_t>(p.num_vars())) return false;
  for (int v : bins) {
    const double val = x[static_cast<std::size_t>(v)];
    if (std::abs(val - std::round(val)) > tol) return false;
    if (val < -tol || val > 1.0 + tol) return false;
  }
  return p.max_violation(x) <= 1e-6;
}

}  // namespace

MilpResult BranchAndBound::solve(const LpProblem& p, const std::vector<int>& binary_vars,
                                 const std::vector<double>& warm_start) const {
  const auto t0 = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  MilpResult res;
  WarmSimplex lp(p);
  const int n = p.num_vars();

  double incumbent = std::numeric_limits<double>::infinity();
  std::vector<double> incumbent_x;
  if (!warm_start.empty() && integer_feasible(p, warm_start, binary_vars, opts_.int_tol)) {
    incumbent = p.objective_value(warm_start);
    incumbent_x = warm_start;
  }

  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>,
                      NodeOrder>
      open;
  {
    auto root = std::make_shared<Node>();
    root->fix.assign(static_cast<std::size_t>(n), kFree);
    open.push(std::move(root));
  }

  const std::vector<OneHotSet> sets = one_hot_sets(p, binary_vars);
  double global_bound = -std::numeric_limits<double>::infinity();
  bool truncated = false;
  // Lowest parent bound of a node whose LP gave no answer (unbounded or
  // iteration cap): the search cannot prove anything below it.
  double skipped_bound = std::numeric_limits<double>::infinity();

  while (!open.empty()) {
    if (res.nodes >= opts_.max_nodes || elapsed() >= opts_.time_limit_s) {
      truncated = true;
      res.hit_time_limit = elapsed() >= opts_.time_limit_s;
      global_bound = open.top()->parent_bound;
      break;
    }
    auto node = open.top();
    open.pop();

    // Bound pruning against the incumbent.
    if (node->parent_bound >= incumbent - std::abs(incumbent) * opts_.rel_gap) {
      global_bound = std::max(global_bound, node->parent_bound);
      // Best-first: every remaining node is at least as bad.
      break;
    }

    const LpSolution rel =
        node->basis ? lp.solve_warm(node->fix, *node->basis) : lp.solve_cold(node->fix);
    ++res.nodes;
    if (rel.status == LpStatus::kInfeasible) continue;
    if (rel.status != LpStatus::kOptimal) {
      skipped_bound = std::min(skipped_bound, node->parent_bound);
      continue;
    }
    if (rel.objective >= incumbent - std::abs(incumbent) * opts_.rel_gap) continue;

    const SetSplit split = best_set_split(sets, rel.x, opts_.int_tol);
    const int branch_var =
        split.set >= 0 ? -1 : most_fractional(rel.x, binary_vars, opts_.int_tol);
    if (split.set < 0 && branch_var < 0) {
      // Integral point.
      if (rel.objective < incumbent) {
        incumbent = rel.objective;
        incumbent_x = rel.x;
        for (int v : binary_vars) {
          incumbent_x[static_cast<std::size_t>(v)] =
              std::round(incumbent_x[static_cast<std::size_t>(v)]);
        }
      }
      continue;
    }

    // A child pins `vars` to `val` on top of this node's fixings and
    // starts from this node's basis.
    const auto basis = std::make_shared<const std::vector<int>>(lp.basis());
    auto push_child = [&](std::span<const int> vars, std::int8_t val) {
      auto child = std::make_shared<Node>();
      child->fix = node->fix;
      for (const int v : vars) child->fix[static_cast<std::size_t>(v)] = val;
      child->basis = basis;
      child->parent_bound = rel.objective;
      child->depth = node->depth + 1;
      open.push(std::move(child));
    };
    if (split.set >= 0) {
      // One child keeps the one inside the prefix (suffix fixed to 0), the
      // other inside the suffix (prefix fixed to 0).
      const std::span<const int> s = sets[static_cast<std::size_t>(split.set)];
      push_child(s.subspan(split.split + 1), 0);
      push_child(s.first(split.split + 1), 0);
      continue;
    }
    const double frac = rel.x[static_cast<std::size_t>(branch_var)];
    // Child closer to the LP value is pushed last-equal-bound so the queue
    // dives toward it first.
    const std::int8_t nearer = frac >= 0.5 ? 1 : 0;
    for (const std::int8_t val : {nearer, static_cast<std::int8_t>(1 - nearer)}) {
      push_child({&branch_var, 1}, val);
    }
  }

  res.seconds = elapsed();
  res.lp_pivots = lp.pivots();
  if (!truncated && open.empty()) {
    global_bound = incumbent;  // Search exhausted.
  }
  res.best_bound = std::isfinite(global_bound) ? global_bound : incumbent;
  res.best_bound = std::min(res.best_bound, skipped_bound);
  const bool skipped = skipped_bound < std::numeric_limits<double>::infinity();

  if (incumbent_x.empty()) {
    res.status =
        truncated || skipped ? MilpStatus::kNoSolution : MilpStatus::kInfeasible;
    return res;
  }
  res.objective = incumbent;
  res.x = std::move(incumbent_x);
  const double gap = std::abs(incumbent) > 0
                         ? (incumbent - res.best_bound) / std::abs(incumbent)
                         : incumbent - res.best_bound;
  const bool proven = truncated ? std::isfinite(global_bound) && gap <= opts_.rel_gap
                                : !skipped || gap <= opts_.rel_gap;
  res.status = proven ? MilpStatus::kOptimal : MilpStatus::kFeasible;
  return res;
}

}  // namespace sq::solver
