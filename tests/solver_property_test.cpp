// Property tests: the branch-and-bound solver cross-checked against
// exhaustive enumeration on randomly generated small MILPs, and the
// simplex against feasibility oracles.  These are the strongest guards we
// have on the GUROBI stand-in's correctness.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "solver/lp.h"
#include "solver/milp.h"
#include "tensor/rng.h"

namespace sq::solver {
namespace {

/// A random small MILP over `n` binaries: assignment-style equalities over
/// variable groups plus random <= knapsack rows.  Returns problem + the
/// binaries.
struct RandomMilp {
  LpProblem p;
  std::vector<int> binaries;
  int n = 0;
};

/// `onehot_scale` multiplies each one-hot row (coefficients and rhs): at 1
/// the rows are unit-coefficient equalities and branch-and-bound splits
/// them as sets; at any other scale it branches on single variables.
RandomMilp make_random_milp(std::uint64_t seed, int n_groups, int n_choices,
                            double onehot_scale = 1.0) {
  sq::tensor::Rng rng(seed);
  RandomMilp m;
  m.n = n_groups * n_choices;
  std::vector<std::vector<int>> z(static_cast<std::size_t>(n_groups));
  for (int g = 0; g < n_groups; ++g) {
    for (int c = 0; c < n_choices; ++c) {
      const int v = m.p.add_variable(rng.uniform(0.1, 3.0));
      z[static_cast<std::size_t>(g)].push_back(v);
      m.binaries.push_back(v);
    }
  }
  // One-hot per group.
  for (int g = 0; g < n_groups; ++g) {
    Constraint c;
    c.sense = Sense::kEq;
    c.rhs = onehot_scale;
    for (const int v : z[static_cast<std::size_t>(g)]) {
      c.terms.push_back({v, onehot_scale});
    }
    m.p.add_constraint(std::move(c));
  }
  // Two random knapsack rows coupling the groups.
  for (int row = 0; row < 2; ++row) {
    Constraint c;
    c.sense = Sense::kLe;
    double total = 0.0;
    for (const int v : m.binaries) {
      const double w = rng.uniform(0.0, 2.0);
      c.terms.push_back({v, w});
      total += w;
    }
    // Capacity between "roughly half the groups can take their heaviest
    // choice" and "everything fits" so both feasible and binding cases
    // appear across seeds.
    c.rhs = rng.uniform(0.25, 0.9) * total / n_choices;
    m.p.add_constraint(std::move(c));
  }
  return m;
}

/// Exhaustive optimum over all one-hot assignments (n_choices^n_groups).
double brute_force(const RandomMilp& m, int n_groups, int n_choices) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> x(static_cast<std::size_t>(m.p.num_vars()), 0.0);
  std::vector<int> pick(static_cast<std::size_t>(n_groups), 0);
  while (true) {
    std::fill(x.begin(), x.end(), 0.0);
    for (int g = 0; g < n_groups; ++g) {
      x[static_cast<std::size_t>(g * n_choices + pick[static_cast<std::size_t>(g)])] =
          1.0;
    }
    if (m.p.max_violation(x) <= 1e-9) {
      best = std::min(best, m.p.objective_value(x));
    }
    int g = 0;
    while (g < n_groups) {
      if (++pick[static_cast<std::size_t>(g)] < n_choices) break;
      pick[static_cast<std::size_t>(g)] = 0;
      ++g;
    }
    if (g == n_groups) break;
  }
  return best;
}

class MilpVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

void expect_matches_brute_force(std::uint64_t seed, double onehot_scale) {
  const int n_groups = 6, n_choices = 3;  // 729 assignments
  const RandomMilp m = make_random_milp(seed, n_groups, n_choices, onehot_scale);
  const double truth = brute_force(m, n_groups, n_choices);

  MilpOptions opts;
  opts.time_limit_s = 30.0;
  const MilpResult r = BranchAndBound(opts).solve(m.p, m.binaries);
  if (std::isinf(truth)) {
    EXPECT_EQ(r.status, MilpStatus::kInfeasible) << "seed " << seed;
  } else {
    ASSERT_EQ(r.status, MilpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(r.objective, truth, 1e-6) << "seed " << seed;
    EXPECT_LE(m.p.max_violation(r.x), 1e-6);
  }
}

TEST_P(MilpVsBruteForce, MatchesExhaustiveOptimum) {
  expect_matches_brute_force(GetParam(), 1.0);
}

// One-hot rows scaled by 2 are not unit-coefficient equalities, so no set
// branching applies and the most-fractional variable rule does the work.
TEST_P(MilpVsBruteForce, MatchesExhaustiveOptimumWithScaledOneHotRows) {
  expect_matches_brute_force(GetParam(), 2.0);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MilpVsBruteForce,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u,
                                           89u, 144u, 233u));

class SimplexFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexFeasibility, OptimalPointsAreFeasibleAndNoWorseThanSamples) {
  // Random LPs: whenever the simplex reports optimal, the point must be
  // feasible, and no randomly sampled feasible point may beat it.
  sq::tensor::Rng rng(GetParam());
  LpProblem p;
  const int n = 5;
  for (int i = 0; i < n; ++i) p.add_variable(rng.uniform(-1.0, 1.0));
  for (int r = 0; r < 4; ++r) {
    Constraint c;
    c.sense = Sense::kLe;
    for (int i = 0; i < n; ++i) c.terms.push_back({i, rng.uniform(0.0, 1.0)});
    c.rhs = rng.uniform(1.0, 5.0);
    p.add_constraint(std::move(c));
  }
  // Box the variables so the LP is always bounded.
  for (int i = 0; i < n; ++i) {
    p.add_constraint({{{i, 1.0}}, Sense::kLe, 10.0, ""});
  }
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal) << "seed " << GetParam();
  EXPECT_LE(p.max_violation(s.x), 1e-7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.uniform(0.0, 10.0);
    if (p.max_violation(x) <= 1e-9) {
      EXPECT_GE(p.objective_value(x), s.objective - 1e-7) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexFeasibility,
                         ::testing::Values(7u, 11u, 19u, 23u, 31u, 41u, 53u, 61u));

}  // namespace
}  // namespace sq::solver
