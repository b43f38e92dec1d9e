// Property tests: the branch-and-bound solver cross-checked against
// exhaustive enumeration on randomly generated small MILPs, the simplex
// against feasibility oracles, and every warm re-solve against a cold one.
// These are the strongest guards we have on the GUROBI stand-in's
// correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/ilp.h"
#include "core_test_util.h"
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
/// `capacity_scale` multiplies the knapsack capacities.
RandomMilp make_random_milp(std::uint64_t seed, int n_groups, int n_choices,
                            double onehot_scale = 1.0, double capacity_scale = 1.0) {
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
    c.rhs = rng.uniform(0.25, 0.9) * total / n_choices * capacity_scale;
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

/// Tallies of one warm-vs-cold walk, so a test can show what it covered.
struct WalkStats {
  int optimal = 0;
  int infeasible = 0;
  int fixed_basic = 0;     ///< Fixings of a variable positive at the last optimum.
  int fixed_nonbasic = 0;  ///< Fixings of a variable at 0 there.
  int from_saved = 0;      ///< Warm solves that first pivoted to a saved basis.
};

/// Walks `steps` random fixing changes over `bins` from a cold root.  Each
/// step pins one to three binaries at 0 or 1 (some positive at the last
/// optimum, so typically basic, some at 0) or frees pinned ones, freeing
/// about half of all pins after an infeasible or unbounded answer, then
/// re-solves warm, every other time from a basis saved at an earlier
/// optimum, as branch-and-bound does from a node's parent.  Every warm
/// answer must match SimplexSolver's cold solve of the same fixings.
WalkStats expect_warm_matches_cold(const LpProblem& p, const std::vector<int>& bins,
                                   std::uint64_t seed, int steps) {
  sq::tensor::Rng rng(seed);
  const auto n = static_cast<std::size_t>(p.num_vars());
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(size) - 1e-9));
  };
  WalkStats stats;
  std::vector<std::int8_t> fix(n, kFree);
  WarmSimplex warm(p);
  LpSolution last = warm.solve_cold(fix);
  EXPECT_EQ(last.status, SimplexSolver().solve(p).status) << "seed " << seed;
  std::vector<std::vector<int>> saved;
  if (last.status == LpStatus::kOptimal) saved.push_back(warm.basis());

  for (int step = 0; step < steps; ++step) {
    if (last.status != LpStatus::kOptimal) {
      // Backtrack: free about half of the pins.
      for (auto& f : fix) {
        if (f != kFree && rng.uniform(0.0, 1.0) < 0.5) f = kFree;
      }
    }
    const int changes = 1 + static_cast<int>(pick(3));
    for (int k = 0; k < changes; ++k) {
      const auto v = static_cast<std::size_t>(bins[pick(bins.size())]);
      if (fix[v] != kFree && rng.uniform(0.0, 1.0) < 0.5) {
        fix[v] = kFree;
        continue;
      }
      const bool positive = last.status == LpStatus::kOptimal && last.x[v] > 1e-9;
      ++(positive ? stats.fixed_basic : stats.fixed_nonbasic);
      fix[v] = rng.uniform(0.0, 1.0) < 0.7 ? 0 : 1;
    }
    std::vector<int> start;
    if (!saved.empty() && step % 2 == 1) {
      start = saved[pick(saved.size())];
      ++stats.from_saved;
    }
    last = warm.solve_warm(fix, start);

    std::vector<std::uint8_t> mask(n, 0);
    std::vector<double> value(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      mask[v] = fix[v] != kFree;
      value[v] = mask[v] ? fix[v] : 0.0;
    }
    const LpSolution cold = SimplexSolver().solve(p, mask, value);
    EXPECT_EQ(last.status, cold.status) << "seed " << seed << " step " << step;
    if (last.status != cold.status) break;
    if (cold.status == LpStatus::kOptimal) {
      ++stats.optimal;
      EXPECT_NEAR(last.objective, cold.objective,
                  1e-9 * std::max(1.0, std::abs(cold.objective)))
          << "seed " << seed << " step " << step;
      EXPECT_LE(p.max_violation(last.x), 1e-9) << "seed " << seed << " step " << step;
      for (std::size_t v = 0; v < n; ++v) {
        if (fix[v] != kFree) {
          EXPECT_EQ(last.x[v], fix[v]);
        }
      }
      saved.push_back(warm.basis());
    } else if (cold.status == LpStatus::kInfeasible) {
      ++stats.infeasible;
    }
  }
  return stats;
}

void expect_covered(const WalkStats& s) {
  EXPECT_GT(s.optimal, 0);
  EXPECT_GT(s.infeasible, 0);
  EXPECT_GT(s.fixed_basic, 0);
  EXPECT_GT(s.fixed_nonbasic, 0);
  EXPECT_GT(s.from_saved, 0);
}

/// A random bounded LP over binaries with every row shape the cold path
/// normalizes: `<=` boxes, `>=` covers, an equality, a `<=` row with a
/// negative rhs, and straggler-style rows t >= a.x on a continuous t.
RandomMilp make_mixed_lp(std::uint64_t seed, int n) {
  sq::tensor::Rng rng(seed);
  RandomMilp m;
  m.n = n;
  for (int i = 0; i < n; ++i) {
    m.binaries.push_back(m.p.add_variable(rng.uniform(-1.0, 2.0)));
  }
  const int t = m.p.add_variable(rng.uniform(0.5, 1.5), "t");
  for (const int v : m.binaries) m.p.add_constraint({{{v, 1.0}}, Sense::kLe, 1.0, ""});
  for (int row = 0; row < 2; ++row) {
    Constraint c;
    c.sense = Sense::kGe;
    for (const int v : m.binaries) c.terms.push_back({v, rng.uniform(0.0, 1.0)});
    c.rhs = rng.uniform(0.5, 1.5);
    m.p.add_constraint(std::move(c));
  }
  m.p.add_constraint({{{0, 1.0}, {1, 1.0}, {2, 1.0}}, Sense::kEq, 1.0, ""});
  m.p.add_constraint({{{3, -1.0}, {4, -1.0}}, Sense::kLe, -0.5, ""});
  for (int row = 0; row < 2; ++row) {
    Constraint c;
    c.sense = Sense::kGe;
    c.terms.push_back({t, 1.0});
    for (const int v : m.binaries) c.terms.push_back({v, -rng.uniform(0.0, 2.0)});
    c.rhs = rng.uniform(-0.5, 0.5);
    m.p.add_constraint(std::move(c));
  }
  return m;
}

class WarmVsCold : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WarmVsCold, OneHotKnapsackLps) {
  // Capacities doubled: most roots are feasible, and the rows still bind.
  const RandomMilp m = make_random_milp(GetParam(), 6, 3, 1.0, 2.0);
  expect_covered(expect_warm_matches_cold(m.p, m.binaries, GetParam(), 60));
}

TEST_P(WarmVsCold, MixedSenseLps) {
  const RandomMilp m = make_mixed_lp(GetParam(), 8);
  expect_covered(expect_warm_matches_cold(m.p, m.binaries, GetParam(), 60));
}

INSTANTIATE_TEST_SUITE_P(RandomLps, WarmVsCold,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

/// The assigner's own LPs (Eq. 4-16) on paper clusters, through the same
/// walk: one-hot, straggler, memory, anchor and prefix-contiguity rows.
TEST(WarmVsColdAssigner, PaperClusterIlps) {
  using sq::core::testutil::Harness;
  struct Cell {
    sq::model::ModelId model;
    int cluster;
    std::uint64_t eta, xi;
    int group_size;
  };
  const Cell cells[] = {{sq::model::ModelId::kOpt13B, 9, 4, 8, 8},
                        {sq::model::ModelId::kOpt30B, 5, 2, 8, 8},
                        {sq::model::ModelId::kQwen25_14B, 3, 4, 8, 8}};
  WalkStats total;
  std::uint64_t seed = 1;
  for (const Cell& c : cells) {
    const Harness h(c.model, c.cluster, {8, 512, 32, 2048});
    const sq::core::IlpModel ilp =
        sq::core::build_ilp(h.context(c.eta, c.xi, c.group_size));
    for (int walk = 0; walk < 3; ++walk) {
      const WalkStats s = expect_warm_matches_cold(ilp.problem, ilp.binaries, seed++, 40);
      total.optimal += s.optimal;
      total.infeasible += s.infeasible;
      total.fixed_basic += s.fixed_basic;
      total.fixed_nonbasic += s.fixed_nonbasic;
      total.from_saved += s.from_saved;
    }
  }
  expect_covered(total);
}

}  // namespace
}  // namespace sq::solver
