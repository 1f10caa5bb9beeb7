// Algorithm OpTop (Corollary 2.2): the Fig. 4–6 walkthrough with its exact
// closed-form numbers, β-minimality, and behaviour across latency families.
#include "stackroute/core/optop.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/core/strategy.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

TEST(OpTop, PigouBetaIsOneHalf) {
  const OpTopResult r = op_top(pigou());
  EXPECT_NEAR(r.beta, 0.5, 1e-9);
  EXPECT_NEAR(r.strategy[1], 0.5, 1e-9);  // Fig. 2: Leader fills the slow link
  EXPECT_NEAR(r.strategy[0], 0.0, 1e-9);
  EXPECT_NEAR(r.induced[0], 0.5, 1e-9);   // Fig. 3: followers balance
  EXPECT_NEAR(r.induced_cost, 0.75, 1e-9);
}

TEST(OpTop, Fig4BetaAndStrategy) {
  const OpTopResult r = op_top(fig4_instance());
  const Fig4Expected e = fig4_expected();
  EXPECT_NEAR(r.beta, e.beta, 1e-8);  // 29/120
  // Strategy: optimally load the under-loaded links M4, M5 (Fig. 5-up).
  EXPECT_NEAR(r.strategy[3], e.optimum[3], 1e-8);
  EXPECT_NEAR(r.strategy[4], e.optimum[4], 1e-8);
  EXPECT_DOUBLE_EQ(r.strategy[0], 0.0);
  EXPECT_DOUBLE_EQ(r.strategy[1], 0.0);
  EXPECT_DOUBLE_EQ(r.strategy[2], 0.0);
}

TEST(OpTop, Fig4SingleRoundFreezesM4M5) {
  const OpTopResult r = op_top(fig4_instance());
  const Fig4Expected e = fig4_expected();
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].frozen, e.underloaded);
  EXPECT_NEAR(r.rounds[0].flow_before, 1.0, 1e-12);
  EXPECT_NEAR(r.rounds[0].nash_level, e.nash_level, 1e-9);
}

TEST(OpTop, Fig6InducedEqualsOptimum) {
  const OpTopResult r = op_top(fig4_instance());
  const std::vector<double> combined = add(r.strategy, r.induced);
  EXPECT_NEAR(max_abs_diff(combined, r.optimum), 0.0, 1e-8);
  EXPECT_NEAR(r.induced_cost, r.optimum_cost, 1e-9);
}

TEST(OpTop, InducedIsAnEquilibriumUnderThePreload) {
  const ParallelLinks m = fig4_instance();
  const OpTopResult r = op_top(m);
  // Cross-check with the generic induced-equilibrium solver.
  const LinkAssignment t = solve_induced(m, r.strategy);
  EXPECT_NEAR(max_abs_diff(t.flows, r.induced), 0.0, 1e-7);
  EXPECT_TRUE(satisfies_wardrop_induced(m, r.strategy, r.induced));
}

TEST(OpTop, BetaIsMinimal) {
  // Any budget below β cannot reach C(O): check that the best strategy the
  // brute-force oracle finds at α = β−δ stays strictly above C(O), while
  // OpTop's own strategy at α = β reaches it.
  const ParallelLinks m = pigou();
  const OpTopResult r = op_top(m);
  EXPECT_NEAR(r.induced_cost, r.optimum_cost, 1e-9);
  const double delta = 0.1;
  // Scaled-down OpTop strategy: still the best shape, but short of budget.
  std::vector<double> short_strategy = r.strategy;
  for (double& s : short_strategy) s *= (r.beta - delta) / r.beta;
  const StackelbergOutcome outcome = evaluate_strategy(m, short_strategy);
  EXPECT_GT(outcome.cost, r.optimum_cost + 1e-4);
}

TEST(OpTop, NashOptimalInstanceNeedsNoControl) {
  // Identical links: Nash == optimum, β = 0.
  const ParallelLinks m{{make_linear(1.0), make_linear(1.0)}, 1.0};
  const OpTopResult r = op_top(m);
  EXPECT_NEAR(r.beta, 0.0, 1e-12);
  EXPECT_TRUE(r.rounds.empty());
  EXPECT_NEAR(r.nash_cost, r.optimum_cost, 1e-12);
}

TEST(OpTop, NonlinearPigouBetaClosedForm) {
  // β = 1 − (d+1)^{−1/d}: the optimum keeps (d+1)^{-1/d} on the fast link.
  for (int d : {1, 2, 3, 5, 8}) {
    const OpTopResult r = op_top(pigou_nonlinear(d));
    const double expected = 1.0 - std::pow(d + 1.0, -1.0 / d);
    EXPECT_NEAR(r.beta, expected, 1e-8) << "degree " << d;
  }
}

TEST(OpTop, Mm1TwoGroupsSmallBetaForAppealingGroup) {
  // The remark after Corollary 2.2: a small group of highly appealing
  // links next to many identical slow links keeps β_M small.
  const ParallelLinks concentrated = mm1_two_groups(2, 10.0, 8, 1.0, 2.0);
  const ParallelLinks spread = mm1_two_groups(2, 2.0, 8, 1.0, 2.0);
  const double beta_concentrated = op_top(concentrated).beta;
  const double beta_spread = op_top(spread).beta;
  EXPECT_LT(beta_concentrated, beta_spread);
}

TEST(OpTop, InducedMatchesOptimumOnRandomFamilies) {
  Rng rng(120);
  for (int trial = 0; trial < 25; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 6, 2.0);
    const OpTopResult r = op_top(m);
    const std::vector<double> combined = add(r.strategy, r.induced);
    EXPECT_NEAR(max_abs_diff(combined, r.optimum), 0.0, 1e-6)
        << "trial " << trial;
    EXPECT_GE(r.beta, -1e-12);
    EXPECT_LE(r.beta, 1.0 + 1e-12);
    EXPECT_NEAR(r.induced_cost, r.optimum_cost,
                1e-6 * std::fmax(1.0, r.optimum_cost))
        << "trial " << trial;
  }
}

TEST(OpTop, PolynomialFamiliesToo) {
  Rng rng(121);
  for (int trial = 0; trial < 15; ++trial) {
    const ParallelLinks m = random_polynomial_links(rng, 5, 1.5);
    const OpTopResult r = op_top(m);
    const std::vector<double> combined = add(r.strategy, r.induced);
    EXPECT_NEAR(max_abs_diff(combined, r.optimum), 0.0, 1e-5)
        << "trial " << trial;
  }
}

TEST(OpTop, StrategyOnlyTouchesUnderloadedLinks) {
  Rng rng(122);
  for (int trial = 0; trial < 15; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 5, 1.0);
    const OpTopResult r = op_top(m);
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (r.strategy[i] > 0.0) {
        // Frozen links were under-loaded w.r.t. some round's Nash; at the
        // very least they must not exceed their optimum load.
        EXPECT_NEAR(r.strategy[i], r.optimum[i], 1e-9);
      }
    }
  }
}

TEST(OpTop, RoundsNeverExceedLinkCount) {
  Rng rng(123);
  for (int trial = 0; trial < 15; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 9, 2.0);
    const OpTopResult r = op_top(m);
    EXPECT_LE(r.rounds.size(), m.size());
  }
}

TEST(OpTop, MalformedInstanceThrows) {
  ParallelLinks empty;
  empty.demand = 1.0;
  EXPECT_THROW(op_top(empty), Error);
}


TEST(OpTop, WarmLevelsReproduceTheColdRun) {
  // A demand chain through the workspace overload: every warm point must
  // match the cold solve to solver tolerance, and the harvested levels
  // must be finite where solves ran.
  ParallelLinks m = mm1_two_groups(3, 4.0, 7, 8.0 / 7.0, 11.0);
  SolverWorkspace ws;
  OpTopWarmStart warm;  // NaN levels: the first point solves cold
  for (double demand : {11.0, 12.5, 14.0, 15.5, 17.0}) {
    m.demand = demand;
    const OpTopResult cold = op_top(m);
    const OpTopResult w = op_top(m, {}, ws, &warm);
    EXPECT_NEAR(w.beta, cold.beta, 1e-9) << "demand " << demand;
    EXPECT_NEAR(w.nash_cost, cold.nash_cost,
                1e-7 * std::fmax(1.0, cold.nash_cost));
    EXPECT_NEAR(w.optimum_cost, cold.optimum_cost,
                1e-7 * std::fmax(1.0, cold.optimum_cost));
    EXPECT_NEAR(w.induced_cost, cold.induced_cost,
                1e-7 * std::fmax(1.0, cold.induced_cost));
    EXPECT_EQ(w.rounds.size(), cold.rounds.size());
    EXPECT_TRUE(std::isfinite(warm.optimum_level));
    EXPECT_TRUE(std::isfinite(warm.nash_level));
  }
}

}  // namespace
}  // namespace stackroute
