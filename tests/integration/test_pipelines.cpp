// End-to-end pipelines across modules: generate → (de)serialize → solve →
// build a Stackelberg strategy → route the followers → verify the paper's
// guarantees, plus cross-algorithm agreement (OpTop vs MOP vs Theorem 2.4
// vs brute force).
#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/core/hard_instances.h"
#include "stackroute/core/mop.h"
#include "stackroute/core/optop.h"
#include "stackroute/core/strategy.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/io/serialize.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

TEST(Pipeline, SerializeSolveStrategizeVerify) {
  // Fig 4 through the whole stack, with a serialization round-trip in the
  // middle to prove strategies survive on reloaded instances.
  const ParallelLinks original = fig4_instance();
  const ParallelLinks m = parallel_links_from_string(to_string(original));
  const OpTopResult r = op_top(m);
  EXPECT_NEAR(r.beta, fig4_expected().beta, 1e-8);
  const StackelbergOutcome out = evaluate_strategy(m, r.strategy);
  EXPECT_NEAR(out.cost, r.optimum_cost, 1e-8);
  EXPECT_NEAR(out.ratio, 1.0, 1e-8);
}

TEST(Pipeline, Corollary22AnyAlphaAboveBetaEnforcesOptimum) {
  // For α >= β_M, pad OpTop's strategy with a slice of the followers'
  // optimal flow: the combined flow stays O, so C(S+T) = C(O) for every
  // padding λ ∈ [0, 1] — precisely instance family (M, r, α >= β_M) ∈ P.
  const ParallelLinks m = fig4_instance();
  const OpTopResult r = op_top(m);
  for (double lambda : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    std::vector<double> padded = r.strategy;
    for (std::size_t i = 0; i < m.size(); ++i) {
      padded[i] += lambda * r.induced[i];
    }
    const double alpha = sum(padded) / m.demand;
    EXPECT_GE(alpha, r.beta - 1e-9);
    const StackelbergOutcome out = evaluate_strategy(m, padded);
    EXPECT_NEAR(out.ratio, 1.0, 1e-7) << "lambda " << lambda;
  }
}

TEST(Pipeline, OpTopMopThm24AgreeAtBeta) {
  // Common-slope instance: three independent roads to the same optimum.
  Rng rng(170);
  const ParallelLinks m = random_common_slope_links(rng, 4, 2.0, 1.1);
  const OpTopResult optop = op_top(m);
  const MopResult net = mop(to_network(m));
  EXPECT_NEAR(optop.beta, net.beta, 1e-5);
  const Thm24Result exact = optimal_strategy_common_slope(m, optop.beta);
  EXPECT_NEAR(exact.cost, optop.optimum_cost,
              1e-6 * std::fmax(1.0, optop.optimum_cost));
}

TEST(Pipeline, BetaMinimalityAgainstBruteForce) {
  // Below β no strategy (that the oracle can find) reaches the optimum.
  Rng rng(171);
  int checked = 0;
  for (int trial = 0; trial < 12 && checked < 4; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 3, 1.5);
    const OpTopResult r = op_top(m);
    if (r.beta < 0.15) continue;  // need real headroom below β
    ++checked;
    const double alpha = 0.7 * r.beta;
    const StackelbergOutcome best = brute_force_strategy(m, alpha);
    EXPECT_GT(best.cost, r.optimum_cost * (1.0 + 1e-7))
        << "trial " << trial << ": optimum reachable below beta?";
  }
  EXPECT_GE(checked, 1) << "no instances with sizable beta drawn";
}

TEST(Pipeline, MopStrategyVerifiedByIndependentSolver) {
  // Run MOP, then hand its strategy to the generic induced-equilibrium
  // machinery (not MOP's internal verification, and on the other backend:
  // the path solver, whose paths the Wardrop checker reads) and check
  // Wardrop + cost.
  const NetworkInstance inst = fig7_instance(0.05);
  const MopResult r = mop(inst);
  NetworkInstance followers = inst;
  followers.commodities[0].demand = r.free_flow_total;
  EquilibriumRequest pe;
  pe.backend = EquilibriumBackend::kPathEqualization;
  const NetworkAssignment induced =
      solve_induced(followers, r.leader_edge_flow, pe);
  EXPECT_TRUE(satisfies_wardrop(followers, induced.commodity_paths,
                                r.leader_edge_flow, 1e-5));
  EXPECT_NEAR(induced.cost, r.optimum_cost, 1e-5);
}

TEST(Pipeline, GridCityFullStory) {
  Rng rng(172);
  const NetworkInstance inst = grid_city(rng, 4, 4, 2.5);
  const NetworkAssignment nash = solve_nash(inst);
  const NetworkAssignment opt = solve_optimum(inst);
  ASSERT_GT(opt.cost, 0.0);
  const double poa = nash.cost / opt.cost;
  EXPECT_GE(poa, 1.0 - 1e-9);
  const MopResult r = mop(inst);
  EXPECT_GE(r.beta, -1e-9);
  EXPECT_LE(r.beta, 1.0 + 1e-9);
  EXPECT_NEAR(r.induced_cost, opt.cost, 1e-4 * std::fmax(1.0, opt.cost));
  // The Leader pays β of the demand to erase a PoA of `poa`.
  if (poa < 1.0 + 1e-9) {
    EXPECT_LT(r.beta, 1e-6);  // nothing to fix -> nothing to control
  }
}

TEST(Pipeline, KCommodityStrongStrategyAccounting) {
  // §5: a strong strategy may control different fractions per commodity;
  // the aggregate β must still match the per-commodity ledger.
  Rng rng(173);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 5, 4, 0.2, 0.9);
  const MopResult r = mop(inst);
  double controlled = 0.0;
  for (const auto& c : r.commodities) controlled += c.controlled_flow;
  EXPECT_NEAR(r.beta, controlled / inst.total_demand(), 1e-9);
  // Each commodity's leader paths decompose its controlled flow.
  for (const auto& c : r.commodities) {
    double leader_paths_total = 0.0;
    for (const auto& pf : c.leader_paths) leader_paths_total += pf.flow;
    EXPECT_NEAR(leader_paths_total, c.controlled_flow, 1e-6);
  }
}

TEST(Pipeline, LlfVersusOpTopBudgets) {
  // LLF needs *at least* β to reach the optimum; OpTop reaches it with
  // exactly β. On Fig 4 both coincide at α = β.
  const ParallelLinks m = fig4_instance();
  const OpTopResult r = op_top(m);
  const StackelbergOutcome llf_at_beta =
      evaluate_strategy(m, llf_strategy(m, r.beta));
  EXPECT_NEAR(llf_at_beta.ratio, 1.0, 1e-6);
  const StackelbergOutcome llf_below =
      evaluate_strategy(m, llf_strategy(m, 0.8 * r.beta));
  EXPECT_GT(llf_below.ratio, 1.0 + 1e-8);
}

TEST(Pipeline, PigouStackelbergParlance) {
  // The complete Fig. 1–3 narrative in one test.
  const ParallelLinks m = pigou();
  EXPECT_NEAR(price_of_anarchy(m), 4.0 / 3.0, 1e-9);   // Fig 1: worst case
  const OpTopResult r = op_top(m);
  EXPECT_NEAR(r.beta, 0.5, 1e-9);                       // Fig 2: β = 1/2
  EXPECT_NEAR(r.strategy[1], 0.5, 1e-9);                // S = <0, 1/2>
  EXPECT_NEAR(r.induced[0], 0.5, 1e-9);                 // Fig 3: T = <1/2, 0>
  EXPECT_NEAR(r.induced_cost / r.optimum_cost, 1.0, 1e-9);  // ρ = 1
}

}  // namespace
}  // namespace stackroute
