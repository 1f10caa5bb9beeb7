// Baseline strategies (Aloof, SCALE, LLF) and the classical performance
// guarantees the paper quotes: ρ <= 1/α for LLF on arbitrary latencies and
// ρ <= 4/(3+α) for linear latencies ([41] Thms 6.4.4 / 6.4.5).
#include "stackroute/core/strategy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "stackroute/core/mop.h"
#include "stackroute/core/optop.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

TEST(Strategy, AloofInducesPlainNash) {
  const ParallelLinks m = fig4_instance();
  const StackelbergOutcome out = evaluate_strategy(m, aloof_strategy(m));
  EXPECT_NEAR(out.cost, fig4_expected().nash_cost, 1e-8);
}

TEST(Strategy, ScaleUsesExactlyAlphaOfTheOptimum) {
  const ParallelLinks m = fig4_instance();
  const std::vector<double> s = scale_strategy(m, 0.3);
  EXPECT_NEAR(sum(s), 0.3, 1e-9);
  const Fig4Expected e = fig4_expected();
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(s[i], 0.3 * e.optimum[i], 1e-8);
  }
}

TEST(Strategy, LlfBudgetIsRespected) {
  Rng rng(150);
  for (int trial = 0; trial < 10; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 6, 2.0);
    for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const std::vector<double> s = llf_strategy(m, alpha);
      EXPECT_NEAR(sum(s), alpha * m.demand, 1e-9);
      // LLF never over-fills a link beyond its optimum load.
      const LinkAssignment opt = solve_optimum(m);
      for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_LE(s[i], opt.flows[i] + 1e-9);
      }
    }
  }
}

TEST(Strategy, LlfFillsLargestLatencyFirst) {
  // Pigou: optimum latencies are ℓ1(1/2) = 1/2 < ℓ2 = 1, so LLF fills the
  // constant link first — recovering the Fig. 2 strategy at α = 1/2.
  const ParallelLinks m = pigou();
  const std::vector<double> s = llf_strategy(m, 0.5);
  EXPECT_NEAR(s[1], 0.5, 1e-9);
  EXPECT_NEAR(s[0], 0.0, 1e-9);
  const StackelbergOutcome out = evaluate_strategy(m, s);
  EXPECT_NEAR(out.ratio, 1.0, 1e-7);
}

TEST(Strategy, LlfAtFullControlIsOptimal) {
  Rng rng(151);
  for (int trial = 0; trial < 10; ++trial) {
    const ParallelLinks m = random_polynomial_links(rng, 5, 1.5);
    const StackelbergOutcome out = evaluate_strategy(m, llf_strategy(m, 1.0));
    EXPECT_NEAR(out.ratio, 1.0, 1e-6) << "trial " << trial;
  }
}

TEST(Strategy, LlfOneOverAlphaGuarantee) {
  // [41, Thm 6.4.4]: C(S+T) <= (1/α)·C(O) on parallel links.
  Rng rng(152);
  for (int trial = 0; trial < 15; ++trial) {
    const ParallelLinks m = random_polynomial_links(rng, 6, 2.0);
    for (double alpha : {0.2, 0.4, 0.6, 0.8}) {
      const StackelbergOutcome out =
          evaluate_strategy(m, llf_strategy(m, alpha));
      EXPECT_LE(out.ratio, 1.0 / alpha + 1e-6)
          << "trial " << trial << " alpha " << alpha;
    }
  }
}

TEST(Strategy, LlfLinearLatencyGuarantee) {
  // [41, Thm 6.4.5]: ρ <= 4/(3+α) for linear latencies.
  Rng rng(153);
  for (int trial = 0; trial < 15; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 6, 2.0);
    for (double alpha : {0.2, 0.4, 0.6, 0.8}) {
      const StackelbergOutcome out =
          evaluate_strategy(m, llf_strategy(m, alpha));
      EXPECT_LE(out.ratio, 4.0 / (3.0 + alpha) + 1e-6)
          << "trial " << trial << " alpha " << alpha;
    }
  }
}

TEST(Strategy, LlfReachesOptimumAtBeta) {
  // At α = β_M, LLF freezes exactly the under-loaded links (they have the
  // highest optimum latencies? not in general — but its guarantee at β is
  // still cost C(O) on instances where OpTop's frozen set is LLF's prefix).
  // Use Fig 4, where the under-loaded links M4, M5 have the *largest*
  // optimum latencies — check this precondition first.
  const ParallelLinks m = fig4_instance();
  const Fig4Expected e = fig4_expected();
  const double l4 = m.links[3]->value(e.optimum[3]);
  const double l5 = m.links[4]->value(e.optimum[4]);
  const double l1 = m.links[0]->value(e.optimum[0]);
  ASSERT_GT(l4, l1);
  ASSERT_GT(l5, l1);
  const StackelbergOutcome out =
      evaluate_strategy(m, llf_strategy(m, e.beta));
  EXPECT_NEAR(out.ratio, 1.0, 1e-6);
}

TEST(Strategy, EvaluateStrategyRatioOfOneMeansOptimum) {
  const ParallelLinks m = fig4_instance();
  const OpTopResult r = op_top(m);
  const StackelbergOutcome out = evaluate_strategy(m, r.strategy);
  EXPECT_NEAR(out.ratio, 1.0, 1e-8);
  EXPECT_NEAR(out.cost, r.optimum_cost, 1e-8);
}

TEST(Strategy, MoreControlNeverHurtsLlf) {
  Rng rng(154);
  const ParallelLinks m = random_affine_links(rng, 6, 2.0);
  double prev = kInf;
  for (double alpha : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    const StackelbergOutcome out =
        evaluate_strategy(m, llf_strategy(m, alpha));
    EXPECT_LE(out.cost, prev + 1e-7) << "alpha " << alpha;
    prev = out.cost;
  }
}

TEST(Strategy, BadArgumentsThrow) {
  const ParallelLinks m = pigou();
  EXPECT_THROW(llf_strategy(m, -0.1), Error);
  EXPECT_THROW(llf_strategy(m, 1.1), Error);
  EXPECT_THROW(scale_strategy(m, 2.0), Error);
  const std::vector<double> wrong_size = {0.1};
  EXPECT_THROW(evaluate_strategy(m, wrong_size), Error);
}

// ---- LLF budget invariant (Σ s = min(α·r, r) to 1 ulp) -------------------

TEST(Strategy, LlfBudgetExactAtFullControl) {
  // α = 1: the budget is r itself. Σ o_i can differ from r by accumulated
  // solver rounding; the last-filled link absorbs the gap, so Σ s_i == r
  // to 1 ulp — not Σ o_i, and not r minus a leaked remainder.
  Rng rng(155);
  for (int trial = 0; trial < 10; ++trial) {
    const ParallelLinks m = random_polynomial_links(rng, 7, 2.0);
    const std::vector<double> s = llf_strategy(m, 1.0);
    EXPECT_LE(std::fabs(sum(s) - m.demand), 4e-16 * m.demand) << trial;
  }
}

TEST(Strategy, LlfBudgetExactUnderLatencyTies) {
  // Identical links tie in optimum latency; the stable order must still
  // spend exactly min(α·r, r).
  ParallelLinks m;
  for (int i = 0; i < 8; ++i) m.links.push_back(make_affine(1.0, 0.5));
  m.demand = 3.0;
  for (double alpha : {0.3, 0.5, 1.0}) {
    const std::vector<double> s = llf_strategy(m, alpha);
    const double target = std::fmin(alpha * m.demand, m.demand);
    EXPECT_LE(std::fabs(sum(s) - target), 4e-16 * m.demand) << alpha;
  }
}

TEST(Strategy, LlfBudgetExactOverManyLinks) {
  // Regression: a running `budget -= take` leaks one rounding error per
  // link; across hundreds of links the final fractional link was off by
  // far more than an ulp (and a tiny negative remainder truncated it).
  Rng rng(156);
  const ParallelLinks m = random_affine_links(rng, 400, 50.0);
  for (double alpha : {0.37, 0.73, 0.999, 1.0}) {
    const std::vector<double> s = llf_strategy(m, alpha);
    const double target = std::fmin(alpha * m.demand, m.demand);
    EXPECT_LE(std::fabs(sum(s) - target), 4e-16 * m.demand) << alpha;
  }
}

// ---- General networks ----------------------------------------------------

/// An optimum plus the payload its solve published — the per-origin flows
/// the precomputed-optimum LLF overload reads.
struct OptimumWithState {
  NetworkAssignment a;
  EquilibriumWarmState state;
};

OptimumWithState optimum_with_state(const NetworkInstance& net) {
  OptimumWithState out;
  SolverWorkspace ws;
  out.a = solve_optimum(net, {}, ws, &out.state);
  return out;
}

TEST(NetworkStrategy, AloofInducesPlainNash) {
  const NetworkInstance net = braess_classic();  // C(N) = 2, C(O) = 3/2
  const NetworkStackelbergOutcome out =
      evaluate_strategy(net, aloof_strategy(net));
  EXPECT_NEAR(out.cost, 2.0, 1e-7);
  EXPECT_NEAR(out.ratio, 4.0 / 3.0, 1e-6);
}

TEST(NetworkStrategy, ScaleUsesExactlyAlphaOfTheOptimum) {
  const NetworkInstance net = braess_classic();
  const NetworkAssignment opt = solve_optimum(net);
  const NetworkStrategy s = scale_strategy(net, 0.4, opt);
  ASSERT_EQ(s.preload.size(), opt.edge_flow.size());
  for (std::size_t e = 0; e < s.preload.size(); ++e) {
    EXPECT_NEAR(s.preload[e], 0.4 * opt.edge_flow[e], 1e-12);
  }
  ASSERT_EQ(s.controlled.size(), 1u);
  EXPECT_NEAR(s.controlled[0], 0.4, 1e-12);
}

TEST(NetworkStrategy, LlfBudgetInvariantOnNetworks) {
  // Per commodity: Σ path takes == min(α·r_i, r_i) to 1 ulp, visible as
  // preload whose source divergence equals the controlled demand.
  Rng rng(41);
  const NetworkInstance net = grid_city(rng, 3, 3, 2.0);
  const OptimumWithState opt = optimum_with_state(net);
  for (double alpha : {0.25, 0.5, 0.999, 1.0}) {
    const NetworkStrategy s = llf_strategy(net, alpha, opt.a, opt.state);
    ASSERT_EQ(s.controlled.size(), 1u);
    EXPECT_DOUBLE_EQ(s.controlled[0],
                     std::fmin(alpha * net.commodities[0].demand,
                               net.commodities[0].demand));
    // Net outflow at the source == the demand the Leader serves.
    double out_flow = 0.0;
    for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
      if (net.graph.edge(e).tail == net.commodities[0].source) {
        out_flow += s.preload[static_cast<std::size_t>(e)];
      }
      if (net.graph.edge(e).head == net.commodities[0].source) {
        out_flow -= s.preload[static_cast<std::size_t>(e)];
      }
    }
    EXPECT_NEAR(out_flow, s.controlled[0], 1e-9) << alpha;
  }
}

TEST(NetworkStrategy, FullControlReproducesTheOptimum) {
  // α = 1 for both baselines: the Leader routes everything, followers
  // route nothing, C(S+T) = C(O).
  Rng rng(42);
  const NetworkInstance net = grid_city(rng, 3, 3, 1.5);
  const OptimumWithState opt = optimum_with_state(net);
  for (const bool use_llf : {false, true}) {
    const NetworkStrategy s = use_llf ? llf_strategy(net, 1.0, opt.a, opt.state)
                                      : scale_strategy(net, 1.0, opt.a);
    const NetworkStackelbergOutcome out = evaluate_strategy(net, s);
    EXPECT_NEAR(out.ratio, 1.0, 1e-6) << use_llf;
    for (double t : out.induced) EXPECT_DOUBLE_EQ(t, 0.0);
  }
}

TEST(NetworkStrategy, PrecomputedOptimumOverloadAgrees) {
  Rng rng(43);
  const NetworkInstance net = random_layered_dag(rng, 2, 3, 0.6, 1.0);
  const NetworkAssignment opt = solve_optimum(net);
  SolverWorkspace ws;
  for (double alpha : {0.3, 0.7}) {
    const NetworkStrategy s = scale_strategy(net, alpha, opt);
    const NetworkStackelbergOutcome convenient = evaluate_strategy(net, s);
    const NetworkStackelbergOutcome precomputed =
        evaluate_strategy(net, s, opt.cost, {}, ws, nullptr);
    EXPECT_NEAR(convenient.cost, precomputed.cost,
                1e-9 * std::fmax(1.0, convenient.cost));
    EXPECT_NEAR(convenient.ratio, precomputed.ratio, 1e-9);
  }
}

TEST(NetworkStrategy, WarmStartedChainAgreesWithCold) {
  // The α-sweep pattern: each evaluation seeds from the previous α's
  // converged follower decomposition; answers must match the cold ones at
  // solver tolerance.
  Rng rng(44);
  const NetworkInstance net = grid_city(rng, 3, 3, 2.0);
  const OptimumWithState opt = optimum_with_state(net);
  SolverWorkspace ws;
  EquilibriumWarmState warm;
  for (int k = 1; k <= 9; ++k) {
    const double alpha = 0.1 * k;
    const NetworkStrategy s = llf_strategy(net, alpha, opt.a, opt.state);
    const NetworkStackelbergOutcome chained =
        evaluate_strategy(net, s, opt.a.cost, {}, ws, &warm);
    const NetworkStackelbergOutcome cold = evaluate_strategy(net, s);
    EXPECT_NEAR(chained.cost, cold.cost, 1e-6 * std::fmax(1.0, cold.cost))
        << alpha;
  }
}

TEST(NetworkStrategy, DegenerateOptimumIsAPreconditionError) {
  // A zero-latency network has C(O) = 0: the ratio is undefined, and the
  // caller must get a readable precondition error, not an internal
  // invariant failure.
  NetworkInstance net;
  net.graph = Graph(2);
  net.graph.add_edge(0, 1, make_constant(0.0));
  net.commodities.push_back({0, 1, 1.0});
  try {
    (void)evaluate_strategy(net, aloof_strategy(net));
    FAIL() << "expected stackroute::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("optimum cost C(O) is zero"),
              std::string::npos)
        << e.what();
  }

  ParallelLinks m;
  m.links = {make_constant(0.0)};
  m.demand = 1.0;
  try {
    (void)evaluate_strategy(m, aloof_strategy(m));
    FAIL() << "expected stackroute::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("optimum cost C(O) is zero"),
              std::string::npos)
        << e.what();
  }
}

TEST(NetworkStrategy, ScaleAndLlfNeverBeatMop) {
  // MOP's C(S+T) = C(O) is a floor for any strategy: on general nets the
  // baselines can only match it, never beat it.
  const NetworkInstance net = fig7_instance(0.05);
  const MopResult mr = mop(net);
  EXPECT_NEAR(mr.induced_cost, mr.optimum_cost, 1e-7 * mr.optimum_cost);
  const OptimumWithState opt = optimum_with_state(net);
  SolverWorkspace ws;
  for (double alpha : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    for (const bool use_llf : {false, true}) {
      const NetworkStrategy s =
          use_llf ? llf_strategy(net, alpha, opt.a, opt.state)
                  : scale_strategy(net, alpha, opt.a);
      const NetworkStackelbergOutcome out =
          evaluate_strategy(net, s, opt.a.cost, {}, ws, nullptr);
      EXPECT_GE(out.cost, mr.induced_cost * (1.0 - 1e-7))
          << "alpha " << alpha << " llf " << use_llf;
    }
  }
}

TEST(NetworkStrategy, ScaleAtModerateAlphaCanBeWorseThanAloof) {
  // The Braess-type anomaly on general networks: preloading α·O can push
  // the followers into a strictly worse equilibrium than leaving them
  // alone. (Found by sweeping the BPR street-grid family; this seed shows
  // SCALE at α = 0.65 ~0.6% above the plain Nash.)
  Rng rng(6);
  const NetworkInstance net = grid_city(rng, 3, 3, 2.0);
  const NetworkAssignment nash = solve_nash(net);
  const NetworkAssignment opt = solve_optimum(net);
  ASSERT_GT(nash.cost, opt.cost * 1.001);  // the anomaly needs PoA > 1
  SolverWorkspace ws;
  const NetworkStrategy s = scale_strategy(net, 0.65, opt);
  const NetworkStackelbergOutcome out =
      evaluate_strategy(net, s, opt.cost, {}, ws, nullptr);
  EXPECT_GT(out.cost, nash.cost * 1.001);
}

TEST(NetworkStrategy, NoTestedAlphaBelowOneMatchesMopOnThisInstance) {
  // The paper's headline gap: an instance where MOP induces the exact
  // optimum at β < 1 while neither SCALE nor LLF reaches C(O) at any
  // tested α < 1. (Found by sweeping the BPR street-grid family.)
  Rng rng(37);
  const NetworkInstance net = grid_city(rng, 3, 3, 2.0);
  const MopResult mr = mop(net);
  EXPECT_LT(mr.beta, 0.95);
  EXPECT_NEAR(mr.induced_cost, mr.optimum_cost, 1e-6 * mr.optimum_cost);
  const OptimumWithState opt = optimum_with_state(net);
  SolverWorkspace ws;
  for (int k = 1; k <= 18; ++k) {
    const double alpha = 0.05 * k;  // 0.05 .. 0.90
    for (const bool use_llf : {false, true}) {
      const NetworkStrategy s =
          use_llf ? llf_strategy(net, alpha, opt.a, opt.state)
                  : scale_strategy(net, alpha, opt.a);
      const NetworkStackelbergOutcome out =
          evaluate_strategy(net, s, opt.a.cost, {}, ws, nullptr);
      EXPECT_GT(out.ratio, 1.0 + 1e-3)
          << "alpha " << alpha << " llf " << use_llf;
    }
  }
}

TEST(NetworkStrategy, ParallelLinksViewedAsNetworkMatchesLinkLlf) {
  // The two LLF implementations must agree where both apply: on a
  // parallel-links system viewed as a two-node network, the optimum's
  // path decomposition is one path per link, so the fills coincide.
  Rng rng(45);
  const ParallelLinks m = random_affine_links(rng, 5, 2.0);
  const NetworkInstance net = to_network(m);
  const OptimumWithState net_opt = optimum_with_state(net);
  for (double alpha : {0.3, 0.7, 1.0}) {
    const std::vector<double> s_links =
        llf_strategy(m, alpha, net_opt.a.edge_flow);
    const NetworkStrategy s_net =
        llf_strategy(net, alpha, net_opt.a, net_opt.state);
    ASSERT_EQ(s_net.preload.size(), s_links.size());
    for (std::size_t i = 0; i < s_links.size(); ++i) {
      EXPECT_NEAR(s_net.preload[i], s_links[i], 1e-9) << alpha << " " << i;
    }
  }
}

TEST(NetworkStrategy, BadArgumentsThrow) {
  const NetworkInstance net = braess_classic();
  EXPECT_THROW(scale_strategy(net, -0.1), Error);
  EXPECT_THROW(llf_strategy(net, 1.5), Error);
  NetworkStrategy wrong = aloof_strategy(net);
  wrong.preload.pop_back();
  EXPECT_THROW(evaluate_strategy(net, wrong), Error);
  NetworkStrategy too_much = aloof_strategy(net);
  too_much.controlled[0] = net.commodities[0].demand * 2.0;
  EXPECT_THROW(evaluate_strategy(net, too_much), Error);
}

}  // namespace
}  // namespace stackroute
