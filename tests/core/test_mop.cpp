// Algorithm MOP (Corollary 2.3 / §5): the Fig. 7 ε-family with its caption
// values, classic Braess, consistency with OpTop on two-node networks, and
// the k-commodity extension.
#include "stackroute/core/mop.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/core/optop.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

TEST(Mop, Fig7BetaMatchesCaption) {
  for (double eps : {0.0, 0.02, 0.05, 0.1}) {
    const MopResult r = mop(fig7_instance(eps));
    const Fig7Expected e = fig7_expected(eps);
    EXPECT_NEAR(r.beta, e.beta, 1e-5) << "eps=" << eps;  // 1/2 + 2ε
    EXPECT_NEAR(r.free_flow_total, e.free_flow, 1e-5);
  }
}

TEST(Mop, Fig7OptimumEdgeFlows) {
  const double eps = 0.05;
  const MopResult r = mop(fig7_instance(eps));
  const Fig7Expected e = fig7_expected(eps);
  for (std::size_t edge = 0; edge < 5; ++edge) {
    EXPECT_NEAR(r.optimum_edge_flow[edge], e.optimum_edges[edge], 1e-6)
        << "edge " << edge;
  }
}

TEST(Mop, Fig7ShortestPathIsTheZigzag) {
  const double eps = 0.05;
  const MopResult r = mop(fig7_instance(eps));
  const Fig7Expected e = fig7_expected(eps);
  ASSERT_EQ(r.commodities.size(), 1u);
  const MopCommodity& c = r.commodities[0];
  EXPECT_NEAR(c.shortest_cost, e.shortest_path_cost, 1e-6);  // 2 − 4ε
  // Tight subgraph = exactly the zigzag edges (s,v), (v,w), (w,t).
  EXPECT_TRUE(c.tight_edges[0]);
  EXPECT_FALSE(c.tight_edges[1]);
  EXPECT_TRUE(c.tight_edges[2]);
  EXPECT_FALSE(c.tight_edges[3]);
  EXPECT_TRUE(c.tight_edges[4]);
}

TEST(Mop, Fig7LeaderControlsTheTwoOuterPaths) {
  const double eps = 0.05;
  const MopResult r = mop(fig7_instance(eps));
  const MopCommodity& c = r.commodities[0];
  // Two non-shortest paths, each carrying 1/4 + ε (Fig. 7(c)).
  ASSERT_EQ(c.leader_paths.size(), 2u);
  for (const auto& pf : c.leader_paths) {
    EXPECT_NEAR(pf.flow, 0.25 + eps, 1e-5);
  }
}

TEST(Mop, Fig7InducedEqualsOptimum) {
  // The figure's point: MOP achieves guarantee exactly 1 on the graph that
  // defeats every fixed-α strategy.
  const double eps = 0.05;
  const MopResult r = mop(fig7_instance(eps));
  EXPECT_LT(r.induced_residual, 1e-5);
  EXPECT_NEAR(r.induced_cost, r.optimum_cost, 1e-5);
}

TEST(Mop, BraessClassicNeedsFullControl) {
  // At optimum the zigzag is the unique shortest path but carries zero
  // optimum flow: any free follower would take it, so β = 1.
  const MopResult r = mop(braess_classic());
  EXPECT_NEAR(r.beta, 1.0, 1e-6);
  EXPECT_NEAR(r.free_flow_total, 0.0, 1e-6);
  EXPECT_LT(r.induced_residual, 1e-6);
}

TEST(Mop, BraessWithoutShortcutNeedsNoControl) {
  // Without the paradox edge, Nash == optimum: β = 0.
  const MopResult r = mop(braess_without_shortcut());
  EXPECT_NEAR(r.beta, 0.0, 1e-6);
  EXPECT_LT(r.induced_residual, 1e-6);
}

TEST(Mop, AgreesWithOpTopOnParallelLinks) {
  Rng rng(130);
  for (int trial = 0; trial < 10; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 5, 2.0);
    const double beta_optop = op_top(m).beta;
    const double beta_mop = mop(to_network(m)).beta;
    EXPECT_NEAR(beta_optop, beta_mop, 1e-5) << "trial " << trial;
  }
}

TEST(Mop, AgreesWithOpTopOnFig4) {
  const double beta_mop = mop(to_network(fig4_instance())).beta;
  EXPECT_NEAR(beta_mop, fig4_expected().beta, 1e-6);
}

TEST(Mop, PigouNetwork) {
  const MopResult r = mop(to_network(pigou()));
  EXPECT_NEAR(r.beta, 0.5, 1e-6);
  EXPECT_NEAR(r.induced_cost, 0.75, 1e-6);
}

TEST(Mop, RandomDagsInduceOptimum) {
  Rng rng(131);
  for (int trial = 0; trial < 10; ++trial) {
    const NetworkInstance inst = random_layered_dag(rng, 3, 3, 0.5, 1.5);
    const MopResult r = mop(inst);
    EXPECT_LT(r.induced_residual, 1e-4) << "trial " << trial;
    EXPECT_NEAR(r.induced_cost, r.optimum_cost,
                1e-4 * std::fmax(1.0, r.optimum_cost))
        << "trial " << trial;
    EXPECT_GE(r.beta, -1e-9);
    EXPECT_LE(r.beta, 1.0 + 1e-9);
  }
}

TEST(Mop, GridCityInducesOptimum) {
  Rng rng(132);
  const NetworkInstance inst = grid_city(rng, 3, 4, 2.0);
  const MopResult r = mop(inst);
  EXPECT_LT(r.induced_residual, 1e-4);
}

TEST(Mop, MulticommodityInducesOptimum) {
  Rng rng(133);
  for (int trial = 0; trial < 5; ++trial) {
    const NetworkInstance inst =
        grid_city_multicommodity(rng, 4, 4, 3, 0.3, 0.8);
    const MopResult r = mop(inst);
    EXPECT_LT(r.induced_residual, 1e-3) << "trial " << trial;
    EXPECT_NEAR(r.induced_cost, r.optimum_cost,
                1e-3 * std::fmax(1.0, r.optimum_cost))
        << "trial " << trial;
  }
}

TEST(Mop, LeaderPlusFreeEqualsDemandPerCommodity) {
  Rng rng(134);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 4, 3, 0.3, 0.8);
  const MopResult r = mop(inst);
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    EXPECT_NEAR(r.commodities[i].free_flow + r.commodities[i].controlled_flow,
                inst.commodities[i].demand, 1e-6);
  }
}

TEST(Mop, BetaZeroWhenNashIsOptimal) {
  // Two identical parallel routes: equilibrium = optimum.
  NetworkInstance inst;
  inst.graph = Graph(2);
  inst.graph.add_edge(0, 1, make_linear(1.0));
  inst.graph.add_edge(0, 1, make_linear(1.0));
  inst.commodities.push_back(Commodity{0, 1, 1.0});
  const MopResult r = mop(inst);
  EXPECT_NEAR(r.beta, 0.0, 1e-7);
}

TEST(Mop, InvalidInstanceThrows) {
  NetworkInstance inst;
  inst.graph = Graph(2);
  inst.graph.add_edge(0, 1, make_linear(1.0));
  EXPECT_THROW(mop(inst), Error);
}


TEST(Mop, WarmStartAgreesWithColdAndHarvestsState) {
  Rng rng(4);
  NetworkInstance inst = random_layered_dag(rng, 3, 4, 0.6, 1.0);
  SolverWorkspace ws;
  EquilibriumWarmState optimum;
  EquilibriumWarmState induced;
  const MopResult first = mop(inst, {}, ws, &optimum, &induced);
  EXPECT_FALSE(optimum.empty());
  EXPECT_FALSE(induced.empty());
  ASSERT_EQ(optimum.commodities.size(), inst.commodities.size());

  for (auto& c : inst.commodities) c.demand *= 1.4;
  const MopResult cold = mop(inst);
  const MopResult w = mop(inst, {}, ws, &optimum, &induced);
  EXPECT_NEAR(w.beta, cold.beta, 1e-7);
  EXPECT_NEAR(w.optimum_cost, cold.optimum_cost,
              1e-7 * std::fmax(1.0, cold.optimum_cost));
  EXPECT_NEAR(w.induced_cost, cold.induced_cost,
              1e-7 * std::fmax(1.0, cold.induced_cost));
  EXPECT_NEAR(w.induced_residual, cold.induced_residual, 1e-6);
  // The harvest now reflects the new point.
  ASSERT_EQ(optimum.commodities.size(), inst.commodities.size());
  EXPECT_DOUBLE_EQ(optimum.commodities[0].demand,
                   inst.commodities[0].demand);
  (void)first;
}

}  // namespace
}  // namespace stackroute
