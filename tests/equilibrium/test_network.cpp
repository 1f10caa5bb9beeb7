// Network equilibrium wrappers: costs, Wardrop path checker, induced
// equilibria, PoA on the paper's graphs, and agreement with the
// parallel-links solver on two-node networks.
#include "stackroute/equilibrium/network.h"

#include <gtest/gtest.h>

#include "stackroute/equilibrium/parallel.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

/// The Wardrop checker reads path flows, which only path equalization
/// returns.
EquilibriumRequest path_request() {
  EquilibriumRequest req;
  req.backend = EquilibriumBackend::kPathEqualization;
  return req;
}

TEST(NetworkEquilibrium, BraessClassicCosts) {
  const NetworkInstance inst = braess_classic();
  const NetworkAssignment n = solve_nash(inst);
  const NetworkAssignment o = solve_optimum(inst);
  EXPECT_NEAR(n.cost, 2.0, 1e-7);
  EXPECT_NEAR(o.cost, 1.5, 1e-7);
  EXPECT_NEAR(price_of_anarchy(inst), 4.0 / 3.0, 1e-6);
}

TEST(NetworkEquilibrium, Fig7CostsMatchExpected) {
  const double eps = 0.05;
  const NetworkInstance inst = fig7_instance(eps);
  const Fig7Expected expected = fig7_expected(eps);
  const NetworkAssignment n = solve_nash(inst);
  const NetworkAssignment o = solve_optimum(inst);
  EXPECT_NEAR(n.cost, expected.nash_cost, 1e-6);
  EXPECT_NEAR(o.cost, expected.optimum_cost, 1e-6);
}

TEST(NetworkEquilibrium, NashFlowsPassWardropChecker) {
  Rng rng(81);
  const NetworkInstance inst = grid_city(rng, 3, 3, 1.5);
  const NetworkAssignment n = solve_nash(inst, path_request());
  const std::vector<double> zero(
      static_cast<std::size_t>(inst.graph.num_edges()), 0.0);
  EXPECT_TRUE(satisfies_wardrop(inst, n.commodity_paths, zero));
  // The optimum generally is not a Wardrop equilibrium.
  const NetworkAssignment o = solve_optimum(inst);
  (void)o;  // just ensure it solves; grids can have N == O coincidences
}

TEST(NetworkEquilibrium, WardropCheckerRejectsUnbalancedPaths) {
  const NetworkInstance inst = braess_classic();
  // All flow on the expensive outer path s->w->t while the zigzag is free.
  std::vector<std::vector<PathFlow>> paths(1);
  paths[0].push_back(PathFlow{Path{1, 4}, 1.0});
  const std::vector<double> zero(5, 0.0);
  EXPECT_FALSE(satisfies_wardrop(inst, paths, zero));
}

TEST(NetworkEquilibrium, AgreesWithParallelLinksOnTwoNodeNets) {
  Rng rng(82);
  for (int trial = 0; trial < 10; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 5, 2.0);
    const NetworkInstance inst = to_network(m);
    const LinkAssignment direct = solve_nash(m);
    const NetworkAssignment via_net = solve_nash(inst);
    EXPECT_NEAR(max_abs_diff(direct.flows, via_net.edge_flow), 0.0, 1e-6)
        << "trial " << trial;
    const LinkAssignment direct_opt = solve_optimum(m);
    const NetworkAssignment net_opt = solve_optimum(inst);
    EXPECT_NEAR(max_abs_diff(direct_opt.flows, net_opt.edge_flow), 0.0, 1e-6)
        << "trial " << trial;
  }
}

TEST(NetworkEquilibrium, InducedCostIncludesPreload) {
  // Pigou network, Leader plays the Fig-2 strategy: C(S+T) = C(O) = 3/4.
  NetworkInstance inst = to_network(pigou());
  inst.commodities[0].demand = 0.5;
  const std::vector<double> preload = {0.0, 0.5};
  const NetworkAssignment induced = solve_induced(inst, preload);
  EXPECT_NEAR(induced.cost, 0.75, 1e-7);
  EXPECT_NEAR(induced.edge_flow[0], 0.5, 1e-7);
}

TEST(NetworkEquilibrium, MulticommodityNashBalancesEachCommodity) {
  Rng rng(83);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 4, 3, 0.3, 0.7);
  const NetworkAssignment n = solve_nash(inst, path_request());
  const std::vector<double> zero(
      static_cast<std::size_t>(inst.graph.num_edges()), 0.0);
  EXPECT_TRUE(satisfies_wardrop(inst, n.commodity_paths, zero));
}

}  // namespace
}  // namespace stackroute
