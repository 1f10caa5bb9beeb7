// Path-equilibration solver against closed-form instances (Pigou as a
// network, classic Braess, Fig 7) and structural invariants on random
// networks.
#include "stackroute/solver/traffic_assignment.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

double commodity_total(const std::vector<PathFlow>& paths) {
  double total = 0.0;
  for (const auto& pf : paths) total += pf.flow;
  return total;
}

TEST(AssignTraffic, PigouAsNetworkNash) {
  const NetworkInstance inst = to_network(pigou());
  const auto r = assign_traffic(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.edge_flow[0], 1.0, 1e-8);
  EXPECT_NEAR(r.edge_flow[1], 0.0, 1e-8);
}

TEST(AssignTraffic, PigouAsNetworkOptimum) {
  const NetworkInstance inst = to_network(pigou());
  const auto r = assign_traffic(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.edge_flow[0], 0.5, 1e-8);
  EXPECT_NEAR(r.edge_flow[1], 0.5, 1e-8);
}

TEST(AssignTraffic, BraessClassicNashCostTwo) {
  const NetworkInstance inst = braess_classic();
  const auto r = assign_traffic(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(r.converged);
  // All flow on the zigzag s->v->w->t: edges 0, 2, 4.
  EXPECT_NEAR(r.edge_flow[0], 1.0, 1e-7);
  EXPECT_NEAR(r.edge_flow[2], 1.0, 1e-7);
  EXPECT_NEAR(r.edge_flow[4], 1.0, 1e-7);
  EXPECT_NEAR(r.edge_flow[1], 0.0, 1e-7);
  EXPECT_NEAR(r.edge_flow[3], 0.0, 1e-7);
}

TEST(AssignTraffic, BraessClassicOptimumSplitsAndSkipsShortcut) {
  const NetworkInstance inst = braess_classic();
  const auto r = assign_traffic(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.edge_flow[0], 0.5, 1e-7);
  EXPECT_NEAR(r.edge_flow[1], 0.5, 1e-7);
  EXPECT_NEAR(r.edge_flow[2], 0.0, 1e-7);  // shortcut unused at optimum
  EXPECT_NEAR(r.edge_flow[3], 0.5, 1e-7);
  EXPECT_NEAR(r.edge_flow[4], 0.5, 1e-7);
}

TEST(AssignTraffic, BraessWithoutShortcutNashIsBetter) {
  const auto with = assign_traffic(braess_classic(), FlowObjective::kBeckmann);
  const auto without =
      assign_traffic(braess_without_shortcut(), FlowObjective::kBeckmann);
  const auto cost_of = [](const NetworkInstance& inst,
                          const std::vector<double>& f) {
    double c = 0.0;
    for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
      c += f[static_cast<std::size_t>(e)] *
           inst.graph.edge(e).latency->value(f[static_cast<std::size_t>(e)]);
    }
    return c;
  };
  const double c_with = cost_of(braess_classic(), with.edge_flow);
  const double c_without =
      cost_of(braess_without_shortcut(), without.edge_flow);
  EXPECT_NEAR(c_with, 2.0, 1e-6);      // the paradox: adding the edge hurts
  EXPECT_NEAR(c_without, 1.5, 1e-6);
}

TEST(AssignTraffic, Fig7OptimumMatchesCaption) {
  for (double eps : {0.0, 0.02, 0.1}) {
    const NetworkInstance inst = fig7_instance(eps);
    const Fig7Expected expected = fig7_expected(eps);
    const auto r = assign_traffic(inst, FlowObjective::kTotalCost);
    EXPECT_TRUE(r.converged);
    for (std::size_t e = 0; e < 5; ++e) {
      EXPECT_NEAR(r.edge_flow[e], expected.optimum_edges[e], 2e-7)
          << "eps=" << eps << " edge " << e;
    }
  }
}

TEST(AssignTraffic, Fig7NashMatchesDerivation) {
  // Derived in generators.h: f_zigzag = 1−4ε, outer paths 2ε each, all
  // used paths at latency 3−8ε.
  const double eps = 0.05;
  const NetworkInstance inst = fig7_instance(eps);
  const auto r = assign_traffic(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.edge_flow[2], 1.0 - 4.0 * eps, 1e-7);  // v->w carries f0
  EXPECT_NEAR(r.edge_flow[1], 2.0 * eps, 1e-7);        // s->w carries f2
}

TEST(AssignTraffic, PathsDecomposeTheEdgeFlow) {
  Rng rng(31);
  const NetworkInstance inst = random_layered_dag(rng, 3, 3, 0.6, 1.5);
  const auto r = assign_traffic(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(commodity_total(r.commodity_paths[0]), 1.5, 1e-9);
  std::vector<double> rebuilt(static_cast<std::size_t>(inst.graph.num_edges()),
                              0.0);
  for (const auto& pf : r.commodity_paths[0]) {
    for (EdgeId e : pf.path) rebuilt[static_cast<std::size_t>(e)] += pf.flow;
  }
  EXPECT_NEAR(max_abs_diff(rebuilt, r.edge_flow), 0.0, 1e-9);
}

TEST(AssignTraffic, UsedPathsShareTheMinimumCost) {
  Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    const NetworkInstance inst = random_layered_dag(rng, 3, 4, 0.5, 2.0);
    const auto r = assign_traffic(inst, FlowObjective::kBeckmann);
    ASSERT_TRUE(r.converged);
    std::vector<double> lat(static_cast<std::size_t>(inst.graph.num_edges()));
    for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
      lat[static_cast<std::size_t>(e)] =
          inst.graph.edge(e).latency->value(
              r.edge_flow[static_cast<std::size_t>(e)]);
    }
    double lo = kInf, hi = -kInf;
    for (const auto& pf : r.commodity_paths[0]) {
      if (pf.flow <= 1e-9) continue;
      const double c = path_cost(lat, pf.path);
      lo = std::fmin(lo, c);
      hi = std::fmax(hi, c);
    }
    EXPECT_LE(hi - lo, 1e-7) << "trial " << trial;
  }
}

TEST(AssignTraffic, MultiCommodityConservesAllDemands) {
  Rng rng(33);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 4, 4, 0.3, 0.8);
  const auto r = assign_traffic(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(r.converged);
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    EXPECT_NEAR(commodity_total(r.commodity_paths[i]),
                inst.commodities[i].demand, 1e-9);
  }
}

TEST(AssignTraffic, PreloadShiftsTheEquilibrium) {
  // Pigou with the optimum preloaded on the constant link: followers get
  // demand 1/2 and should now keep the fast link at 1/2 (the Fig. 2-3
  // story in network form).
  NetworkInstance inst = to_network(pigou());
  inst.commodities[0].demand = 0.5;  // followers only
  const std::vector<double> preload = {0.0, 0.5};
  const auto r = assign_traffic(inst, FlowObjective::kBeckmann, preload);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.edge_flow[0], 0.5, 1e-8);
  EXPECT_NEAR(r.edge_flow[1], 0.0, 1e-8);
}

TEST(AssignTraffic, ObjectiveDecreasesVsAllOrNothingStart) {
  Rng rng(34);
  const NetworkInstance inst = grid_city(rng, 3, 3, 2.0);
  const auto nash = assign_traffic(inst, FlowObjective::kBeckmann);
  const auto opt = assign_traffic(inst, FlowObjective::kTotalCost);
  const std::vector<LatencyPtr> lat = inst.graph.latencies();
  // System cost at optimum <= system cost at Nash.
  EXPECT_LE(total_cost(lat, opt.edge_flow),
            total_cost(lat, nash.edge_flow) + 1e-9);
}

TEST(AssignTraffic, InvalidInstanceThrows) {
  NetworkInstance inst;
  inst.graph = Graph(2);
  inst.graph.add_edge(0, 1, make_linear(1.0));
  EXPECT_THROW(assign_traffic(inst, FlowObjective::kBeckmann), Error);
}

}  // namespace
}  // namespace stackroute
