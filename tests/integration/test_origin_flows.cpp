// Per-origin flows on the shipped TNTP networks: a bush optimum's origins
// decompose into sink-tagged paths that carry every commodity's demand,
// MOP's per-origin β on Anaheim stays within its declared warm-versus-
// cold tolerance, a warm optimum whose bushes carry rounding dust still
// converges on its own, and path equalization's split comes from its own
// paths.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <variant>
#include <vector>

#include "stackroute/core/mop.h"
#include "stackroute/engine/eval.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/io/tntp.h"
#include "stackroute/network/paths.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/bush.h"
#include "stackroute/sweep/scenario.h"

namespace stackroute {
namespace {

const std::string kInstances =
    std::string(STACKROUTE_SOURCE_DIR) + "/examples/instances/";

/// SiouxFalls with a few commodities from three origins, at a volume where
/// the BPR terms bind.
NetworkInstance sioux_falls() {
  NetworkInstance inst = read_tntp_network_file(kInstances +
                                                "SiouxFalls_net.tntp");
  for (NodeId s : {0, 6, 12}) {
    for (NodeId t : {19, 9, 23}) {
      if (s != t) inst.commodities.push_back(Commodity{s, t, 2500.0});
    }
  }
  inst.validate();
  return inst;
}

NetworkInstance anaheim(double factor) {
  sweep::Instance inst =
      sweep::load_instance_file(kInstances + "Anaheim_net.tntp");
  sweep::scale_demand(inst, factor);
  return std::get<NetworkInstance>(std::move(inst));
}

/// Every commodity's sink-tagged paths of the bush optimum are s→t paths
/// summing to its demand within 1e-9 relative.
void expect_sink_paths_carry_demands(const NetworkInstance& inst) {
  SolverWorkspace ws;
  EquilibriumWarmState state;
  const NetworkAssignment opt = solve_optimum(inst, {}, ws, &state);
  ASSERT_TRUE(opt.converged);
  std::vector<std::vector<double>> storage;
  const std::vector<OriginFlow> origins =
      origin_flows(inst, opt.edge_flow, opt.commodity_paths, state, storage);
  ASSERT_FALSE(origins.empty());
  std::size_t seen = 0;
  for (const OriginFlow& of : origins) {
    std::vector<NodeId> sinks;
    std::vector<double> demands;
    for (std::size_t i : of.commodities) {
      sinks.push_back(inst.commodities[i].sink);
      demands.push_back(inst.commodities[i].demand);
    }
    const auto paths =
        decompose_origin_flow(inst.graph, of.origin, sinks, demands,
                              of.edge_flow);
    for (std::size_t j = 0; j < sinks.size(); ++j) {
      double total = 0.0;
      for (const PathFlow& pf : paths[j]) {
        ASSERT_TRUE(is_path(inst.graph, of.origin, sinks[j], pf.path));
        total += pf.flow;
      }
      EXPECT_NEAR(total, demands[j], 1e-9 * demands[j])
          << "origin " << of.origin << " sink " << sinks[j];
      ++seen;
    }
  }
  EXPECT_EQ(seen, inst.commodities.size());
}

TEST(OriginFlows, SiouxFallsBushOptimumDecomposesBySink) {
  expect_sink_paths_carry_demands(sioux_falls());
}

TEST(OriginFlows, AnaheimBushOptimumDecomposesBySink) {
  expect_sink_paths_carry_demands(anaheim(1.0));
}

TEST(OriginFlows, AnaheimBetaWarmAgreesWithColdWithinTolerance) {
  // The split of the optimum across origins is not unique, so a warm
  // chain may settle on another one than a cold solve; β depends on it.
  // Declared tolerance: 1e-3 in β at native demand (measured 1.2e-4).
  MopOptions opts;
  opts.verify_induced = false;
  SolverWorkspace ws;
  EquilibriumWarmState optimum;
  EquilibriumWarmState induced;
  (void)mop(anaheim(0.5), opts, ws, &optimum, &induced);
  ASSERT_FALSE(optimum.empty());
  const MopResult chained = mop(anaheim(1.0), opts, ws, &optimum, &induced);
  const MopResult cold = mop(anaheim(1.0), opts);
  EXPECT_NEAR(chained.beta, cold.beta, 1e-3);
  EXPECT_NEAR(chained.optimum_cost, cold.optimum_cost,
              1e-9 * cold.optimum_cost);
  EXPECT_GT(cold.beta, 0.0);
  EXPECT_LT(cold.beta, 1.0);
}

TEST(OriginFlows, WarmOptimumClearsDustAndConvergesWithoutColdRetry) {
  // The default Anaheim --file sweep's two points, demands set the way the
  // sweep sets them. Seeded from the first point's optimum, the second
  // point's bushes keep 1e-14 of flow on an edge out of a node that
  // receives none, and every improving edge into that node closes a cycle
  // through it. Clearing that dust on the cycle path lets the warm run
  // converge by itself, well inside the iteration cap, to the cold optimum.
  const auto at_total = [](double demand) {
    sweep::Instance inst =
        sweep::load_instance_file(kInstances + "Anaheim_net.tntp");
    sweep::override_demand(inst, demand);
    return std::get<NetworkInstance>(std::move(inst));
  };
  SolverWorkspace ws;
  EquilibriumWarmState warm;
  ASSERT_TRUE(solve_bush(at_total(40677.1), FlowObjective::kTotalCost, {},
                         {}, ws, nullptr, &warm)
                  .converged);
  const NetworkInstance inst = at_total(81354.2);
  obs::SolveCounters sink;
  BushResult chained;
  {
    obs::CountersScope counters(sink);
    chained = solve_bush(inst, FlowObjective::kTotalCost, {}, {}, ws, &warm,
                         &warm);
  }
  const BushResult cold = solve_bush(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(chained.converged);
  EXPECT_EQ(sink.warm_fallbacks, 0u);
  EXPECT_LT(sink.gap_checks, 100u);
  EXPECT_NEAR(chained.objective, cold.objective, 1e-12 * cold.objective);
}

TEST(OriginFlows, PathEqualizationMopThenLlfSplitsByItsOwnPaths) {
  // A pe solve publishes no warm payload; its per-origin split is its own
  // commodity paths, which survive the Evaluation's reuse of MOP's
  // optimum for LLF. pe solves cold and sums its paths per origin in
  // commodity order, so β and LLF's C(S+T) are pinned bit for bit.
  const engine::Instance inst(sioux_falls());
  engine::Evaluation eval(inst, nullptr);
  eval.set_backend(EquilibriumBackend::kPathEqualization);
  EXPECT_EQ(eval.beta(), 0x1.224516e71c86p-5);
  EXPECT_EQ(eval.strategy_cost(engine::StrategyKind::kLlf, 0.5),
            0x1.2f058758e9023p+18);
}

}  // namespace
}  // namespace stackroute
