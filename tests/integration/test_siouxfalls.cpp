// SiouxFalls end-to-end: the shipped TNTP instance loads, solves through
// the bush backend and path equilibration — each flow checked by the
// solver-independent certificate — and runs the full MOP pipeline.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "stackroute/core/mop.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/io/tntp.h"
#include "stackroute/solver/bush.h"
#include "stackroute/sweep/scenario.h"
#include "support/equilibrium_certificate.h"

namespace stackroute {
namespace {

const std::string kSiouxFallsPath =
    std::string(STACKROUTE_SOURCE_DIR) +
    "/examples/instances/SiouxFalls_net.tntp";

NetworkInstance sioux_falls(double demand) {
  NetworkInstance inst = read_tntp_network_file(kSiouxFallsPath);
  // _net.tntp carries no demands; route one commodity across town
  // (node 1 -> node 20 in the file's 1-based ids) at a volume where the
  // BPR congestion terms matter against ~5-25k link capacities.
  inst.commodities.push_back(Commodity{0, 19, demand});
  inst.validate();
  return inst;
}

using test_support::expect_certified;

TEST(SiouxFalls, BushSolvesNashAndOptimum) {
  const NetworkInstance inst = sioux_falls(10000.0);
  const BushResult nash = solve_bush(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(solve_ok(nash.status));
  const BushResult opt = solve_bush(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(solve_ok(opt.status));
  // Gap, node conservation and non-negativity, recomputed from scratch.
  {
    SCOPED_TRACE("bush nash");
    expect_certified(inst, {}, FlowObjective::kBeckmann, nash.edge_flow);
  }
  {
    SCOPED_TRACE("bush optimum");
    expect_certified(inst, {}, FlowObjective::kTotalCost, opt.edge_flow);
  }

  // The bush optimum agrees with the path-equilibration solver, whose
  // flow passes the same certificate.
  const NetworkAssignment eq = solve_optimum(inst);
  EXPECT_TRUE(solve_ok(eq.status));
  EXPECT_NEAR(cost(inst, opt.edge_flow), eq.cost, 1e-6 * eq.cost);
  {
    SCOPED_TRACE("pe optimum");
    expect_certified(inst, {}, FlowObjective::kTotalCost, eq.edge_flow);
  }
  // And the Nash cost dominates the optimum cost.
  EXPECT_GE(cost(inst, nash.edge_flow), eq.cost * (1.0 - 1e-9));
}

TEST(SiouxFalls, MopInducesTheOptimum) {
  const NetworkInstance inst = sioux_falls(10000.0);
  const MopResult res = mop(inst);
  EXPECT_GE(res.beta, 0.0);
  EXPECT_LE(res.beta, 1.0);
  // MOP's guarantee: the induced equilibrium reproduces the optimum.
  EXPECT_NEAR(res.induced_cost, res.optimum_cost,
              1e-6 * res.optimum_cost + 1e-9);
  EXPECT_LT(res.induced_residual, 1e-3);
  ASSERT_EQ(res.commodities.size(), 1u);
  EXPECT_NEAR(res.commodities[0].free_flow + res.commodities[0].controlled_flow,
              10000.0, 1e-3);
}

TEST(SiouxFalls, SweepFileSourceLoadsTntp) {
  // The sweep layer's file source auto-detects .tntp and attaches a unit
  // commodity, rescaled by the demand axis.
  sweep::Instance inst = sweep::load_instance_file(kSiouxFallsPath);
  auto& net = std::get<NetworkInstance>(inst);
  ASSERT_EQ(net.commodities.size(), 1u);
  sweep::override_demand(inst, 500.0);
  EXPECT_DOUBLE_EQ(std::get<NetworkInstance>(inst).total_demand(), 500.0);
  EXPECT_NO_THROW(std::get<NetworkInstance>(inst).validate());
}

}  // namespace
}  // namespace stackroute
