// A solver-independent equilibrium certificate for tests.
//
// Given an instance, the Leader's preload, the program being solved and
// the edge flow a backend returned, recomputes the optimality evidence
// from scratch — edge costs straight from the latency objects, one
// Dijkstra per origin on the value-returning network API — so no solver
// code (compiled tables, workspaces, warm state) vouches for its own
// output:
//
//   rel_gap       (c·f − SPTT)/c·f, where c are the edge costs at the
//                 flow (latency for kBeckmann, marginal cost for
//                 kTotalCost) and SPTT routes every commodity's demand on
//                 its cheapest path at those costs. Zero exactly when f
//                 solves the program; small and non-negative near it.
//   conservation  worst |net outflow − net supply| over all nodes.
//   min_flow      the smallest edge flow (feasibility needs >= 0).
//
// expect_certified() asserts all three for a flow a backend reports as
// converged.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "stackroute/network/dijkstra.h"
#include "stackroute/network/instance.h"
#include "stackroute/solver/objective.h"

namespace stackroute::test_support {

struct EquilibriumCertificate {
  double rel_gap = 0.0;
  double conservation = 0.0;
  double min_flow = 0.0;
};

inline EquilibriumCertificate certify_equilibrium(
    const NetworkInstance& inst, std::span<const double> preload,
    FlowObjective objective, std::span<const double> flow) {
  const Graph& g = inst.graph;
  const auto ne = static_cast<std::size_t>(g.num_edges());
  EquilibriumCertificate cert;
  cert.min_flow = std::numeric_limits<double>::infinity();

  // Edge costs of the preloaded latencies λ_e(f) = ℓ_e(f + s_e): λ itself
  // for Nash, the marginal λ(f) + f·λ'(f) for the optimum.
  std::vector<double> costs(ne);
  double cf = 0.0;
  for (std::size_t e = 0; e < ne; ++e) {
    const LatencyFunction& lat = *g.edge(static_cast<EdgeId>(e)).latency;
    const double f = flow[e];
    const double x = f + (preload.empty() ? 0.0 : preload[e]);
    costs[e] = lat.value(x);
    if (objective == FlowObjective::kTotalCost) {
      costs[e] += f * lat.derivative(x);
    }
    cf += costs[e] * f;
    cert.min_flow = std::min(cert.min_flow, f);
  }

  // Shortest-path total travel time: one tree per distinct origin.
  std::map<NodeId, ShortestPathTree> trees;
  double sptt = 0.0;
  for (const Commodity& com : inst.commodities) {
    auto it = trees.find(com.source);
    if (it == trees.end()) {
      it = trees.emplace(com.source, dijkstra(g, com.source, costs)).first;
    }
    sptt += com.demand * it->second.dist[static_cast<std::size_t>(com.sink)];
  }
  cert.rel_gap = (cf - sptt) / std::fmax(std::fabs(cf), 1e-300);

  // Node balance: outflow − inflow must equal supply − absorption.
  std::vector<double> balance(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (std::size_t e = 0; e < ne; ++e) {
    const Edge& edge = g.edge(static_cast<EdgeId>(e));
    balance[static_cast<std::size_t>(edge.tail)] += flow[e];
    balance[static_cast<std::size_t>(edge.head)] -= flow[e];
  }
  for (const Commodity& com : inst.commodities) {
    balance[static_cast<std::size_t>(com.source)] -= com.demand;
    balance[static_cast<std::size_t>(com.sink)] += com.demand;
  }
  for (double b : balance) {
    cert.conservation = std::max(cert.conservation, std::fabs(b));
  }
  return cert;
}

/// The certificate every converged flow must pass: a relative gap far
/// below the cost comparisons the tests make (and not negative beyond
/// rounding), demands routed exactly, no negative edge flow.
inline void expect_certified(const NetworkInstance& inst,
                             std::span<const double> preload,
                             FlowObjective objective,
                             std::span<const double> flow) {
  const EquilibriumCertificate cert =
      certify_equilibrium(inst, preload, objective, flow);
  EXPECT_LE(cert.rel_gap, 1e-8);
  EXPECT_GE(cert.rel_gap, -1e-12);
  EXPECT_LE(cert.conservation, 1e-9 * std::fmax(1.0, inst.total_demand()));
  EXPECT_GE(cert.min_flow, 0.0);
}

}  // namespace stackroute::test_support
