#include "stackroute/equilibrium/network.h"

#include <cmath>

#include "stackroute/network/dijkstra.h"
#include "stackroute/solver/objective.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

namespace {

/// One solve of `objective` through the backend registry; `cost` is
/// C(preload + flow) on the instance's own latencies.
NetworkAssignment solve_program(const NetworkInstance& inst,
                                FlowObjective objective,
                                std::span<const double> preload,
                                const EquilibriumRequest& req,
                                SolverWorkspace& ws,
                                EquilibriumWarmState* warm) {
  EquilibriumRequest program = req;
  program.objective = objective;
  EquilibriumResult r =
      solve_equilibrium(inst, preload, program, ws, warm, warm);
  NetworkAssignment out;
  out.edge_flow = std::move(r.edge_flow);
  out.commodity_paths = std::move(r.commodity_paths);
  out.converged = r.converged;
  out.status = r.status;
  if (preload.empty()) {
    out.cost = cost(inst, out.edge_flow);
  } else {
    SR_REQUIRE(preload.size() == out.edge_flow.size(),
               "preload vector must have one entry per edge");
    out.cost = cost(inst, add(preload, out.edge_flow));
  }
  return out;
}

}  // namespace

NetworkAssignment solve_nash(const NetworkInstance& inst,
                             const EquilibriumRequest& req) {
  SolverWorkspace ws;
  return solve_nash(inst, req, ws);
}

NetworkAssignment solve_nash(const NetworkInstance& inst,
                             const EquilibriumRequest& req,
                             SolverWorkspace& ws,
                             EquilibriumWarmState* warm) {
  return solve_program(inst, FlowObjective::kBeckmann, {}, req, ws, warm);
}

NetworkAssignment solve_optimum(const NetworkInstance& inst,
                                const EquilibriumRequest& req) {
  SolverWorkspace ws;
  return solve_optimum(inst, req, ws);
}

NetworkAssignment solve_optimum(const NetworkInstance& inst,
                                const EquilibriumRequest& req,
                                SolverWorkspace& ws,
                                EquilibriumWarmState* warm) {
  return solve_program(inst, FlowObjective::kTotalCost, {}, req, ws, warm);
}

NetworkAssignment solve_induced(const NetworkInstance& inst,
                                std::span<const double> preload,
                                const EquilibriumRequest& req) {
  SolverWorkspace ws;
  return solve_induced(inst, preload, req, ws);
}

NetworkAssignment solve_induced(const NetworkInstance& inst,
                                std::span<const double> preload,
                                const EquilibriumRequest& req,
                                SolverWorkspace& ws,
                                EquilibriumWarmState* warm) {
  // An empty preload would silently mean "no Leader"; the caller asked
  // for one, so its size must match.
  SR_REQUIRE(preload.size() ==
                 static_cast<std::size_t>(inst.graph.num_edges()),
             "preload vector must have one entry per edge");
  return solve_program(inst, FlowObjective::kBeckmann, preload, req, ws,
                       warm);
}

double cost(const NetworkInstance& inst, std::span<const double> edge_flow) {
  const std::vector<LatencyPtr> lat = inst.graph.latencies();
  return total_cost(lat, edge_flow);
}

bool satisfies_wardrop(const NetworkInstance& inst,
                       std::span<const std::vector<PathFlow>> commodity_paths,
                       std::span<const double> preload, double tol) {
  if (commodity_paths.size() != inst.commodities.size()) return false;
  const Graph& g = inst.graph;
  const auto ne = static_cast<std::size_t>(g.num_edges());

  // A-posteriori follower flows and edge latencies.
  std::vector<double> follower(ne, 0.0);
  for (const auto& paths : commodity_paths) {
    for (const PathFlow& pf : paths) {
      if (pf.flow < -tol) return false;
      for (EdgeId e : pf.path) follower[static_cast<std::size_t>(e)] += pf.flow;
    }
  }
  std::vector<double> latency(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    const double load =
        follower[e] + (preload.empty() ? 0.0 : preload[e]);
    latency[e] = g.edge(static_cast<EdgeId>(e)).latency->value(load);
  }

  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    const Commodity& com = inst.commodities[i];
    const ShortestPathTree tree = dijkstra(g, com.source, latency);
    const double best = tree.dist[static_cast<std::size_t>(com.sink)];
    if (!std::isfinite(best)) return false;
    for (const PathFlow& pf : commodity_paths[i]) {
      if (pf.flow <= tol) continue;
      if (!is_path(g, com.source, com.sink, pf.path)) return false;
      const double c = path_cost(latency, pf.path);
      if (c > best + tol * std::fmax(1.0, std::fabs(best))) return false;
    }
  }
  return true;
}

double price_of_anarchy(const NetworkInstance& inst,
                        const EquilibriumRequest& req) {
  SolverWorkspace ws;
  const NetworkAssignment n = solve_nash(inst, req, ws);
  const NetworkAssignment o = solve_optimum(inst, req, ws);
  SR_REQUIRE(o.cost > 0.0, "optimum cost is zero; PoA undefined");
  return n.cost / o.cost;
}

}  // namespace stackroute
