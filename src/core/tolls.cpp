#include "stackroute/core/tolls.h"

#include "stackroute/latency/families.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

ParallelLinks with_tolls(const ParallelLinks& m,
                         std::span<const double> tolls) {
  SR_REQUIRE(tolls.size() == m.size(), "toll vector size mismatch");
  ParallelLinks out;
  out.demand = m.demand;
  out.links.reserve(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    out.links.push_back(make_offset(m.links[i], tolls[i]));
  }
  return out;
}

NetworkInstance with_tolls(const NetworkInstance& inst,
                           std::span<const double> tolls) {
  SR_REQUIRE(tolls.size() == static_cast<std::size_t>(inst.graph.num_edges()),
             "toll vector size mismatch");
  NetworkInstance out;
  out.graph = Graph(inst.graph.num_nodes());
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const Edge& edge = inst.graph.edge(e);
    out.graph.add_edge(edge.tail, edge.head,
                       make_offset(edge.latency,
                                   tolls[static_cast<std::size_t>(e)]));
  }
  out.commodities = inst.commodities;
  return out;
}

TollResult marginal_cost_tolls(const ParallelLinks& m) {
  m.validate();
  TollResult result;
  const LinkAssignment nash = solve_nash(m);
  result.untolled_nash_cost = cost(m, nash.flows);
  const LinkAssignment opt = solve_optimum(m);
  result.optimum_cost = cost(m, opt.flows);

  result.tolls.resize(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    result.tolls[i] = opt.flows[i] * m.links[i]->derivative(opt.flows[i]);
  }

  const ParallelLinks tolled = with_tolls(m, result.tolls);
  const LinkAssignment eq = solve_nash(tolled);
  result.tolled_equilibrium = eq.flows;
  result.tolled_latency_cost = cost(m, eq.flows);  // latency only, no tolls
  for (std::size_t i = 0; i < m.size(); ++i) {
    result.revenue += eq.flows[i] * result.tolls[i];
  }
  result.residual = max_abs_diff(eq.flows, opt.flows);
  return result;
}

TollResult marginal_cost_tolls(const NetworkInstance& inst,
                               const EquilibriumRequest& req) {
  inst.validate();
  TollResult result;
  const NetworkAssignment nash = solve_nash(inst, req);
  result.untolled_nash_cost = nash.cost;
  const NetworkAssignment opt = solve_optimum(inst, req);
  result.optimum_cost = opt.cost;

  const auto ne = static_cast<std::size_t>(inst.graph.num_edges());
  result.tolls.resize(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    const LatencyPtr& lat = inst.graph.edge(static_cast<EdgeId>(e)).latency;
    result.tolls[e] = opt.edge_flow[e] * lat->derivative(opt.edge_flow[e]);
  }

  const NetworkInstance tolled = with_tolls(inst, result.tolls);
  const NetworkAssignment eq = solve_nash(tolled, req);
  result.tolled_equilibrium = eq.edge_flow;
  result.tolled_latency_cost = cost(inst, eq.edge_flow);
  for (std::size_t e = 0; e < ne; ++e) {
    result.revenue += eq.edge_flow[e] * result.tolls[e];
  }
  result.residual = max_abs_diff(eq.edge_flow, opt.edge_flow);
  return result;
}

}  // namespace stackroute
