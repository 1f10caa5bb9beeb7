#include "stackroute/core/mop.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stackroute/network/dijkstra.h"
#include "stackroute/network/maxflow.h"
#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/solver/objective.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

MaxFlowResult greedy_peel_flow(const Graph& g, NodeId s, NodeId t,
                               std::span<const double> capacity, double limit,
                               double tol) {
  std::vector<double> residual(capacity.begin(), capacity.end());
  MaxFlowResult out;
  out.edge_flow.assign(capacity.size(), 0.0);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  while (out.value < limit) {
    // Walk from s picking the widest usable edge; stop on dead ends.
    std::vector<char> visited(n, 0);
    std::vector<EdgeId> walk;
    NodeId v = s;
    visited[static_cast<std::size_t>(v)] = 1;
    while (v != t) {
      EdgeId best = kInvalidEdge;
      double best_cap = tol;
      for (EdgeId e : g.out_edges(v)) {
        const NodeId w = g.edge(e).head;
        if (visited[static_cast<std::size_t>(w)]) continue;
        const double c = residual[static_cast<std::size_t>(e)];
        if (c > best_cap) {
          best_cap = c;
          best = e;
        }
      }
      if (best == kInvalidEdge) break;
      walk.push_back(best);
      v = g.edge(best).head;
      visited[static_cast<std::size_t>(v)] = 1;
    }
    if (v != t || walk.empty()) break;
    double bottleneck = limit - out.value;
    for (EdgeId e : walk) {
      bottleneck = std::fmin(bottleneck, residual[static_cast<std::size_t>(e)]);
    }
    if (bottleneck <= tol) break;
    for (EdgeId e : walk) {
      residual[static_cast<std::size_t>(e)] -= bottleneck;
      out.edge_flow[static_cast<std::size_t>(e)] += bottleneck;
    }
    out.value += bottleneck;
  }
  return out;
}

MopResult mop(const NetworkInstance& inst, const MopOptions& opts) {
  // One workspace across the optimum solve, the cost fix-up and the
  // induced verification solve.
  SolverWorkspace ws;
  return mop(inst, opts, ws, nullptr, nullptr);
}

namespace {

/// Step 3's free flow from one origin into its sinks: the exact max flow,
/// or the greedy peel ablation (sink by sink on the shared capacities).
MaxFlowResult free_flow_to_sinks(const Graph& g, NodeId origin,
                                 std::span<const NodeId> sinks,
                                 std::span<const double> demands,
                                 std::span<const double> caps,
                                 const MopOptions& opts) {
  if (opts.free_flow_method == FreeFlowMethod::kMaxFlow) {
    return max_flow_to_sinks(g, origin, sinks, demands, caps, opts.flow_tol);
  }
  MaxFlowResult out;
  out.edge_flow.assign(caps.size(), 0.0);
  std::vector<double> residual(caps.begin(), caps.end());
  for (std::size_t j = 0; j < sinks.size(); ++j) {
    const MaxFlowResult peel = greedy_peel_flow(g, origin, sinks[j], residual,
                                                demands[j], opts.flow_tol);
    for (std::size_t e = 0; e < caps.size(); ++e) {
      residual[e] -= peel.edge_flow[e];
      out.edge_flow[e] += peel.edge_flow[e];
    }
    out.sink_flow.push_back(peel.value);
    out.value += peel.value;
  }
  return out;
}

}  // namespace

MopResult mop(const NetworkInstance& inst, const MopOptions& opts,
              SolverWorkspace& ws, EquilibriumWarmState* optimum,
              EquilibriumWarmState* induced) {
  obs::ScopedCounterDelta tally;
  obs::ScopedSpan span("mop");
  inst.validate();
  // Arm the budget once so the optimum solve and the induced verification
  // solve draw on a single shared deadline.
  EquilibriumRequest req = opts.equilibrium;
  req.budget = opts.equilibrium.budget.armed();
  const Graph& g = inst.graph;
  const auto ne = static_cast<std::size_t>(g.num_edges());
  const std::size_t k = inst.commodities.size();
  const double r = inst.total_demand();
  // A bush optimum's payload holds its per-origin flows, so it is always
  // published: into the caller's payload, or a local one.
  EquilibriumWarmState local;
  EquilibriumWarmState& optimum_state = optimum != nullptr ? *optimum : local;

  MopResult result;
  // (1) Optimum flow and the induced edge costs ℓ_e(o_e).
  NetworkAssignment opt = [&] {
    obs::ScopedSpan phase("mop_optimum");
    return solve_optimum(inst, req, ws, &optimum_state);
  }();
  result.status = worst_status(result.status, opt.status);
  result.optimum_edge_flow = std::move(opt.edge_flow);
  result.optimum_paths = std::move(opt.commodity_paths);
  result.optimum_cost = opt.cost;
  const std::vector<LatencyPtr> lat = g.latencies();
  // The instance's own latencies, no preload: pointer-identical to the
  // optimum solve's set, so this compile is skipped on the fast path.
  ws.table.ensure_compiled(lat);
  std::vector<double> opt_costs(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    opt_costs[e] = ws.table.value(e, result.optimum_edge_flow[e]);
  }

  result.leader_edge_flow.assign(ne, 0.0);
  result.commodities.resize(k);
  std::vector<std::vector<double>> storage;
  const std::vector<OriginFlow> origins =
      origin_flows(inst, result.optimum_edge_flow, result.optimum_paths,
                   optimum_state, storage);
  if (origins.empty()) {
    // A multi-origin bush solve that failed numerically publishes no
    // per-origin split: the Leader routes all of O, which induces O
    // trivially (β = 1).
    result.leader_edge_flow = result.optimum_edge_flow;
    for (std::size_t i = 0; i < k; ++i) {
      result.commodities[i].controlled_flow = inst.commodities[i].demand;
    }
  } else {
    obs::ScopedSpan tight_span("mop_tight_dags");
    std::vector<char> tight(ne);
    std::vector<double> caps(ne);
    std::vector<double> leader(ne);
    std::vector<NodeId> sinks;
    std::vector<double> demands;
    std::vector<double> controlled;
    for (std::size_t o = 0; o < origins.size(); ++o) {
      const NodeId s = origins[o].origin;
      const std::span<const double> flow = origins[o].edge_flow;
      // (2) The origin's tight DAG under optimum costs.
      const ShortestPathTree& tree = dijkstra(g, s, opt_costs, ws.dijkstra);
      count_dijkstra(ws.dijkstra);
      for (std::size_t e = 0; e < ne; ++e) {
        const Edge& edge = g.edge(static_cast<EdgeId>(e));
        const double du = tree.dist[static_cast<std::size_t>(edge.tail)];
        const double dv = tree.dist[static_cast<std::size_t>(edge.head)];
        tight[e] = std::isfinite(du) && std::isfinite(dv) &&
                   du + opt_costs[e] <= dv + opts.tight_tol;
        caps[e] = tight[e] ? flow[e] : 0.0;
      }
      sinks.clear();
      demands.clear();
      for (std::size_t i : origins[o].commodities) {
        sinks.push_back(inst.commodities[i].sink);
        demands.push_back(inst.commodities[i].demand);
      }
      // (3) Free flow: one max flow inside the tight DAG.
      const MaxFlowResult mf =
          free_flow_to_sinks(g, s, sinks, demands, caps, opts);
      // (4) The Leader controls the remainder of the origin's optimum.
      for (std::size_t e = 0; e < ne; ++e) {
        leader[e] = std::fmax(0.0, flow[e] - mf.edge_flow[e]);
        result.leader_edge_flow[e] += leader[e];
      }
      controlled.clear();
      for (std::size_t j = 0; j < sinks.size(); ++j) {
        controlled.push_back(std::fmax(0.0, demands[j] - mf.sink_flow[j]));
      }
      // Both shares keep the origin's demand scale for their roundoff.
      double scale = 0.0;
      for (double d : demands) scale += d;
      std::vector<std::vector<PathFlow>> free_paths = decompose_origin_flow(
          g, s, sinks, mf.sink_flow, mf.edge_flow, scale);
      std::vector<std::vector<PathFlow>> leader_paths =
          decompose_origin_flow(g, s, sinks, controlled, leader, scale);
      for (std::size_t j = 0; j < sinks.size(); ++j) {
        MopCommodity& trace = result.commodities[origins[o].commodities[j]];
        trace.tight_edges = tight;
        trace.shortest_cost = tree.dist[static_cast<std::size_t>(sinks[j])];
        trace.free_flow = mf.sink_flow[j];
        trace.controlled_flow = demands[j] - mf.sink_flow[j];
        trace.free_paths = std::move(free_paths[j]);
        trace.leader_paths = std::move(leader_paths[j]);
        result.free_flow_total += trace.free_flow;
      }
    }
  }

  result.beta = 1.0 - result.free_flow_total / r;
  // Clamp roundoff at the extremes.
  result.beta = std::fmin(1.0, std::fmax(0.0, result.beta));
  // Weak strategy: one uniform fraction must cover the neediest commodity.
  double weak = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    weak = std::fmax(
        weak, result.commodities[i].controlled_flow /
                  inst.commodities[i].demand);
  }
  result.weak_beta = std::fmin(1.0, std::fmax(0.0, weak));

  // (5) Verify: followers' selfish routing of the free flow under the
  // Leader's preload reproduces the optimum.
  result.follower_edge_flow.assign(ne, 0.0);
  bool induced_solved = false;
  if (opts.verify_induced) {
    obs::ScopedSpan verify_span("mop_induced");
    NetworkInstance followers;
    for (std::size_t i = 0; i < k; ++i) {
      if (result.commodities[i].free_flow > opts.flow_tol) {
        Commodity c = inst.commodities[i];
        c.demand = result.commodities[i].free_flow;
        followers.commodities.push_back(c);
      }
    }
    if (!followers.commodities.empty()) {
      followers.graph = g;
      NetworkAssignment followed = solve_induced(
          followers, result.leader_edge_flow, req, ws, induced);
      induced_solved = true;
      result.status = worst_status(result.status, followed.status);
      result.follower_edge_flow = std::move(followed.edge_flow);
      result.induced_cost = followed.cost;
    } else {
      // Leader controls everything; the "induced" flow is the strategy.
      result.induced_cost = cost(inst, result.leader_edge_flow);
    }
    const std::vector<double> combined =
        add(result.leader_edge_flow, result.follower_edge_flow);
    result.induced_residual = max_abs_diff(combined, result.optimum_edge_flow);
  } else {
    result.induced_cost = result.optimum_cost;
  }
  if (!induced_solved && induced != nullptr) induced->clear();
  if (tally.active()) result.counters = tally.current();
  return result;
}

double price_of_optimum(const NetworkInstance& inst) {
  MopOptions opts;
  opts.verify_induced = false;
  return mop(inst, opts).beta;
}

}  // namespace stackroute
