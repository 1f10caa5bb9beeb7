#include "stackroute/core/strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void require_alpha(double alpha, const char* who) {
  SR_REQUIRE(alpha >= 0.0 && alpha <= 1.0,
             std::string(who) + " needs alpha in [0, 1]");
}

void require_positive_optimum(double optimum_cost) {
  SR_REQUIRE(optimum_cost > 0.0,
             "degenerate instance: the optimum cost C(O) is zero, so the "
             "Stackelberg ratio C(S+T)/C(O) is undefined — check that the "
             "instance has positive demand and non-zero latencies");
}

/// The LLF greedy shared by both shapes: walk `order`, taking up to
/// caps[i] from each item until `target` is spent. The last touched item
/// is recomputed as target minus the compensated sum of every other take,
/// so Σ takes == target to 1 ulp — a running `budget -= take` leaks
/// rounding across many items, and a tiny negative remainder must clamp
/// rather than truncate the final fractional item. When Σ caps falls short
/// of target (the α = 1 case, where Σ o_i ≠ r by accumulated rounding),
/// the last touched item absorbs the gap.
std::vector<double> llf_budget_fill(std::span<const double> caps,
                                    std::span<const std::size_t> order,
                                    double target) {
  std::vector<double> take(caps.size(), 0.0);
  if (!(target > 0.0)) return take;
  double spent = 0.0;
  std::size_t last = caps.size();  // sentinel: nothing touched yet
  for (std::size_t i : order) {
    const double remaining = target - spent;
    if (remaining <= 0.0) break;
    take[i] = std::fmin(std::fmax(caps[i], 0.0), remaining);
    spent += take[i];
    last = i;
  }
  if (last == caps.size()) {
    // Every cap was zero (or the order empty): park the whole budget on
    // the first item in order so the invariant still holds.
    if (!order.empty()) take[order.front()] = target;
    return take;
  }
  KahanSum others;
  for (std::size_t i = 0; i < take.size(); ++i) {
    if (i != last) others.add(take[i]);
  }
  take[last] = std::fmax(0.0, target - others.value());
  return take;
}

/// Items sorted by strictly decreasing key; ties keep the original order
/// (stable), so the fill is a pure function of the inputs.
std::vector<std::size_t> order_by_decreasing(std::span<const double> key) {
  std::vector<std::size_t> order(key.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });
  return order;
}

}  // namespace

// ---- Parallel links ------------------------------------------------------

StackelbergOutcome evaluate_strategy(const ParallelLinks& m,
                                     std::span<const double> strategy) {
  const LinkAssignment opt = solve_optimum(m);
  SolverWorkspace ws;
  return evaluate_strategy(m, strategy, cost(m, opt.flows), 1e-13, ws, kNaN,
                           SolveBudget{});
}

StackelbergOutcome evaluate_strategy(const ParallelLinks& m,
                                     std::span<const double> strategy,
                                     double optimum_cost, double tol,
                                     SolverWorkspace& ws, double level_hint,
                                     const SolveBudget& budget) {
  obs::ScopedCounterDelta tally;
  obs::ScopedSpan span("evaluate_strategy");
  SR_REQUIRE(strategy.size() == m.size(), "strategy size mismatch");
  require_positive_optimum(optimum_cost);
  StackelbergOutcome out;
  out.strategy.assign(strategy.begin(), strategy.end());
  const LinkAssignment induced =
      solve_induced(m, strategy, tol, ws, level_hint, budget);
  out.induced = induced.flows;
  out.induced_level = induced.level;
  out.status = induced.status;
  out.supply_gap = induced.supply_gap;
  out.cost = stackelberg_cost(m, strategy, out.induced);
  out.ratio = out.cost / optimum_cost;
  if (tally.active()) out.counters = tally.current();
  return out;
}

std::vector<double> aloof_strategy(const ParallelLinks& m) {
  return std::vector<double>(m.size(), 0.0);
}

std::vector<double> scale_strategy(const ParallelLinks& m, double alpha) {
  require_alpha(alpha, "SCALE");
  return scale_strategy(m, alpha, solve_optimum(m).flows);
}

std::vector<double> scale_strategy(const ParallelLinks& m, double alpha,
                                   std::span<const double> optimum_flows) {
  require_alpha(alpha, "SCALE");
  SR_REQUIRE(optimum_flows.size() == m.size(),
             "optimum flow vector size mismatch");
  std::vector<double> s(optimum_flows.begin(), optimum_flows.end());
  for (double& v : s) v *= alpha;
  return s;
}

std::vector<double> llf_strategy(const ParallelLinks& m, double alpha) {
  require_alpha(alpha, "LLF");
  return llf_strategy(m, alpha, solve_optimum(m).flows);
}

std::vector<double> llf_strategy(const ParallelLinks& m, double alpha,
                                 std::span<const double> optimum_flows) {
  require_alpha(alpha, "LLF");
  SR_REQUIRE(optimum_flows.size() == m.size(),
             "optimum flow vector size mismatch");
  // Order links by decreasing optimum latency ℓ_i(o_i).
  std::vector<double> opt_latency(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    opt_latency[i] = m.links[i]->value(optimum_flows[i]);
  }
  const std::vector<std::size_t> order = order_by_decreasing(opt_latency);
  const double target = std::fmin(alpha * m.demand, m.demand);
  return llf_budget_fill(optimum_flows, order, target);
}

// ---- General networks ----------------------------------------------------

namespace {

/// Followers' demand of commodity i under `strategy`, clamped at zero.
/// Demands within rounding of fully-controlled count as zero, so the α = 1
/// endpoint never tries to route an ulp of selfish flow.
double follower_demand(const Commodity& c, double controlled) {
  SR_REQUIRE(controlled <= c.demand + 1e-9 * std::fmax(1.0, c.demand),
             "strategy controls more demand than the commodity carries");
  const double rest = c.demand - controlled;
  return rest > 1e-12 * std::fmax(1.0, c.demand) ? rest : 0.0;
}

}  // namespace

NetworkStackelbergOutcome evaluate_strategy(const NetworkInstance& inst,
                                            const NetworkStrategy& strategy,
                                            const EquilibriumRequest& req) {
  SolverWorkspace ws;
  const NetworkAssignment opt = solve_optimum(inst, req, ws);
  return evaluate_strategy(inst, strategy, opt.cost, req, ws, nullptr);
}

NetworkStackelbergOutcome evaluate_strategy(const NetworkInstance& inst,
                                            const NetworkStrategy& strategy,
                                            double optimum_cost,
                                            const EquilibriumRequest& req,
                                            SolverWorkspace& ws,
                                            EquilibriumWarmState* warm) {
  obs::ScopedCounterDelta tally;
  obs::ScopedSpan span("evaluate_strategy");
  const auto ne = static_cast<std::size_t>(inst.graph.num_edges());
  SR_REQUIRE(strategy.preload.size() == ne,
             "strategy preload needs one entry per edge");
  SR_REQUIRE(strategy.controlled.size() == inst.commodities.size(),
             "strategy needs one controlled demand per commodity");
  require_positive_optimum(optimum_cost);

  NetworkStackelbergOutcome out;
  out.strategy = strategy;

  // Followers route what the Leader does not control; fully-controlled
  // commodities drop out of the induced solve entirely (a zero-demand
  // commodity is not a valid solver input).
  NetworkInstance followers;
  followers.commodities.reserve(inst.commodities.size());
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    const double rest =
        follower_demand(inst.commodities[i], strategy.controlled[i]);
    if (rest > 0.0) {
      Commodity c = inst.commodities[i];
      c.demand = rest;
      followers.commodities.push_back(c);
    }
  }

  if (followers.commodities.empty()) {
    // α = 1: the Leader routes everything; there is no follower flow.
    out.induced.assign(ne, 0.0);
    out.cost = cost(inst, strategy.preload);
    if (warm != nullptr) warm->clear();
  } else {
    followers.graph = inst.graph;
    NetworkAssignment induced =
        solve_induced(followers, strategy.preload, req, ws, warm);
    out.converged = induced.converged;
    out.status = induced.status;
    out.cost = induced.cost;
    out.induced = std::move(induced.edge_flow);
  }
  out.ratio = out.cost / optimum_cost;
  if (tally.active()) out.counters = tally.current();
  return out;
}

NetworkStrategy aloof_strategy(const NetworkInstance& inst) {
  NetworkStrategy s;
  s.preload.assign(static_cast<std::size_t>(inst.graph.num_edges()), 0.0);
  s.controlled.assign(inst.commodities.size(), 0.0);
  return s;
}

NetworkStrategy scale_strategy(const NetworkInstance& inst, double alpha) {
  require_alpha(alpha, "SCALE");
  return scale_strategy(inst, alpha, solve_optimum(inst));
}

NetworkStrategy scale_strategy(const NetworkInstance& inst, double alpha,
                               const NetworkAssignment& optimum) {
  require_alpha(alpha, "SCALE");
  SR_REQUIRE(optimum.edge_flow.size() ==
                 static_cast<std::size_t>(inst.graph.num_edges()),
             "optimum edge flow vector size mismatch");
  NetworkStrategy s;
  s.preload = optimum.edge_flow;
  for (double& v : s.preload) v *= alpha;
  s.controlled.reserve(inst.commodities.size());
  for (const Commodity& c : inst.commodities) {
    s.controlled.push_back(std::fmin(alpha * c.demand, c.demand));
  }
  return s;
}

NetworkStrategy llf_strategy(const NetworkInstance& inst, double alpha) {
  require_alpha(alpha, "LLF");
  SolverWorkspace ws;
  EquilibriumWarmState state;
  const NetworkAssignment optimum = solve_optimum(inst, {}, ws, &state);
  return llf_strategy(inst, alpha, optimum, state);
}

NetworkStrategy llf_strategy(const NetworkInstance& inst, double alpha,
                             const NetworkAssignment& optimum,
                             const EquilibriumWarmState& optimum_state) {
  require_alpha(alpha, "LLF");
  const Graph& g = inst.graph;
  const auto ne = static_cast<std::size_t>(g.num_edges());
  SR_REQUIRE(optimum.edge_flow.size() == ne,
             "optimum edge flow vector size mismatch");
  std::vector<std::vector<double>> storage;
  const std::vector<OriginFlow> origins =
      origin_flows(inst, optimum.edge_flow, optimum.commodity_paths,
                   optimum_state, storage);
  SR_REQUIRE(!origins.empty(), "LLF needs the optimum's per-origin flows");

  // Each commodity's paths: its origin's optimum flow decomposed by sink.
  std::vector<std::vector<PathFlow>> commodity_paths(inst.commodities.size());
  std::vector<NodeId> sinks;
  std::vector<double> demands;
  for (const OriginFlow& of : origins) {
    sinks.clear();
    demands.clear();
    for (std::size_t i : of.commodities) {
      sinks.push_back(inst.commodities[i].sink);
      demands.push_back(inst.commodities[i].demand);
    }
    std::vector<std::vector<PathFlow>> paths =
        decompose_origin_flow(g, of.origin, sinks, demands, of.edge_flow);
    for (std::size_t j = 0; j < paths.size(); ++j) {
      commodity_paths[of.commodities[j]] = std::move(paths[j]);
    }
  }

  // Edge latencies at the optimum loads — path latency ℓ(O) is additive.
  std::vector<double> edge_latency(ne);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    edge_latency[static_cast<std::size_t>(e)] = g.edge(e).latency->value(
        optimum.edge_flow[static_cast<std::size_t>(e)]);
  }

  NetworkStrategy s;
  s.preload.assign(ne, 0.0);
  s.controlled.reserve(inst.commodities.size());
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    const auto& paths = commodity_paths[i];
    std::vector<double> caps(paths.size());
    std::vector<double> latency(paths.size());
    for (std::size_t j = 0; j < paths.size(); ++j) {
      caps[j] = paths[j].flow;
      latency[j] = path_cost(edge_latency, paths[j].path);
    }
    const std::vector<std::size_t> order = order_by_decreasing(latency);
    const double r = inst.commodities[i].demand;
    const double target = std::fmin(alpha * r, r);
    const std::vector<double> take = llf_budget_fill(caps, order, target);
    for (std::size_t j = 0; j < paths.size(); ++j) {
      if (take[j] <= 0.0) continue;
      for (EdgeId e : paths[j].path) {
        s.preload[static_cast<std::size_t>(e)] += take[j];
      }
    }
    // The fill's invariant makes Σ take == target to 1 ulp; recording the
    // target itself keeps the followers' demand r − target exact.
    s.controlled.push_back(target);
  }
  return s;
}

}  // namespace stackroute
