#include "stackroute/solver/traffic_assignment.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "stackroute/network/dijkstra.h"
#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/util/error.h"
#include "stackroute/util/fault.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/scalar.h"

namespace stackroute {

namespace {

// Costs of paths `a` and `b` when their flow is perturbed by delta on the
// edges in `delta_mask` (+1: gains delta, -1: loses delta, 0: unchanged).
// The two compensated sums are interleaved: each is a serial dependency
// chain, and the bisection below evaluates this pair ~50 times per
// equalization step, so running the independent chains in parallel roughly
// halves the latency. Per path the arithmetic is exactly the sequential
// KahanSum, so the values are bit-identical.
struct PathCostPair {
  double a = 0.0;
  double b = 0.0;
};

PathCostPair perturbed_path_cost_pair(const LatencyTable& table,
                                      std::span<const double> flow,
                                      std::span<const int> delta_mask,
                                      const Path& a, const Path& b,
                                      double delta, FlowObjective objective) {
  KahanSum sa, sb;
  const std::size_t la = a.size(), lb = b.size();
  const std::size_t l = la > lb ? la : lb;
  for (std::size_t j = 0; j < l; ++j) {
    if (j < la) {
      const auto ei = static_cast<std::size_t>(a[j]);
      const double x = flow[ei] + delta_mask[ei] * delta;
      sa.add(edge_cost_at(table, ei, x, objective));
    }
    if (j < lb) {
      const auto ei = static_cast<std::size_t>(b[j]);
      const double x = flow[ei] + delta_mask[ei] * delta;
      sb.add(edge_cost_at(table, ei, x, objective));
    }
  }
  return {sa.value(), sb.value()};
}

// path_cost over four active paths at once — same interleaving idea as
// above for the worst-path scan, which sums every active path per step.
void path_cost_x4(std::span<const double> costs, const Path& p0,
                  const Path& p1, const Path& p2, const Path& p3,
                  double out[4]) {
  KahanSum s0, s1, s2, s3;
  const std::size_t l0 = p0.size(), l1 = p1.size(), l2 = p2.size(),
                    l3 = p3.size();
  std::size_t l = l0 > l1 ? l0 : l1;
  if (l2 > l) l = l2;
  if (l3 > l) l = l3;
  for (std::size_t j = 0; j < l; ++j) {
    if (j < l0) s0.add(costs[static_cast<std::size_t>(p0[j])]);
    if (j < l1) s1.add(costs[static_cast<std::size_t>(p1[j])]);
    if (j < l2) s2.add(costs[static_cast<std::size_t>(p2[j])]);
    if (j < l3) s3.add(costs[static_cast<std::size_t>(p3[j])]);
  }
  out[0] = s0.value();
  out[1] = s1.value();
  out[2] = s2.value();
  out[3] = s3.value();
}

// FNV-1a over the edge ids: a cheap fingerprint so the per-step "is the
// shortest path already active?" test compares 8 bytes instead of whole
// edge vectors (equal hashes still confirm with a full compare, so the
// selection is exactly the vector-equality semantics).
std::uint64_t path_fingerprint(const Path& p) {
  std::uint64_t h = 1469598103934665603ull;
  for (EdgeId e : p) {
    h ^= static_cast<std::uint32_t>(e);
    h *= 1099511628211ull;
  }
  return h;
}

struct CommodityState {
  std::vector<PathFlow> active;          // paths currently carrying flow
  std::vector<std::uint64_t> fingerprint;  // path_fingerprint of each
};

// Refresh the maintained cost entries of every edge on `path` from the
// current flow — the incremental counterpart of recomputing all m costs.
// One fault-injection event per call, and every refreshed entry is checked
// finite: a NaN that slipped into the maintained costs would otherwise
// poison the next Dijkstra silently (NaN relaxations all compare false).
// Throws NumericError so assign_traffic can degrade to best-so-far.
void refresh_costs(const LatencyTable& table, std::span<const double> flow,
                   FlowObjective objective, const Path& path,
                   std::vector<double>& costs) {
  for (EdgeId e : path) {
    const auto ei = static_cast<std::size_t>(e);
    costs[ei] = edge_cost_at(table, ei, flow[ei], objective);
  }
  if (fault::armed()) {
    double bad;
    if (fault::next_eval_faulted(bad) && !path.empty()) {
      costs[static_cast<std::size_t>(path.front())] = bad;
    }
  }
  for (EdgeId e : path) {
    SR_REQUIRE_FINITE(costs[static_cast<std::size_t>(e)],
                      "refresh_costs: non-finite edge cost");
  }
}

// Full-table finiteness check, run once after the seeding batch cost
// evaluation — the batched edge_costs seam can inject there too, and the
// first Dijkstra must not run on corrupt costs.
void require_finite_costs(std::span<const double> costs) {
  for (double c : costs) {
    SR_REQUIRE_FINITE(c, "assign_traffic: non-finite edge cost");
  }
}

// One equalization step for a commodity: move flow from its costliest
// active path onto the globally cheapest path. Returns the cost spread
// (max active cost − min cost) before the move. `costs` is maintained
// incrementally: it must equal the per-edge cost of `flow` on entry, and
// does again on exit — only the edges on the two moved-flow paths change,
// so only those are recomputed (the full recompute this replaces was O(m)
// per step).
double equalize_once(const Graph& g, const Commodity& com,
                     const LatencyTable& table, std::vector<double>& flow,
                     std::vector<double>& costs, CommodityState& state,
                     FlowObjective objective, double tol,
                     SolverWorkspace& ws) {
  const ShortestPathTree& tree = dijkstra(g, com.source, costs, ws.dijkstra);
  count_dijkstra(ws.dijkstra);
  Path& shortest = ws.path_scratch;
  extract_path_into(g, tree, com.sink, shortest);
  const double best_cost = path_cost(costs, shortest);
  SR_REQUIRE_FINITE(best_cost, "equalize_once: non-finite shortest-path cost");
  const std::uint64_t shortest_fp = path_fingerprint(shortest);

  // Locate (or insert) the shortest path in the active set, and find the
  // costliest active path. Costs are summed four paths at a time (see
  // path_cost_x4); the max/equality bookkeeping runs in index order, so
  // the selected paths match a sequential scan exactly.
  std::size_t best_idx = state.active.size();
  std::size_t worst_idx = state.active.size();
  double worst_cost = -kInf;
  const std::size_t n_active = state.active.size();
  const auto consider = [&](std::size_t i, double c) {
    if (state.fingerprint[i] == shortest_fp &&
        state.active[i].path == shortest) {
      best_idx = i;
    }
    if (state.active[i].flow > 0.0 && c > worst_cost) {
      worst_cost = c;
      worst_idx = i;
    }
  };
  std::size_t i = 0;
  for (; i + 4 <= n_active; i += 4) {
    double c[4];
    path_cost_x4(costs, state.active[i].path, state.active[i + 1].path,
                 state.active[i + 2].path, state.active[i + 3].path, c);
    consider(i, c[0]);
    consider(i + 1, c[1]);
    consider(i + 2, c[2]);
    consider(i + 3, c[3]);
  }
  for (; i < n_active; ++i) {
    consider(i, path_cost(costs, state.active[i].path));
  }
  SR_ASSERT(worst_idx < state.active.size(),
            "commodity lost all of its flow");
  if (worst_cost - best_cost <= tol) return worst_cost - best_cost;

  if (best_idx == state.active.size()) {
    state.active.push_back(PathFlow{shortest, 0.0});
    state.fingerprint.push_back(shortest_fp);
    best_idx = state.active.size() - 1;
  }
  PathFlow& from = state.active[worst_idx];
  PathFlow& to = state.active[best_idx];

  // Delta mask: edges only on `from` lose flow, edges only on `to` gain.
  // ws.delta_mask is all-zero at rest; set it here, clear it before
  // returning so the next step sees zeros without an O(m) wipe.
  if (ws.delta_mask.size() < static_cast<std::size_t>(g.num_edges())) {
    ws.delta_mask.assign(static_cast<std::size_t>(g.num_edges()), 0);
  }
  std::vector<int>& mask = ws.delta_mask;
  for (EdgeId e : from.path) mask[static_cast<std::size_t>(e)] -= 1;
  for (EdgeId e : to.path) mask[static_cast<std::size_t>(e)] += 1;

  // g(delta) = cost(to) − cost(from) after shifting delta; increasing in
  // delta. Move either to the equalization point or everything.
  std::uint64_t evals = 0;
  auto gap = [&](double delta) {
    ++evals;
    const PathCostPair c = perturbed_path_cost_pair(table, flow, mask,
                                                    to.path, from.path, delta,
                                                    objective);
    return c.a - c.b;
  };
  const double full = from.flow;
  double delta = full;
  if (gap(full) > 0.0) {
    delta = bisect_increasing(gap, 0.0, full, 1e-15 * std::fmax(1.0, full),
                              100);
  }
  obs::count(&obs::SolveCounters::equalization_evals, evals);
  // Apply the shift.
  for (EdgeId e : from.path) flow[static_cast<std::size_t>(e)] -= delta;
  for (EdgeId e : to.path) flow[static_cast<std::size_t>(e)] += delta;
  from.flow -= delta;
  to.flow += delta;
  bool drop_from = false;
  if (from.flow <= 1e-15 * std::fmax(1.0, com.demand)) {
    // Fold the dust into the receiving path and drop the empty one.
    for (EdgeId e : from.path) flow[static_cast<std::size_t>(e)] -= from.flow;
    for (EdgeId e : to.path) flow[static_cast<std::size_t>(e)] += from.flow;
    to.flow += from.flow;
    drop_from = true;
  }
  // Restore the rest-state invariants: mask back to zero, costs refreshed
  // on exactly the touched edges.
  for (EdgeId e : from.path) mask[static_cast<std::size_t>(e)] = 0;
  for (EdgeId e : to.path) mask[static_cast<std::size_t>(e)] = 0;
  refresh_costs(table, flow, objective, from.path, costs);
  refresh_costs(table, flow, objective, to.path, costs);
  if (drop_from) {
    state.active.erase(state.active.begin() +
                       static_cast<std::ptrdiff_t>(worst_idx));
    state.fingerprint.erase(state.fingerprint.begin() +
                            static_cast<std::ptrdiff_t>(worst_idx));
  }
  return worst_cost - best_cost;
}

}  // namespace

AssignmentResult assign_traffic(const NetworkInstance& inst,
                                FlowObjective objective,
                                std::span<const double> preload,
                                const AssignmentOptions& opts) {
  SolverWorkspace ws;
  return assign_traffic(inst, objective, preload, opts, ws);
}

// Publishes its work counters into whatever sink the caller installed. A
// NumericError anywhere in the seed or the sweeps degrades to best-so-far
// instead of escaping.
AssignmentResult assign_traffic(const NetworkInstance& inst,
                                FlowObjective objective,
                                std::span<const double> preload,
                                const AssignmentOptions& opts,
                                SolverWorkspace& ws) {
  obs::ScopedCounterDelta tally;
  obs::ScopedSpan span("assign_traffic");
  inst.validate();
  const std::vector<LatencyPtr> lat =
      effective_latencies(inst.graph, preload);
  ws.table.ensure_compiled(lat);
  BudgetGate gate(opts.budget);

  const Graph& g = inst.graph;
  const LatencyTable& table = ws.table;
  const auto ne = static_cast<std::size_t>(g.num_edges());
  const std::size_t k = inst.commodities.size();

  AssignmentResult result;
  result.edge_flow.assign(ne, 0.0);
  std::vector<CommodityState> states(k);
  ws.costs.resize(ne);
  result.status = SolveStatus::kIterLimit;  // until proven otherwise
  result.spread = kInf;

  try {
    // All-or-nothing at current costs, commodity by commodity so later
    // commodities see earlier ones' flow.
    edge_costs(table, result.edge_flow, objective, ws.costs);
    require_finite_costs(ws.costs);
    for (std::size_t i = 0; i < k; ++i) {
      const Commodity& com = inst.commodities[i];
      const ShortestPathTree& tree =
          dijkstra(g, com.source, ws.costs, ws.dijkstra);
      count_dijkstra(ws.dijkstra);
      Path& p = ws.path_scratch;
      extract_path_into(g, tree, com.sink, p);
      for (EdgeId e : p) {
        result.edge_flow[static_cast<std::size_t>(e)] += com.demand;
      }
      refresh_costs(table, result.edge_flow, objective, p, ws.costs);
      states[i].active.push_back(PathFlow{p, com.demand});
      states[i].fingerprint.push_back(path_fingerprint(p));
    }

    const bool tracing = obs::convergence() != nullptr;
    bool out_of_budget = false;
    for (int sweep = 1; sweep <= opts.max_sweeps && !out_of_budget; ++sweep) {
      obs::ScopedSpan sweep_span("equalize_sweep");
      double spread = 0.0;
      for (std::size_t i = 0; i < k && !out_of_budget; ++i) {
        for (int inner = 0; inner < opts.max_inner; ++inner) {
          // Each equalization step is one Dijkstra plus one bisected pair
          // move — the natural granularity for the cooperative budget.
          if (gate.over_iters(result.steps)) {
            result.status = SolveStatus::kIterLimit;
            out_of_budget = true;
            break;
          }
          if (gate.expired()) {
            result.status = SolveStatus::kDeadlineExceeded;
            out_of_budget = true;
            break;
          }
          const double s =
              equalize_once(g, inst.commodities[i], table, result.edge_flow,
                            ws.costs, states[i], objective, opts.tol, ws);
          ++result.steps;
          if (inner == 0) spread = std::fmax(spread, s);
          if (s <= opts.tol) break;
        }
      }
      if (out_of_budget) break;
      result.sweeps = sweep;
      result.spread = spread;
      if (tracing) {
        // One sample per outer sweep: the spread plays the role of the
        // relative gap, the step count so far is the "step", and the
        // objective is recomputed (read-only; only when tracing).
        obs::record_convergence(
            sweep, spread, static_cast<double>(result.steps),
            objective_value(table, result.edge_flow, objective));
      }
      if (spread <= opts.tol) {
        result.status = SolveStatus::kConverged;
        break;
      }
    }
  } catch (const NumericError&) {
    result.status = SolveStatus::kNumericFailure;
  }
  result.converged = solve_ok(result.status);

  result.commodity_paths.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    // Drop zero-flow actives from the report.
    for (auto& pf : states[i].active) {
      if (pf.flow > 0.0) result.commodity_paths[i].push_back(std::move(pf));
    }
  }
  // Rebuild edge flows from the path decomposition: removes the tiny drift
  // the incremental updates accumulate and guarantees the two views agree.
  std::fill(result.edge_flow.begin(), result.edge_flow.end(), 0.0);
  for (const auto& paths : result.commodity_paths) {
    for (const PathFlow& pf : paths) {
      for (EdgeId e : pf.path) {
        result.edge_flow[static_cast<std::size_t>(e)] += pf.flow;
      }
    }
  }
  result.objective = objective_value(table, result.edge_flow, objective);
  obs::count(&obs::SolveCounters::equalization_steps,
             static_cast<std::uint64_t>(result.steps));
  obs::count(&obs::SolveCounters::gap_checks,
             static_cast<std::uint64_t>(result.sweeps));
  if (tally.active()) result.counters = tally.current();
  return result;
}

}  // namespace stackroute
