#include "stackroute/solver/bush.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stackroute/network/dijkstra.h"
#include "stackroute/obs/trace.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

namespace {

// Relative slack for adding an improving edge / attempting a shift. Both
// sit far below the default rel_gap_tol (1e-10) so the gap can actually
// close, and far above ulp noise so the bush does not churn on ties.
constexpr double kAddEps = 1e-12;
constexpr double kShiftEps = 1e-14;

/// Commodities sharing a source, solved as one bush.
struct OriginGroup {
  NodeId origin = kInvalidNode;
  std::vector<std::size_t> commodities;  // indices, in commodity order
};

std::vector<OriginGroup> group_by_origin(const NetworkInstance& inst) {
  const std::size_t k = inst.commodities.size();
  std::vector<std::pair<NodeId, std::size_t>> keyed(k);
  for (std::size_t i = 0; i < k; ++i) {
    keyed[i] = {inst.commodities[i].source, i};
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<OriginGroup> groups;
  for (const auto& [origin, idx] : keyed) {
    if (groups.empty() || groups.back().origin != origin) {
      groups.push_back(OriginGroup{origin, {}});
    }
    groups.back().commodities.push_back(idx);
  }
  return groups;
}

/// The Newton denominator's per-edge slope: d/dx of the equilibration cost.
/// Beckmann equilibrates ℓ (slope ℓ'); total cost equilibrates the marginal
/// ℓ + x·ℓ', whose slope is 2ℓ' + x·ℓ''. The table has no second
/// derivative, so the x·ℓ'' term comes from a forward difference of ℓ' —
/// without it the denominator is (p+1)/2 times too small on degree-p
/// polynomial latencies and Newton overshoots instead of converging.
double cost_slope(const LatencyTable& table, std::size_t e, double x,
                  FlowObjective objective) {
  const double d = table.derivative(e, x);
  if (objective == FlowObjective::kBeckmann) return d;
  const double h = 1e-6 * (1.0 + x);
  const double curv = (table.derivative(e, x + h) - d) / h;
  return 2.0 * d + (curv > 0.0 && std::isfinite(curv) ? x * curv : 0.0);
}

/// Fills b.order/in_bush/flow for a cold start: topological order by
/// (dist, tree depth, id) over the nodes reachable from the origin — the
/// shortest-path tree always goes forward in that order, so the bush (all
/// forward edges) contains it — then all-or-nothing demand on tree paths.
/// Runs on ws.costs, with ws.dijkstra and ws.bush's depth/pos/chain as
/// scratch.
void build_initial_bush(const Graph& g, const NetworkInstance& inst,
                        const OriginGroup& group, SolverWorkspace& ws,
                        OriginBush& b) {
  std::vector<std::int32_t>& depth = ws.bush.depth;
  std::vector<std::int32_t>& pos = ws.bush.pos;
  std::vector<NodeId>& chain = ws.bush.chain;

  const auto nv = static_cast<std::size_t>(g.num_nodes());
  const auto ne = static_cast<std::size_t>(g.num_edges());
  const ShortestPathTree& tree =
      dijkstra(g, group.origin, ws.costs, ws.dijkstra);
  count_dijkstra(ws.dijkstra);

  depth.assign(nv, -1);
  depth[static_cast<std::size_t>(group.origin)] = 0;
  for (std::size_t v = 0; v < nv; ++v) {
    if (depth[v] >= 0 || !std::isfinite(tree.dist[v])) continue;
    chain.clear();
    NodeId u = static_cast<NodeId>(v);
    while (depth[static_cast<std::size_t>(u)] < 0) {
      chain.push_back(u);
      const EdgeId pe = tree.parent_edge[static_cast<std::size_t>(u)];
      if (pe == kInvalidEdge) break;  // unreachable fragment; stays -1
      u = g.edge(pe).tail;
    }
    std::int32_t d = depth[static_cast<std::size_t>(u)];
    if (d < 0) continue;
    for (std::size_t j = chain.size(); j-- > 0;) {
      depth[static_cast<std::size_t>(chain[j])] = ++d;
    }
  }

  b.origin = group.origin;
  b.order.clear();
  for (std::size_t v = 0; v < nv; ++v) {
    if (std::isfinite(tree.dist[v]) && depth[v] >= 0) {
      b.order.push_back(static_cast<NodeId>(v));
    }
  }
  std::sort(b.order.begin(), b.order.end(), [&](NodeId a, NodeId c) {
    const auto ia = static_cast<std::size_t>(a);
    const auto ic = static_cast<std::size_t>(c);
    if (tree.dist[ia] != tree.dist[ic]) return tree.dist[ia] < tree.dist[ic];
    if (depth[ia] != depth[ic]) return depth[ia] < depth[ic];
    return a < c;
  });

  pos.assign(nv, -1);
  for (std::size_t i = 0; i < b.order.size(); ++i) {
    pos[static_cast<std::size_t>(b.order[i])] = static_cast<std::int32_t>(i);
  }
  b.in_bush.assign(ne, 0);
  for (std::size_t e = 0; e < ne; ++e) {
    const Edge& ed = g.edge(static_cast<EdgeId>(e));
    const std::int32_t pt = pos[static_cast<std::size_t>(ed.tail)];
    const std::int32_t ph = pos[static_cast<std::size_t>(ed.head)];
    if (pt >= 0 && ph >= 0 && pt < ph) b.in_bush[e] = 1;
  }

  b.flow.assign(ne, 0.0);
  for (std::size_t ci : group.commodities) {
    const Commodity& com = inst.commodities[ci];
    NodeId v = com.sink;
    while (v != group.origin) {
      const EdgeId pe = tree.parent_edge[static_cast<std::size_t>(v)];
      SR_REQUIRE(pe != kInvalidEdge, "bush init: commodity sink unreachable");
      b.flow[static_cast<std::size_t>(pe)] += com.demand;
      v = g.edge(pe).tail;
    }
  }
}

/// Min/max path labels over the bush, in topological order. The max tree
/// is restricted to flow-carrying edges (the paths flow can be shifted
/// off). Labels are only written for nodes in b.order, so the shared
/// nv-sized scratch needs no full clear between origins.
void compute_trees(const Graph& g, const OriginBush& b, BushWorkspace& bw,
                   std::span<const double> costs, bool want_max) {
  const CsrAdjacency& in = g.in_csr();
  for (NodeId v : b.order) {
    const auto vi = static_cast<std::size_t>(v);
    bw.dmin[vi] = kInf;
    bw.dmax[vi] = -kInf;
    bw.pmin[vi] = kInvalidEdge;
    bw.pmax[vi] = kInvalidEdge;
  }
  const auto oi = static_cast<std::size_t>(b.origin);
  bw.dmin[oi] = 0.0;
  bw.dmax[oi] = 0.0;
  for (NodeId v : b.order) {
    const auto vi = static_cast<std::size_t>(v);
    for (const CsrAdjacency::Arc& arc : in.arcs_of(v)) {
      const auto e = static_cast<std::size_t>(arc.edge);
      if (!b.in_bush[e]) continue;
      const auto ui = static_cast<std::size_t>(arc.target);  // tail
      const double c = costs[e];
      if (bw.dmin[ui] < kInf && bw.dmin[ui] + c < bw.dmin[vi]) {
        bw.dmin[vi] = bw.dmin[ui] + c;
        bw.pmin[vi] = arc.edge;
      }
      if (want_max && b.flow[e] > 0.0 && bw.dmax[ui] > -kInf &&
          bw.dmax[ui] + c > bw.dmax[vi]) {
        bw.dmax[vi] = bw.dmax[ui] + c;
        bw.pmax[vi] = arc.edge;
      }
    }
  }
}

/// Recomputes b.order (and bw.pos) with Kahn's algorithm over the current
/// edge set. Returns false — leaving b.order/bw.pos untouched — when a
/// cycle is found, which the caller handles by reverting its additions.
bool kahn_reorder(const Graph& g, OriginBush& b, BushWorkspace& bw) {
  const auto nv = static_cast<std::size_t>(g.num_nodes());
  const auto ne = static_cast<std::size_t>(g.num_edges());
  const CsrAdjacency& out = g.out_csr();

  bw.indeg.assign(nv, -1);  // -1 = not incident to the bush
  bw.indeg[static_cast<std::size_t>(b.origin)] = 0;
  for (std::size_t e = 0; e < ne; ++e) {
    if (!b.in_bush[e]) continue;
    const Edge& ed = g.edge(static_cast<EdgeId>(e));
    const auto ti = static_cast<std::size_t>(ed.tail);
    const auto hi = static_cast<std::size_t>(ed.head);
    if (bw.indeg[ti] < 0) bw.indeg[ti] = 0;
    if (bw.indeg[hi] < 0) bw.indeg[hi] = 0;
  }
  std::size_t members = 0;
  bw.queue.clear();
  for (std::size_t v = 0; v < nv; ++v) {
    if (bw.indeg[v] >= 0) ++members;
  }
  for (std::size_t e = 0; e < ne; ++e) {
    if (b.in_bush[e]) {
      ++bw.indeg[static_cast<std::size_t>(g.edge(static_cast<EdgeId>(e)).head)];
    }
  }
  for (std::size_t v = 0; v < nv; ++v) {
    if (bw.indeg[v] == 0) bw.queue.push_back(static_cast<NodeId>(v));
  }

  bw.chain.clear();  // reused as the output order
  for (std::size_t head = 0; head < bw.queue.size(); ++head) {
    const NodeId v = bw.queue[head];
    bw.chain.push_back(v);
    for (const CsrAdjacency::Arc& arc : out.arcs_of(v)) {
      if (!b.in_bush[static_cast<std::size_t>(arc.edge)]) continue;
      if (--bw.indeg[static_cast<std::size_t>(arc.target)] == 0) {
        bw.queue.push_back(arc.target);
      }
    }
  }
  if (bw.chain.size() != members) return false;  // cycle

  b.order.assign(bw.chain.begin(), bw.chain.end());
  for (std::size_t v = 0; v < nv; ++v) bw.pos[v] = -1;
  for (std::size_t i = 0; i < b.order.size(); ++i) {
    bw.pos[static_cast<std::size_t>(b.order[i])] = static_cast<std::int32_t>(i);
  }
  return true;
}

/// One bush-improvement pass: drop zero-flow edges (never the min-tree
/// edge or a node's last in-edge, so every reachable node keeps a path
/// from the origin), add strictly cost-improving edges, and re-sort.
/// Returns true when the edge set changed.
bool improve_bush(const Graph& g, OriginBush& b, BushWorkspace& bw,
                  std::span<const double> costs) {
  const auto ne = static_cast<std::size_t>(g.num_edges());
  compute_trees(g, b, bw, costs, /*want_max=*/false);

  for (NodeId v : b.order) bw.indeg[static_cast<std::size_t>(v)] = 0;
  for (std::size_t e = 0; e < ne; ++e) {
    if (b.in_bush[e]) {
      ++bw.indeg[static_cast<std::size_t>(g.edge(static_cast<EdgeId>(e)).head)];
    }
  }

  bool dropped = false;
  for (std::size_t e = 0; e < ne; ++e) {
    if (!b.in_bush[e] || b.flow[e] != 0.0) continue;
    const auto hi = static_cast<std::size_t>(g.edge(static_cast<EdgeId>(e)).head);
    if (bw.indeg[hi] <= 1 || bw.pmin[hi] == static_cast<EdgeId>(e)) continue;
    b.in_bush[e] = 0;
    --bw.indeg[hi];
    dropped = true;
  }

  bw.seg_min.clear();  // reused as the list of added edges
  for (std::size_t e = 0; e < ne; ++e) {
    if (b.in_bush[e]) continue;
    const Edge& ed = g.edge(static_cast<EdgeId>(e));
    const auto ti = static_cast<std::size_t>(ed.tail);
    const auto hi = static_cast<std::size_t>(ed.head);
    if (bw.pos[ti] < 0 || bw.pos[hi] < 0) continue;
    const double slack = kAddEps * (1.0 + std::fabs(bw.dmin[hi]));
    if (bw.dmin[ti] + costs[e] < bw.dmin[hi] - slack) {
      b.in_bush[e] = 1;
      bw.seg_min.push_back(static_cast<EdgeId>(e));
    }
  }

  if (bw.seg_min.empty()) return dropped;  // drops keep the old order valid
  if (!kahn_reorder(g, b, bw)) {
    // A cycle can only come from the additions (drops are monotone): back
    // them out and try again next outer iteration at evolved costs.
    for (EdgeId e : bw.seg_min) b.in_bush[static_cast<std::size_t>(e)] = 0;
    return dropped;
  }
  return true;
}

/// One equilibration pass: rebuild min/max trees, then walk the nodes in
/// reverse topological order and apply one Newton shift wherever the max
/// used path costs measurably more than the min path. Touched edge costs
/// are re-evaluated immediately. Returns true when any flow moved.
bool equilibrate_pass(const Graph& g, const LatencyTable& table,
                      FlowObjective objective, OriginBush& b,
                      BushWorkspace& bw, std::span<double> costs,
                      std::uint64_t& shifts) {
  compute_trees(g, b, bw, costs, /*want_max=*/true);
  bool moved = false;
  for (std::size_t idx = b.order.size(); idx-- > 0;) {
    const NodeId v = b.order[idx];
    const auto vi = static_cast<std::size_t>(v);
    if (v == b.origin) continue;
    const EdgeId pmax = bw.pmax[vi];
    if (pmax == kInvalidEdge || pmax == bw.pmin[vi]) continue;
    const double slack = kShiftEps * (1.0 + std::fabs(bw.dmin[vi]));
    if (!(bw.dmax[vi] - bw.dmin[vi] > slack)) continue;

    // Segments from the divergence node down to v: seed both walkers one
    // edge above v (they start equal there), then step back whichever sits
    // later in topological order until they meet.
    bw.seg_max.clear();
    bw.seg_min.clear();
    bw.seg_max.push_back(pmax);
    bw.seg_min.push_back(bw.pmin[vi]);
    NodeId a = g.edge(pmax).tail;
    NodeId c = g.edge(bw.pmin[vi]).tail;
    bool ok = true;
    while (a != c) {
      if (bw.pos[static_cast<std::size_t>(a)] >
          bw.pos[static_cast<std::size_t>(c)]) {
        const EdgeId e = bw.pmax[static_cast<std::size_t>(a)];
        if (e == kInvalidEdge) {
          ok = false;
          break;
        }
        bw.seg_max.push_back(e);
        a = g.edge(e).tail;
      } else {
        const EdgeId e = bw.pmin[static_cast<std::size_t>(c)];
        if (e == kInvalidEdge) {
          ok = false;
          break;
        }
        bw.seg_min.push_back(e);
        c = g.edge(e).tail;
      }
    }
    if (!ok) continue;

    double num = 0.0;
    double den = 0.0;
    double min_flow = kInf;
    for (EdgeId eid : bw.seg_max) {
      const auto e = static_cast<std::size_t>(eid);
      num += costs[e];
      den += cost_slope(table, e, bw.total_flow[e], objective);
      min_flow = std::fmin(min_flow, b.flow[e]);
    }
    for (EdgeId eid : bw.seg_min) {
      const auto e = static_cast<std::size_t>(eid);
      num -= costs[e];
      den += cost_slope(table, e, bw.total_flow[e], objective);
    }
    if (!(num > slack) || !(min_flow > 0.0)) continue;
    double delta = den > 0.0 && std::isfinite(den) ? num / den : min_flow;
    delta = std::fmin(delta, min_flow);
    if (!(delta > 0.0)) continue;

    for (EdgeId eid : bw.seg_max) {
      const auto e = static_cast<std::size_t>(eid);
      b.flow[e] -= delta;  // delta == flow zeroes the edge exactly
      if (b.flow[e] < 0.0) b.flow[e] = 0.0;
      bw.total_flow[e] -= delta;
      if (bw.total_flow[e] < 0.0) bw.total_flow[e] = 0.0;
      costs[e] = edge_cost_at(table, e, bw.total_flow[e], objective);
    }
    for (EdgeId eid : bw.seg_min) {
      const auto e = static_cast<std::size_t>(eid);
      b.flow[e] += delta;
      bw.total_flow[e] += delta;
      costs[e] = edge_cost_at(table, e, bw.total_flow[e], objective);
    }
    ++shifts;
    moved = true;
  }
  return moved;
}

/// Structural fit of a warm payload, and the proportional demand ratio.
/// Everything checkable without the old graph is checked; graph identity
/// is the caller's precondition (see BushWarmState).
bool warm_usable(const NetworkInstance& inst,
                 const std::vector<OriginGroup>& groups,
                 const BushWarmState& warm, double& ratio) {
  if (warm.empty()) return false;
  const std::size_t k = inst.commodities.size();
  if (warm.commodities.size() != k || warm.bushes.size() != groups.size()) {
    return false;
  }
  double warm_total = 0.0;
  for (const Commodity& com : warm.commodities) {
    if (!(com.demand > 0.0)) return false;
    warm_total += com.demand;
  }
  ratio = inst.total_demand() / warm_total;
  if (!(ratio > 0.0) || !std::isfinite(ratio)) return false;
  for (std::size_t i = 0; i < k; ++i) {
    const Commodity& now = inst.commodities[i];
    const Commodity& then = warm.commodities[i];
    if (now.source != then.source || now.sink != then.sink) return false;
    if (std::fabs(now.demand - then.demand * ratio) >
        1e-12 * std::fmax(1.0, std::fabs(now.demand))) {
      return false;
    }
  }
  const auto ne = static_cast<std::size_t>(inst.graph.num_edges());
  const auto nv = static_cast<std::size_t>(inst.graph.num_nodes());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const OriginBush& b = warm.bushes[i];
    if (b.origin != groups[i].origin) return false;
    if (b.in_bush.size() != ne || b.flow.size() != ne) return false;
    if (b.order.empty() || b.order.size() > nv) return false;
  }
  return true;
}

/// Verifies a warm bush's edge set against its stored order under the
/// current graph (pos[tail] < pos[head] for every bush edge, flow only on
/// bush edges) — the acyclicity certificate that makes a stale payload
/// fall back instead of corrupting the solve.
bool warm_bush_consistent(const Graph& g, const OriginBush& b,
                          BushWorkspace& bw) {
  const auto nv = static_cast<std::size_t>(g.num_nodes());
  for (std::size_t v = 0; v < nv; ++v) bw.pos[v] = -1;
  for (std::size_t i = 0; i < b.order.size(); ++i) {
    const auto v = static_cast<std::size_t>(b.order[i]);
    if (v >= nv || bw.pos[v] >= 0) return false;  // out of range / repeat
    bw.pos[v] = static_cast<std::int32_t>(i);
  }
  if (bw.pos[static_cast<std::size_t>(b.origin)] < 0) return false;
  for (std::size_t e = 0; e < b.in_bush.size(); ++e) {
    if (!b.in_bush[e]) {
      if (b.flow[e] != 0.0) return false;
      continue;
    }
    if (!(b.flow[e] >= 0.0)) return false;
    const Edge& ed = g.edge(static_cast<EdgeId>(e));
    const std::int32_t pt = bw.pos[static_cast<std::size_t>(ed.tail)];
    const std::int32_t ph = bw.pos[static_cast<std::size_t>(ed.head)];
    if (pt < 0 || ph < 0 || pt >= ph) return false;
  }
  return true;
}

/// One bush run (seed + iterate). Publishes its work counters into
/// whatever sink/delta the caller installed; the public entry point owns
/// the per-solve delta and the warm-fallback rerun.
BushResult bush_run(const NetworkInstance& inst, FlowObjective objective,
                    const BushOptions& opts, BudgetGate& gate,
                    SolverWorkspace& ws, const BushWarmState* warm,
                    bool& used_warm) {
  BushWorkspace& bw = ws.bush;
  const Graph& g = inst.graph;
  const auto ne = static_cast<std::size_t>(g.num_edges());
  const auto nv = static_cast<std::size_t>(g.num_nodes());
  const std::size_t k = inst.commodities.size();
  const LatencyTable& table = ws.table;
  const bool tracing = obs::convergence() != nullptr;

  const std::vector<OriginGroup> groups = group_by_origin(inst);
  const std::size_t ng = groups.size();

  bw.pos.resize(nv);
  bw.dmin.resize(nv);
  bw.dmax.resize(nv);
  bw.pmin.resize(nv);
  bw.pmax.resize(nv);
  bw.indeg.resize(nv);
  bw.total_flow.resize(ne);
  ws.costs.resize(ne);
  ws.dists.assign(k, 0.0);

  BushResult result;
  used_warm = false;
  double ratio = 0.0;
  if (warm != nullptr && !warm->empty()) {
    obs::count(&obs::SolveCounters::warm_attempts);
    if (warm_usable(inst, groups, *warm, ratio)) {
      used_warm = true;
      bw.state.resize(ng);
      for (std::size_t i = 0; i < ng; ++i) {
        if (!warm_bush_consistent(g, warm->bushes[i], bw)) {
          used_warm = false;
          break;
        }
        bw.state[i] = warm->bushes[i];
        for (double& f : bw.state[i].flow) f *= ratio;
      }
      if (used_warm) obs::count(&obs::SolveCounters::warm_hits);
    }
  }
  if (!used_warm) {
    // Cold start: shortest-path bushes + all-or-nothing at empty-network
    // costs.
    std::fill(bw.total_flow.begin(), bw.total_flow.end(), 0.0);
    edge_costs(table, bw.total_flow, objective, ws.costs);
    bw.state.assign(ng, OriginBush{});
    for (std::size_t i = 0; i < ng; ++i) {
      build_initial_bush(g, inst, groups[i], ws, bw.state[i]);
    }
  }

  std::uint64_t shifts = 0;
  std::uint64_t rebuilds = 0;
  result.rel_gap = kInf;
  result.status = SolveStatus::kIterLimit;  // until proven otherwise
  double best_gap = kInf;
  int since_improved = 0;

  for (int iter = 1; iter <= opts.max_iters; ++iter) {
    if (gate.over_iters(iter - 1)) break;  // budget cap below opts.max_iters
    if (gate.expired()) {
      result.status = SolveStatus::kDeadlineExceeded;
      break;
    }
    result.iterations = iter;

    // Re-sum total flow from the per-origin shares in origin order: the
    // shift loop updates it incrementally, and this deterministic resum
    // stops fp drift from accumulating across iterations.
    std::fill(bw.total_flow.begin(), bw.total_flow.end(), 0.0);
    for (const OriginBush& b : bw.state) {
      for (std::size_t e = 0; e < ne; ++e) bw.total_flow[e] += b.flow[e];
    }
    edge_costs(table, bw.total_flow, objective, ws.costs);

    double cf = 0.0;
    for (std::size_t e = 0; e < ne; ++e) {
      cf += ws.costs[e] * bw.total_flow[e];
    }
    if (!std::isfinite(cf)) {
      result.status = SolveStatus::kNumericFailure;
      break;
    }

    // SPTT: one full-graph Dijkstra per origin; the per-commodity
    // distances are reduced in commodity order below.
    for (const OriginGroup& group : groups) {
      const ShortestPathTree& tree =
          dijkstra(g, group.origin, ws.costs, ws.dijkstra);
      count_dijkstra(ws.dijkstra);
      for (std::size_t ci : group.commodities) {
        ws.dists[ci] =
            tree.dist[static_cast<std::size_t>(inst.commodities[ci].sink)];
      }
    }
    double sptt = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      sptt += inst.commodities[i].demand * ws.dists[i];
    }

    result.rel_gap = (cf - sptt) / std::fmax(std::fabs(cf), 1e-300);
    if (!std::isfinite(result.rel_gap)) {
      result.status = SolveStatus::kNumericFailure;
      break;
    }
    if (opts.budget.stall_window > 0) {
      if (result.rel_gap < best_gap) {
        best_gap = result.rel_gap;
        since_improved = 0;
      } else if (++since_improved >= opts.budget.stall_window) {
        result.status = SolveStatus::kStalled;
        break;
      }
    }
    if (result.rel_gap <= opts.rel_gap_tol) {
      result.status = SolveStatus::kConverged;
      if (tracing) {
        obs::record_convergence(
            iter, result.rel_gap, 0.0,
            objective_value(table, bw.total_flow, objective));
      }
      break;
    }

    // Improve + equilibrate, strictly sequential in origin order — the
    // determinism contract's load-bearing wall.
    for (std::size_t gi = 0; gi < ng; ++gi) {
      OriginBush& b = bw.state[gi];
      for (std::size_t v = 0; v < nv; ++v) bw.pos[v] = -1;
      for (std::size_t i = 0; i < b.order.size(); ++i) {
        bw.pos[static_cast<std::size_t>(b.order[i])] =
            static_cast<std::int32_t>(i);
      }
      if (improve_bush(g, b, bw, ws.costs)) ++rebuilds;
      for (int pass = 0; pass < opts.max_inner; ++pass) {
        if (!equilibrate_pass(g, table, objective, b, bw, ws.costs, shifts)) {
          break;
        }
      }
    }
    if (tracing) {
      obs::record_convergence(iter, result.rel_gap, 0.0,
                              objective_value(table, bw.total_flow, objective));
    }
  }

  std::fill(bw.total_flow.begin(), bw.total_flow.end(), 0.0);
  for (const OriginBush& b : bw.state) {
    for (std::size_t e = 0; e < ne; ++e) bw.total_flow[e] += b.flow[e];
  }
  result.edge_flow.assign(bw.total_flow.begin(), bw.total_flow.end());
  result.converged = solve_ok(result.status);
  result.objective = objective_value(table, result.edge_flow, objective);
  obs::count(&obs::SolveCounters::bush_shifts, shifts);
  obs::count(&obs::SolveCounters::bush_rebuilds, rebuilds);
  obs::count(&obs::SolveCounters::gap_checks,
             static_cast<std::uint64_t>(result.iterations));
  return result;
}

std::size_t vec_bytes_chars(const std::vector<char>& v) {
  return v.capacity() * sizeof(char);
}

}  // namespace

std::size_t OriginBush::footprint_bytes() const {
  return order.capacity() * sizeof(NodeId) + vec_bytes_chars(in_bush) +
         flow.capacity() * sizeof(double);
}

std::size_t BushWarmState::footprint_bytes() const {
  std::size_t total = bushes.capacity() * sizeof(OriginBush) +
                      commodities.capacity() * sizeof(Commodity);
  for (const OriginBush& b : bushes) total += b.footprint_bytes();
  return total;
}

BushResult solve_bush(const NetworkInstance& inst, FlowObjective objective,
                      std::span<const double> preload,
                      const BushOptions& opts) {
  SolverWorkspace ws;
  return solve_bush(inst, objective, preload, opts, ws);
}

BushResult solve_bush(const NetworkInstance& inst, FlowObjective objective,
                      std::span<const double> preload, const BushOptions& opts,
                      SolverWorkspace& ws, const BushWarmState* warm,
                      BushWarmState* warm_out) {
  obs::ScopedCounterDelta tally;
  obs::ScopedSpan span("bush");
  inst.validate();
  const std::vector<LatencyPtr> lat = effective_latencies(inst.graph, preload);
  ws.table.ensure_compiled(lat);

  // One gate for the whole call: if the warm run burns the deadline, the
  // cold fallback below must not get a fresh one.
  BudgetGate gate(opts.budget);
  bool used_warm = false;
  BushResult result =
      bush_run(inst, objective, opts, gate, ws, warm, used_warm);

  // Warm-start guard: a warm seed that went numerically bad, stalled, or
  // burned the iteration cap without converging gets one cold retry — the
  // seed, not the instance, is the prime suspect. A deadline hit is not
  // retried (no time left to retry with).
  if (used_warm && !solve_ok(result.status) &&
      result.status != SolveStatus::kDeadlineExceeded) {
    obs::count(&obs::SolveCounters::warm_fallbacks);
    bool cold_used_warm = false;
    result =
        bush_run(inst, objective, opts, gate, ws, nullptr, cold_used_warm);
  }

  if (warm_out != nullptr) {
    if (result.status == SolveStatus::kNumericFailure) {
      warm_out->clear();
    } else {
      warm_out->bushes = std::move(ws.bush.state);
      warm_out->commodities = inst.commodities;
      ws.bush.state.clear();
    }
  }
  if (tally.active()) result.counters = tally.current();
  return result;
}

}  // namespace stackroute
