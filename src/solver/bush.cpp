#include "stackroute/solver/bush.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "stackroute/network/dijkstra.h"
#include "stackroute/obs/trace.h"
#include "stackroute/util/error.h"
#include "stackroute/util/fault.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

namespace {

// Relative slack for adding an improving edge / attempting a shift. Both
// sit far below the default rel_gap_tol (1e-10) so the gap can actually
// close, and far above ulp noise so the bush does not churn on ties.
constexpr double kAddEps = 1e-12;
constexpr double kShiftEps = 1e-14;
// Share of the outer relative gap a node's max-min spread may keep before
// a Beckmann pass shifts it ("Inner stopping rule" in bush.h).
constexpr double kGapShare = 0.1;
// Equilibration passes per origin per outer iteration (each pass rebuilds
// the min/max trees and shifts once at every unbalanced node).
constexpr int kMaxPasses = 16;

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
/// Reads ws.costs; runs on ws.dijkstra and the bush scratch's depth, pos
/// and chain.
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

/// Rebuilds `arcs` — b's in-arcs grouped by topological position, each
/// node's in in-CSR order — from b.order and b.in_bush. Every bush edge's
/// head is in b.order, so the lists hold exactly the bush's edges.
void build_in_arcs(const Graph& g, const OriginBush& b, CsrAdjacency& arcs) {
  const CsrAdjacency& in = g.in_csr();
  arcs.offsets.clear();
  arcs.arcs.clear();
  arcs.offsets.push_back(0);
  for (NodeId v : b.order) {
    for (const CsrAdjacency::Arc& arc : in.arcs_of(v)) {
      if (b.in_bush[static_cast<std::size_t>(arc.edge)]) arcs.arcs.push_back(arc);
    }
    arcs.offsets.push_back(static_cast<std::int32_t>(arcs.arcs.size()));
  }
}

/// Min path labels from the origin into `dist` (+inf off the bush), in one
/// topological sweep of its in-arc lists: the upper bounds the gap check
/// hands to dijkstra_from_bounds.
void bush_min_labels(const OriginBush& b, const CsrAdjacency& arcs,
                     std::span<const double> costs, std::vector<double>& dist) {
  std::fill(dist.begin(), dist.end(), kInf);
  dist[static_cast<std::size_t>(b.origin)] = 0.0;
  for (std::size_t i = 0; i < b.order.size(); ++i) {
    const auto vi = static_cast<std::size_t>(b.order[i]);
    double d = dist[vi];
    for (const CsrAdjacency::Arc& arc : arcs.arcs_of(static_cast<NodeId>(i))) {
      const double via = dist[static_cast<std::size_t>(arc.target)] +
                         costs[static_cast<std::size_t>(arc.edge)];
      if (via < d) d = via;
    }
    dist[vi] = d;
  }
}

/// Min/max path labels over the bush, in one topological sweep of its
/// in-arc lists: every tail precedes its head in the order, so a node's
/// labels are final once its own arcs are scanned. The max tree is
/// restricted to flow-carrying edges (the paths flow can be shifted off).
/// Labels are only written for nodes in b.order, so the shared nv-sized
/// scratch needs no clear between origins.
void compute_trees(const OriginBush& b, const CsrAdjacency& arcs,
                   BushWorkspace& bw, std::span<const double> costs,
                   bool want_max) {
  for (std::size_t i = 0; i < b.order.size(); ++i) {
    const NodeId v = b.order[i];
    const auto vi = static_cast<std::size_t>(v);
    double dmin = v == b.origin ? 0.0 : kInf;
    double dmax = v == b.origin ? 0.0 : -kInf;
    EdgeId pmin = kInvalidEdge;
    EdgeId pmax = kInvalidEdge;
    for (const CsrAdjacency::Arc& arc : arcs.arcs_of(static_cast<NodeId>(i))) {
      const auto e = static_cast<std::size_t>(arc.edge);
      const auto ui = static_cast<std::size_t>(arc.target);  // tail
      const double c = costs[e];
      // An unreached tail's infinite label never wins either comparison.
      if (bw.dmin[ui] + c < dmin) {
        dmin = bw.dmin[ui] + c;
        pmin = arc.edge;
      }
      if (want_max && b.flow[e] > 0.0 && bw.dmax[ui] + c > dmax) {
        dmax = bw.dmax[ui] + c;
        pmax = arc.edge;
      }
    }
    bw.dmin[vi] = dmin;
    bw.dmax[vi] = dmax;
    bw.pmin[vi] = pmin;
    bw.pmax[vi] = pmax;
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
    const auto ti = static_cast<std::size_t>(bw.tail[e]);
    const auto hi = static_cast<std::size_t>(bw.head[e]);
    if (bw.indeg[ti] < 0) bw.indeg[ti] = 0;
    bw.indeg[hi] = std::max(bw.indeg[hi], 0) + 1;
  }
  std::size_t members = 0;
  bw.queue.clear();
  for (std::size_t v = 0; v < nv; ++v) {
    if (bw.indeg[v] >= 0) ++members;
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

/// The dust pass of bush.h, in one topological sweep: zeroes the flow out
/// of every non-origin node left with no flow-carrying in-edge and drops
/// zero-flow in-arcs under improve_bush's rule. Fed flags go in bw.indeg.
bool clear_dust(OriginBush& b, const CsrAdjacency& arcs, BushWorkspace& bw) {
  std::vector<std::int32_t>& fed = bw.indeg;
  bool dropped = false;
  for (std::size_t i = 0; i < b.order.size(); ++i) {
    const auto vi = static_cast<std::size_t>(b.order[i]);
    fed[vi] = b.order[i] == b.origin ? 1 : 0;
    std::int32_t indeg = 0;  // `arcs` may list edges dropped this pass
    for (const CsrAdjacency::Arc& arc : arcs.arcs_of(static_cast<NodeId>(i))) {
      indeg += b.in_bush[static_cast<std::size_t>(arc.edge)];
    }
    for (const CsrAdjacency::Arc& arc : arcs.arcs_of(static_cast<NodeId>(i))) {
      const auto e = static_cast<std::size_t>(arc.edge);
      if (!b.in_bush[e]) continue;
      if (!fed[static_cast<std::size_t>(arc.target)] && b.flow[e] != 0.0) {
        bw.total_flow[e] = std::fmax(bw.total_flow[e] - b.flow[e], 0.0);
        b.flow[e] = 0.0;
      }
      if (b.flow[e] > 0.0) {
        fed[vi] = 1;
      } else if (indeg > 1 && arc.edge != bw.pmin[vi]) {
        b.in_bush[e] = 0;
        --indeg;
        dropped = true;
      }
    }
  }
  return dropped;
}

/// One bush-improvement pass: drop zero-flow edges (never the min-tree
/// edge or a node's last in-edge, so every reachable node keeps a path
/// from the origin), add strictly cost-improving edges, and re-sort if an
/// addition points backward. Returns true when the edge set changed, after
/// rebuilding `arcs` to match.
bool improve_bush(const Graph& g, OriginBush& b, CsrAdjacency& arcs,
                  BushWorkspace& bw, std::span<const double> costs) {
  const auto ne = static_cast<std::size_t>(g.num_edges());
  compute_trees(b, arcs, bw, costs, /*want_max=*/false);

  // A drop depends only on its head's min-tree edge and remaining
  // in-degree, so walking each head's arcs in EdgeId order drops exactly
  // what one scan of all edges in EdgeId order would.
  bool dropped = false;
  for (std::size_t i = 0; i < b.order.size(); ++i) {
    const EdgeId pmin = bw.pmin[static_cast<std::size_t>(b.order[i])];
    std::int32_t indeg = arcs.offsets[i + 1] - arcs.offsets[i];
    for (const CsrAdjacency::Arc& arc : arcs.arcs_of(static_cast<NodeId>(i))) {
      const auto e = static_cast<std::size_t>(arc.edge);
      if (b.flow[e] != 0.0 || indeg <= 1 || arc.edge == pmin) continue;
      b.in_bush[e] = 0;
      --indeg;
      dropped = true;
    }
  }

  // Additions: every edge between two bush nodes that beats its head's
  // label. The rarely true cost test goes first, so the loop barely
  // branches; a stale label off the bush is still an initialized double,
  // and the position tests reject its edge.
  bw.seg_min.clear();  // reused as the list of added edges
  bool forward = true;
  for (std::size_t e = 0; e < ne; ++e) {
    const auto ti = static_cast<std::size_t>(bw.tail[e]);
    const auto hi = static_cast<std::size_t>(bw.head[e]);
    const double slack = kAddEps * (1.0 + std::fabs(bw.dmin[hi]));
    if (bw.dmin[ti] + costs[e] < bw.dmin[hi] - slack && !b.in_bush[e] &&
        bw.pos[ti] >= 0 && bw.pos[hi] >= 0) {
      b.in_bush[e] = 1;
      bw.seg_min.push_back(static_cast<EdgeId>(e));
      forward = forward && bw.pos[ti] < bw.pos[hi];
    }
  }

  // Additions that all point forward keep the old order topological (drops
  // never invalidate it), so only a backward addition re-sorts.
  bool changed = dropped || !bw.seg_min.empty();
  if (!forward) {
    // A cycle can only come from the additions (drops keep the old order
    // valid). One that dust closed is re-sorted away; others are reverted.
    bool sorted = kahn_reorder(g, b, bw);
    if (!sorted && clear_dust(b, arcs, bw)) {
      dropped = true;
      sorted = kahn_reorder(g, b, bw);
    }
    if (!sorted) {
      for (EdgeId e : bw.seg_min) b.in_bush[static_cast<std::size_t>(e)] = 0;
    }
    changed = dropped || sorted;
  }
  if (changed) build_in_arcs(g, b, arcs);
  SR_ASSERT_DEBUG(
      std::count(b.in_bush.begin(), b.in_bush.end(), 1) ==
              std::ssize(arcs.arcs) &&
          std::all_of(arcs.arcs.begin(), arcs.arcs.end(),
                      [&](const CsrAdjacency::Arc& arc) {
                        return b.in_bush[static_cast<std::size_t>(arc.edge)];
                      }),
      "bush: in-arc lists do not hold exactly the bush's edges");
  SR_ASSERT_DEBUG(
      std::all_of(arcs.arcs.begin(), arcs.arcs.end(),
                  [&](const CsrAdjacency::Arc& arc) {
                    const auto e = static_cast<std::size_t>(arc.edge);
                    return bw.pos[static_cast<std::size_t>(bw.tail[e])] <
                           bw.pos[static_cast<std::size_t>(bw.head[e])];
                  }),
      "bush: a bush edge points backward in the topological order");
  return changed;
}

/// The fault seam of one shift's cost refresh, under path equalization's
/// contract: one evaluation event per refresh (an injected fault corrupts
/// the first refreshed edge), and every refreshed cost checked finite — a
/// NumericError stops the solve with the flows of the shift just applied,
/// which are still feasible.
void refresh_fault_check(const BushWorkspace& bw, std::span<double> costs) {
  if (fault::armed()) {
    double bad;
    if (fault::next_eval_faulted(bad)) {
      costs[static_cast<std::size_t>(bw.seg_max.front())] = bad;
    }
  }
  for (EdgeId e : bw.seg_max) {
    SR_REQUIRE_FINITE(costs[static_cast<std::size_t>(e)],
                      "bush: non-finite edge cost");
  }
  for (EdgeId e : bw.seg_min) {
    SR_REQUIRE_FINITE(costs[static_cast<std::size_t>(e)],
                      "bush: non-finite edge cost");
  }
}

/// One equilibration pass: rebuild min/max trees, then walk the nodes in
/// reverse topological order and apply one Newton shift wherever the max
/// used path costs more than the min path by over
/// max(kShiftEps·(1+|dmin|), rel_slack·|dmin|). Touched edge costs are
/// re-evaluated immediately. Returns true when any flow moved.
bool equilibrate_pass(const LatencyTable& table, FlowObjective objective,
                      double rel_slack, OriginBush& b,
                      const CsrAdjacency& arcs, BushWorkspace& bw,
                      std::span<double> costs, std::uint64_t& shifts) {
  compute_trees(b, arcs, bw, costs, /*want_max=*/true);
  bool moved = false;
  for (std::size_t idx = b.order.size(); idx-- > 0;) {
    const NodeId v = b.order[idx];
    const auto vi = static_cast<std::size_t>(v);
    if (v == b.origin) continue;
    const EdgeId pmax = bw.pmax[vi];
    if (pmax == kInvalidEdge || pmax == bw.pmin[vi]) continue;
    const double label = std::fabs(bw.dmin[vi]);
    const double slack =
        std::fmax(kShiftEps * (1.0 + label), rel_slack * label);
    if (!(bw.dmax[vi] - bw.dmin[vi] > slack)) continue;

    // Segments from the divergence node down to v: seed both walkers one
    // edge above v (they start equal there), then step back whichever sits
    // later in topological order until they meet.
    bw.seg_max.clear();
    bw.seg_min.clear();
    bw.seg_max.push_back(pmax);
    bw.seg_min.push_back(bw.pmin[vi]);
    NodeId a = bw.tail[static_cast<std::size_t>(pmax)];
    NodeId c = bw.tail[static_cast<std::size_t>(bw.pmin[vi])];
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
        a = bw.tail[static_cast<std::size_t>(e)];
      } else {
        const EdgeId e = bw.pmin[static_cast<std::size_t>(c)];
        if (e == kInvalidEdge) {
          ok = false;
          break;
        }
        bw.seg_min.push_back(e);
        c = bw.tail[static_cast<std::size_t>(e)];
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
    refresh_fault_check(bw, costs);
  }
  return moved;
}

/// Structural fit of a warm payload, and the proportional demand ratio.
/// Everything checkable without the old graph is checked; graph identity
/// is the caller's precondition (see EquilibriumWarmState).
bool warm_usable(const NetworkInstance& inst,
                 const std::vector<OriginGroup>& groups,
                 const EquilibriumWarmState& warm, double& ratio) {
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
    const std::int32_t pt = bw.pos[static_cast<std::size_t>(bw.tail[e])];
    const std::int32_t ph = bw.pos[static_cast<std::size_t>(bw.head[e])];
    if (pt < 0 || ph < 0 || pt >= ph) return false;
  }
  return true;
}

/// One bush run (seed + iterate). Publishes its work counters into
/// whatever sink/delta the caller installed; the public entry point owns
/// the per-solve delta and the warm-fallback rerun.
BushResult bush_run(const NetworkInstance& inst, FlowObjective objective,
                    const BushOptions& opts, BudgetGate& gate,
                    SolverWorkspace& ws, const EquilibriumWarmState* warm,
                    EquilibriumWarmState* consumable, bool& used_warm) {
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
  bw.tail.resize(ne);
  bw.head.resize(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    const Edge& ed = g.edge(static_cast<EdgeId>(e));
    bw.tail[e] = ed.tail;
    bw.head[e] = ed.head;
  }
  ws.costs.resize(ne);
  ws.dists.assign(k, 0.0);

  BushResult result;
  used_warm = false;
  double ratio = 0.0;
  if (warm != nullptr && !warm->empty()) {
    obs::count(&obs::SolveCounters::warm_attempts);
    used_warm = warm_usable(inst, groups, *warm, ratio);
    for (std::size_t i = 0; used_warm && i < ng; ++i) {
      used_warm = warm_bush_consistent(g, warm->bushes[i], bw);
    }
    if (used_warm) {
      // Every bush fits, so the payload is taken whole: consumed when it
      // is the caller's warm_out (the solve republishes into it), copied
      // otherwise.
      if (consumable != nullptr) {
        bw.state.swap(consumable->bushes);
        consumable->clear();
      } else {
        bw.state = warm->bushes;
      }
      for (OriginBush& b : bw.state) {
        for (double& f : b.flow) f *= ratio;
      }
      obs::count(&obs::SolveCounters::warm_hits);
    }
  }
  std::uint64_t shifts = 0;
  std::uint64_t passes = 0;
  std::uint64_t rebuilds = 0;
  result.rel_gap = kInf;
  result.status = SolveStatus::kIterLimit;  // until proven otherwise
  try {
    if (!used_warm) {
      // Cold start: shortest-path bushes + all-or-nothing at empty-network
      // costs. The costs are checked finite first (a fault event, as every
      // batch evaluation is): no bush is built on corrupt costs.
      bw.state.clear();
      std::fill(bw.total_flow.begin(), bw.total_flow.end(), 0.0);
      edge_costs(table, bw.total_flow, objective, ws.costs);
      for (double c : ws.costs) {
        SR_REQUIRE_FINITE(c, "bush: non-finite edge cost");
      }
      bw.state.assign(ng, OriginBush{});
      for (std::size_t gi = 0; gi < ng; ++gi) {
        build_initial_bush(g, inst, groups[gi], ws, bw.state[gi]);
      }
    }
    // The gap check reads each origin's distances off its bush, so the
    // in-arc lists exist from the first check on.
    bw.in_arcs.resize(ng);
    for (std::size_t gi = 0; gi < ng; ++gi) {
      build_in_arcs(g, bw.state[gi], bw.in_arcs[gi]);
    }
    ws.dijkstra.tree.dist.resize(nv);

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

      // SPTT: each origin's shortest distances, read off its bush and
      // repaired where an arc beats them — bit for bit dijkstra()'s (see
      // "Cost" in bush.h), which debug builds check at every sink.
      std::vector<double>& dist = ws.dijkstra.tree.dist;
      for (std::size_t gi = 0; gi < ng; ++gi) {
        const OriginGroup& group = groups[gi];
        bush_min_labels(bw.state[gi], bw.in_arcs[gi], ws.costs, dist);
        dijkstra_from_bounds(g, ws.costs, dist, ws.dijkstra);
        if (ws.dijkstra.settled > 0) count_dijkstra(ws.dijkstra);
#ifndef NDEBUG
        const ShortestPathTree exact = dijkstra(g, group.origin, ws.costs);
#endif
        for (std::size_t ci : group.commodities) {
          const auto t = static_cast<std::size_t>(inst.commodities[ci].sink);
          SR_ASSERT_DEBUG(std::bit_cast<std::uint64_t>(dist[t]) ==
                              std::bit_cast<std::uint64_t>(exact.dist[t]),
                          "bush: certified distance differs from Dijkstra's");
          ws.dists[ci] = dist[t];
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
      if (result.rel_gap <= opts.rel_gap_tol) {
        result.status = SolveStatus::kConverged;
        if (tracing) {
          obs::record_convergence(
              iter, result.rel_gap, 0.0,
              objective_value(table, bw.total_flow, objective));
        }
        break;
      }

      // Beckmann passes stop at a share of this gap: balancing a bush to
      // 1e-14 is wasted while other origins still move its costs by the
      // gap. Total-cost passes stay exact, because MOP reads the optimum's
      // per-origin split and a loosely balanced split moves β.
      const double rel_slack =
          objective == FlowObjective::kBeckmann ? kGapShare * result.rel_gap
                                                : 0.0;

      // Improve + equilibrate, strictly sequential in origin order — the
      // determinism contract's load-bearing wall.
      for (std::size_t gi = 0; gi < ng; ++gi) {
        OriginBush& b = bw.state[gi];
        for (std::size_t v = 0; v < nv; ++v) bw.pos[v] = -1;
        for (std::size_t i = 0; i < b.order.size(); ++i) {
          bw.pos[static_cast<std::size_t>(b.order[i])] =
              static_cast<std::int32_t>(i);
        }
        CsrAdjacency& arcs = bw.in_arcs[gi];
        if (improve_bush(g, b, arcs, bw, ws.costs)) ++rebuilds;
        for (int pass = 0; pass < kMaxPasses; ++pass) {
          ++passes;
          if (!equilibrate_pass(table, objective, rel_slack, b, arcs, bw,
                                ws.costs, shifts)) {
            break;
          }
        }
      }
      if (tracing) {
        obs::record_convergence(
            iter, result.rel_gap, 0.0,
            objective_value(table, bw.total_flow, objective));
      }
    }
  } catch (const NumericError&) {
    result.status = SolveStatus::kNumericFailure;
  }

  std::fill(bw.total_flow.begin(), bw.total_flow.end(), 0.0);
  for (const OriginBush& b : bw.state) {
    for (std::size_t e = 0; e < ne; ++e) bw.total_flow[e] += b.flow[e];
  }
  result.edge_flow.assign(bw.total_flow.begin(), bw.total_flow.end());
  result.converged = solve_ok(result.status);
  result.objective = objective_value(table, result.edge_flow, objective);
  obs::count(&obs::SolveCounters::bush_shifts, shifts);
  obs::count(&obs::SolveCounters::bush_passes, passes);
  obs::count(&obs::SolveCounters::bush_rebuilds, rebuilds);
  obs::count(&obs::SolveCounters::gap_checks,
             static_cast<std::uint64_t>(result.iterations));
  return result;
}

std::size_t vec_bytes_chars(const std::vector<char>& v) {
  return v.capacity() * sizeof(char);
}

}  // namespace

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

std::size_t OriginBush::footprint_bytes() const {
  return order.capacity() * sizeof(NodeId) + vec_bytes_chars(in_bush) +
         flow.capacity() * sizeof(double);
}

std::size_t EquilibriumWarmState::footprint_bytes() const {
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
                      SolverWorkspace& ws, const EquilibriumWarmState* warm,
                      EquilibriumWarmState* warm_out) {
  obs::ScopedCounterDelta tally;
  obs::ScopedSpan span("bush");
  inst.validate();
  const std::vector<LatencyPtr> lat = effective_latencies(inst.graph, preload);
  ws.table.ensure_compiled(lat);

  // One gate for the whole call: if the warm run burns the deadline, the
  // cold fallback below must not get a fresh one.
  BudgetGate gate(opts.budget);
  bool used_warm = false;
  EquilibriumWarmState* consumable =
      warm != nullptr && warm == warm_out ? warm_out : nullptr;
  BushResult result =
      bush_run(inst, objective, opts, gate, ws, warm, consumable, used_warm);

  // Warm-start guard: a warm seed that went numerically bad or burned the
  // iteration cap gets one cold retry (the seed, not the instance, is the
  // prime suspect); a deadline hit has no time left to retry with.
  if (used_warm && !solve_ok(result.status) &&
      result.status != SolveStatus::kDeadlineExceeded) {
    obs::count(&obs::SolveCounters::warm_fallbacks);
    bool cold_used_warm = false;
    result = bush_run(inst, objective, opts, gate, ws, nullptr, nullptr,
                      cold_used_warm);
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
