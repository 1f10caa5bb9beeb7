// Dijkstra, tight-edge subgraph, path utilities, flow decomposition and
// max-flow — the graph machinery MOP is assembled from.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stackroute/latency/families.h"
#include "stackroute/network/dijkstra.h"
#include "stackroute/network/generators.h"
#include "stackroute/network/maxflow.h"
#include "stackroute/network/paths.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

Graph diamond() {
  // 0 -> {1, 2} -> 3, plus a direct 0 -> 3 edge (id 4).
  Graph g(4);
  g.add_edge(0, 1, make_linear(1.0));  // e0
  g.add_edge(0, 2, make_linear(1.0));  // e1
  g.add_edge(1, 3, make_linear(1.0));  // e2
  g.add_edge(2, 3, make_linear(1.0));  // e3
  g.add_edge(0, 3, make_linear(1.0));  // e4
  return g;
}

TEST(Dijkstra, PicksCheapestRoute) {
  const Graph g = diamond();
  const std::vector<double> cost = {1.0, 2.0, 1.0, 1.0, 5.0};
  const ShortestPathTree tree = dijkstra(g, 0, cost);
  EXPECT_DOUBLE_EQ(tree.dist[3], 2.0);  // via node 1
  const auto path = extract_path(g, tree, 3);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 0);
  EXPECT_EQ(path[1], 2);
}

TEST(Dijkstra, ReverseDistancesMatchForward) {
  const Graph g = diamond();
  const std::vector<double> cost = {1.0, 2.0, 3.0, 0.5, 4.0};
  const ShortestPathTree fwd = dijkstra(g, 0, cost);
  const ShortestPathTree rev = dijkstra_to(g, 3, cost);
  EXPECT_DOUBLE_EQ(rev.dist[0], fwd.dist[3]);
  EXPECT_DOUBLE_EQ(rev.dist[3], 0.0);
  EXPECT_DOUBLE_EQ(rev.dist[1], 3.0);
  EXPECT_DOUBLE_EQ(rev.dist[2], 0.5);
}

TEST(Dijkstra, QuaternaryHeapMatchesBinaryReferenceExactly) {
  // The production 4-ary heap and the reference std::push_heap binary path
  // must produce bit-identical trees: all live queue keys are distinct, so
  // the relaxation order is heap-independent (see dijkstra.h). Random
  // multigraphs with skewed costs exercise deep heaps and stale entries.
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_int(2, 40));
    Graph g(n);
    const int m = n + static_cast<int>(rng.uniform_int(0, 4 * n));
    for (int e = 0; e < m; ++e) {
      const auto u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      auto v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (u == v) v = (v + 1) % n;
      g.add_edge(u, v, make_linear(1.0));
    }
    std::vector<double> cost(static_cast<std::size_t>(g.num_edges()));
    for (auto& c : cost) c = rng.uniform(0.0, 1.0) * rng.uniform(0.01, 10.0);
    DijkstraWorkspace quaternary;
    DijkstraWorkspace binary;
    const ShortestPathTree& q = dijkstra(g, 0, cost, quaternary);
    const ShortestPathTree& b = dijkstra_binary_heap(g, 0, cost, binary);
    ASSERT_EQ(q.dist.size(), b.dist.size());
    for (std::size_t v = 0; v < q.dist.size(); ++v) {
      EXPECT_EQ(q.dist[v], b.dist[v]) << "trial " << trial << " node " << v;
      EXPECT_EQ(q.parent_edge[v], b.parent_edge[v])
          << "trial " << trial << " node " << v;
    }
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Dijkstra, FromBoundsEqualsDijkstraBitwise) {
  // dijkstra_from_bounds must land on dijkstra()'s labels bit for bit from
  // any path-sum upper bounds (see dijkstra.h). Random digraphs with
  // zero-cost arcs, mixed cost scales and nodes no edge enters; three
  // kinds of bounds: the exact distances (nothing to repair), path sums
  // along a random spanning tree of the reachable nodes, and path sums
  // over the shortest-path DAG with some of its arcs removed.
  Rng rng(2026);
  std::uint64_t repaired = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 60));
    const int cut = static_cast<int>(rng.uniform_int(0, n / 4));  // unentered
    Graph g(n);
    const int m = static_cast<int>(rng.uniform_int(n / 2, 4 * n));
    for (int e = 0; e < m; ++e) {
      const auto u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const auto v = static_cast<NodeId>(rng.uniform_int(1, n - 1));
      if (u == v || v >= n - cut) continue;
      g.add_edge(u, v, make_linear(1.0));
    }
    const auto ne = static_cast<std::size_t>(g.num_edges());
    std::vector<double> cost(ne);
    for (auto& c : cost) {
      c = rng.bernoulli(0.2) ? 0.0
                             : rng.uniform(0.0, 1.0) * rng.uniform(1e-3, 1e3);
    }
    const ShortestPathTree exact = dijkstra(g, 0, cost);
    const auto nv = static_cast<std::size_t>(n);

    // Path sums along a random spanning tree of the reachable nodes.
    std::vector<double> tree_bounds(nv, kInf);
    tree_bounds[0] = 0.0;
    for (bool open = true; open;) {  // until no arc reaches a new node
      open = false;
      for (std::size_t e = 0; e < ne; ++e) {
        const Edge& ed = g.edge(static_cast<EdgeId>(e));
        const auto u = static_cast<std::size_t>(ed.tail);
        const auto v = static_cast<std::size_t>(ed.head);
        if (std::isfinite(tree_bounds[u]) && !std::isfinite(tree_bounds[v])) {
          open = true;
          if (rng.bernoulli(0.3)) tree_bounds[v] = tree_bounds[u] + cost[e];
        }
      }
    }

    // Min path sums over the shortest-path DAG's tight arcs, a fifth of
    // them removed (Bellman-Ford over what is left).
    std::vector<char> kept(ne, 0);
    for (std::size_t e = 0; e < ne; ++e) {
      const Edge& ed = g.edge(static_cast<EdgeId>(e));
      const double du = exact.dist[static_cast<std::size_t>(ed.tail)];
      kept[e] = std::isfinite(du) &&
                du + cost[e] == exact.dist[static_cast<std::size_t>(ed.head)] &&
                !rng.bernoulli(0.2);
    }
    std::vector<double> dag_bounds(nv, kInf);
    dag_bounds[0] = 0.0;
    for (bool dropped = true; dropped;) {
      dropped = false;
      for (std::size_t e = 0; e < ne; ++e) {
        if (!kept[e]) continue;
        const Edge& ed = g.edge(static_cast<EdgeId>(e));
        const auto u = static_cast<std::size_t>(ed.tail);
        const auto v = static_cast<std::size_t>(ed.head);
        if (dag_bounds[u] + cost[e] < dag_bounds[v]) {
          dag_bounds[v] = dag_bounds[u] + cost[e];
          dropped = true;
        }
      }
    }

    const std::vector<std::vector<double>> starts = {exact.dist, tree_bounds,
                                                     dag_bounds};
    for (std::size_t kind = 0; kind < starts.size(); ++kind) {
      std::vector<double> dist = starts[kind];
      for (std::size_t v = 0; v < nv; ++v) {
        ASSERT_FALSE(dist[v] < exact.dist[v]) << "not an upper bound";
      }
      DijkstraWorkspace ws;
      dijkstra_from_bounds(g, cost, dist, ws);
      if (kind == 0) {
        EXPECT_EQ(ws.settled, 0u) << "trial " << trial;
      }
      repaired += ws.settled;
      for (std::size_t v = 0; v < nv; ++v) {
        EXPECT_EQ(bits(dist[v]), bits(exact.dist[v]))
            << "trial " << trial << " bounds " << kind << " node " << v;
      }
    }
  }
  EXPECT_GT(repaired, 0u);  // the non-exact bounds did need repairs
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g(3);
  g.add_edge(0, 1, make_linear(1.0));
  const std::vector<double> cost = {1.0};
  const ShortestPathTree tree = dijkstra(g, 0, cost);
  EXPECT_TRUE(std::isinf(tree.dist[2]));
  EXPECT_THROW(extract_path(g, tree, 2), Error);
}

TEST(Dijkstra, NegativeCostsRejectedInDebugBuilds) {
  // The O(m) non-negativity scan is debug-only (SR_ASSERT behind NDEBUG):
  // it sat inside the solvers' hottest loop.
#ifdef NDEBUG
  GTEST_SKIP() << "cost validation compiled out in release builds";
#else
  Graph g(2);
  g.add_edge(0, 1, make_linear(1.0));
  const std::vector<double> cost = {-0.1};
  EXPECT_THROW(dijkstra(g, 0, cost), Error);
#endif
}

TEST(TightEdges, MarksExactlyTheShortestPathEdges) {
  const Graph g = diamond();
  // Paths: 0-1-3 cost 2, 0-2-3 cost 2, direct cost 3 -> first two tight.
  const std::vector<double> cost = {1.0, 1.0, 1.0, 1.0, 3.0};
  const std::vector<char> mask = shortest_path_edge_mask(g, 0, 3, cost);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_TRUE(mask[2]);
  EXPECT_TRUE(mask[3]);
  EXPECT_FALSE(mask[4]);
}

TEST(TightEdges, DirectShortcutOnly) {
  const Graph g = diamond();
  const std::vector<double> cost = {1.0, 1.0, 1.0, 1.0, 1.5};
  const std::vector<char> mask = shortest_path_edge_mask(g, 0, 3, cost);
  EXPECT_FALSE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_FALSE(mask[2]);
  EXPECT_FALSE(mask[3]);
  EXPECT_TRUE(mask[4]);
}

TEST(Paths, EnumerateFindsAllSimplePaths) {
  const Graph g = diamond();
  const auto paths = enumerate_paths(g, 0, 3);
  EXPECT_EQ(paths.size(), 3u);
  for (const auto& p : paths) {
    EXPECT_TRUE(is_path(g, 0, 3, p));
  }
}

TEST(Paths, EnumerateRespectsLimit) {
  const Graph g = diamond();
  EXPECT_THROW(enumerate_paths(g, 0, 3, 2), Error);
}

TEST(Paths, PathCostSums) {
  const std::vector<double> cost = {1.0, 2.0, 4.0};
  const Path p = {0, 2};
  EXPECT_DOUBLE_EQ(path_cost(cost, p), 5.0);
}

TEST(Paths, IsPathChecksContiguity) {
  const Graph g = diamond();
  EXPECT_TRUE(is_path(g, 0, 3, Path{0, 2}));
  EXPECT_FALSE(is_path(g, 0, 3, Path{0, 3}));  // e3 starts at node 2
  EXPECT_FALSE(is_path(g, 0, 3, Path{0}));     // stops at node 1
  EXPECT_FALSE(is_path(g, 0, 3, Path{99}));    // bogus edge id
}

TEST(Decompose, SplitsFlowAcrossBranches) {
  const Graph g = diamond();
  // 0.6 via 0-1-3, 0.3 via 0-2-3, 0.1 direct.
  const std::vector<double> flow = {0.6, 0.3, 0.6, 0.3, 0.1};
  const auto paths = decompose_flow(g, 0, 3, flow);
  double total = 0.0;
  for (const auto& pf : paths) {
    EXPECT_TRUE(is_path(g, 0, 3, pf.path));
    total += pf.flow;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  const auto back = path_flows_to_edge_flows(g, paths);
  EXPECT_NEAR(max_abs_diff(back, flow), 0.0, 1e-12);
}

TEST(Decompose, CancelsCycles) {
  // 0 -> 1 -> 2(sink) plus a 1 -> 3 -> 1 cycle carrying junk flow.
  Graph g(4);
  g.add_edge(0, 1, make_linear(1.0));  // e0
  g.add_edge(1, 2, make_linear(1.0));  // e1
  g.add_edge(1, 3, make_linear(1.0));  // e2
  g.add_edge(3, 1, make_linear(1.0));  // e3
  const std::vector<double> flow = {1.0, 1.0, 0.4, 0.4};
  const auto paths = decompose_flow(g, 0, 2, flow);
  double total = 0.0;
  for (const auto& pf : paths) total += pf.flow;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // The s->t part must not include the cycle edges.
  for (const auto& pf : paths) {
    for (EdgeId e : pf.path) {
      EXPECT_NE(e, 2);
      EXPECT_NE(e, 3);
    }
  }
}

TEST(Decompose, RejectsConservationViolation) {
  Graph g(3);
  g.add_edge(0, 1, make_linear(1.0));
  g.add_edge(1, 2, make_linear(1.0));
  const std::vector<double> flow = {1.0, 0.25};  // node 1 leaks 0.75
  EXPECT_THROW(decompose_flow(g, 0, 2, flow), Error);
}

TEST(MaxFlow, DiamondBottleneck) {
  const Graph g = diamond();
  const std::vector<double> cap = {0.5, 0.25, 1.0, 1.0, 0.125};
  const MaxFlowResult mf = max_flow(g, 0, 3, cap, kInf);
  EXPECT_NEAR(mf.value, 0.875, 1e-12);
}

TEST(MaxFlow, RespectsLimit) {
  const Graph g = diamond();
  const std::vector<double> cap = {1.0, 1.0, 1.0, 1.0, 1.0};
  const MaxFlowResult mf = max_flow(g, 0, 3, cap, 0.75);
  EXPECT_NEAR(mf.value, 0.75, 1e-12);
}

TEST(MaxFlow, FlowDecomposesToPaths) {
  const Graph g = diamond();
  const std::vector<double> cap = {0.5, 0.25, 0.5, 0.25, 0.125};
  const MaxFlowResult mf = max_flow(g, 0, 3, cap, kInf);
  const auto paths = decompose_flow(g, 0, 3, mf.edge_flow);
  double total = 0.0;
  for (const auto& pf : paths) total += pf.flow;
  EXPECT_NEAR(total, mf.value, 1e-12);
}

TEST(MaxFlow, ZeroCapacityEdgeBlocks) {
  Graph g(3);
  g.add_edge(0, 1, make_linear(1.0));
  g.add_edge(1, 2, make_linear(1.0));
  const std::vector<double> cap = {1.0, 0.0};
  const MaxFlowResult mf = max_flow(g, 0, 2, cap, kInf);
  EXPECT_DOUBLE_EQ(mf.value, 0.0);
}

TEST(MaxFlow, NeedsResidualReroute) {
  // Classic case where a greedy path must be partially undone.
  Graph g(4);
  g.add_edge(0, 1, make_linear(1.0));  // e0
  g.add_edge(0, 2, make_linear(1.0));  // e1
  g.add_edge(1, 2, make_linear(1.0));  // e2
  g.add_edge(1, 3, make_linear(1.0));  // e3
  g.add_edge(2, 3, make_linear(1.0));  // e4
  const std::vector<double> cap = {1.0, 1.0, 1.0, 1.0, 1.0};
  const MaxFlowResult mf = max_flow(g, 0, 3, cap, kInf);
  EXPECT_NEAR(mf.value, 2.0, 1e-12);
}

TEST(MaxFlow, BadArgumentsRejected) {
  const Graph g = diamond();
  const std::vector<double> cap = {1.0, 1.0, 1.0, 1.0};  // wrong size
  EXPECT_THROW(max_flow(g, 0, 3, cap, kInf), Error);
  const std::vector<double> cap5 = {1.0, 1.0, 1.0, 1.0, -1.0};
  EXPECT_THROW(max_flow(g, 0, 3, cap5, kInf), Error);
  const std::vector<double> ok(5, 1.0);
  EXPECT_THROW(max_flow(g, 2, 2, ok, kInf), Error);
}

TEST(MaxFlowToSinks, CapsEachSinkAtItsLimit) {
  // Diamond from 0: sinks 1 (via e0) and 3 (via e2, e3 and e4). Node 3
  // can take at most 0.5 + 1 + 0.5, node 1 its limit 0.25: the maximum
  // 2.25 needs both arcs full.
  const Graph g = diamond();
  const std::vector<double> cap = {1.0, 1.0, 0.5, 1.0, 0.5};
  const std::vector<NodeId> sinks = {1, 3};
  const std::vector<double> limits = {0.25, 10.0};
  const MaxFlowResult r = max_flow_to_sinks(g, 0, sinks, limits, cap);
  ASSERT_EQ(r.sink_flow.size(), 2u);
  EXPECT_NEAR(r.sink_flow[0], 0.25, 1e-12);
  EXPECT_NEAR(r.sink_flow[1], 2.0, 1e-12);
  EXPECT_NEAR(r.value, 2.25, 1e-12);
  EXPECT_NEAR(r.edge_flow[0], 0.75, 1e-12);
  EXPECT_NEAR(r.edge_flow[2], 0.5, 1e-12);
}

TEST(MaxFlowToSinks, OneSinkMatchesMaxFlow) {
  const Graph g = diamond();
  const std::vector<double> cap = {1.0, 0.5, 0.75, 1.0, 0.2};
  const MaxFlowResult single = max_flow(g, 0, 3, cap, 1.3);
  const std::vector<NodeId> sinks = {3};
  const std::vector<double> limits = {1.3};
  const MaxFlowResult multi = max_flow_to_sinks(g, 0, sinks, limits, cap);
  EXPECT_NEAR(multi.value, single.value, 1e-12);
  EXPECT_NEAR(multi.sink_flow[0], single.value, 1e-12);
}

TEST(DecomposeOriginFlow, TagsPathsBySink) {
  // 0 ships 1 to node 1 and 2 to node 3; the flow to 3 passes through 1
  // and 2.
  const Graph g = diamond();
  const std::vector<double> flow = {1.5, 1.0, 0.5, 1.0, 0.5};
  const std::vector<NodeId> sinks = {1, 3};
  const std::vector<double> demands = {1.0, 2.0};
  const auto paths = decompose_origin_flow(g, 0, sinks, demands, flow);
  ASSERT_EQ(paths.size(), 2u);
  for (std::size_t j = 0; j < sinks.size(); ++j) {
    double total = 0.0;
    for (const PathFlow& pf : paths[j]) {
      EXPECT_TRUE(is_path(g, 0, sinks[j], pf.path));
      total += pf.flow;
    }
    EXPECT_NEAR(total, demands[j], 1e-12) << "sink " << sinks[j];
  }
  // The paths add back up to the flow.
  std::vector<double> back(flow.size(), 0.0);
  for (const auto& list : paths) {
    for (const PathFlow& pf : list) {
      for (EdgeId e : pf.path) back[static_cast<std::size_t>(e)] += pf.flow;
    }
  }
  EXPECT_LT(max_abs_diff(back, flow), 1e-12);
}

TEST(DecomposeOriginFlow, ToleratesRoundoffOnTheDemandScale) {
  // A flow that conserves only to a few ulps of a large demand, as solver
  // output does: an absolute 1e-12 tolerance would dead-end on the
  // residue, the demand-relative one absorbs it.
  const Graph g = diamond();
  const double d = 8.0e4;
  std::vector<double> flow = {0.5 * d, 0.3 * d, 0.5 * d, 0.3 * d, 0.2 * d};
  flow[0] += 3e-11;  // leaves node 1 short of outflow by 3e-11
  const std::vector<NodeId> sinks = {3};
  const std::vector<double> demands = {d};
  const auto paths = decompose_origin_flow(g, 0, sinks, demands, flow);
  double total = 0.0;
  for (const PathFlow& pf : paths[0]) total += pf.flow;
  EXPECT_NEAR(total, d, 1e-9 * d);
  EXPECT_THROW(decompose_flow(g, 0, 3, flow, 1e-12), Error);
}

TEST(DecomposeOriginFlow, RejectsFlowThatDoesNotConserve) {
  const Graph g = diamond();
  const std::vector<double> flow = {1.0, 0.0, 0.0, 0.0, 0.0};  // stuck at 1
  const std::vector<NodeId> sinks = {3};
  const std::vector<double> demands = {1.0};
  EXPECT_THROW(decompose_origin_flow(g, 0, sinks, demands, flow), Error);
}

TEST(Generators, RandomLayeredDagIsValid) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const NetworkInstance inst = random_layered_dag(rng, 3, 4, 0.4, 1.0);
    EXPECT_NO_THROW(inst.validate());
  }
}

TEST(Generators, GridCityIsValid) {
  Rng rng(6);
  const NetworkInstance inst = grid_city(rng, 4, 5, 2.0);
  EXPECT_NO_THROW(inst.validate());
  EXPECT_EQ(inst.graph.num_nodes(), 20);
  // Right edges: 4*4, down edges: 3*5.
  EXPECT_EQ(inst.graph.num_edges(), 31);
}

TEST(Generators, GridCityMulticommodityIsValid) {
  Rng rng(7);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 4, 5, 0.2, 1.0);
  EXPECT_EQ(inst.commodities.size(), 5u);
  EXPECT_NO_THROW(inst.validate());
}

TEST(Generators, PaperInstancesAreValid) {
  EXPECT_NO_THROW(pigou().validate());
  EXPECT_NO_THROW(pigou_nonlinear(4).validate());
  EXPECT_NO_THROW(fig4_instance().validate());
  EXPECT_NO_THROW(braess_classic().validate());
  EXPECT_NO_THROW(braess_without_shortcut().validate());
  EXPECT_NO_THROW(fig7_instance(0.05).validate());
  EXPECT_THROW(fig7_instance(0.3), Error);  // eps < 1/4 required
}

TEST(Generators, Fig4ExpectedIsConsistent) {
  const Fig4Expected e = fig4_expected();
  EXPECT_NEAR(sum(e.optimum), 1.0, 1e-12);
  EXPECT_NEAR(sum(e.nash), 1.0, 1e-12);
  EXPECT_NEAR(e.beta, e.optimum[3] + e.optimum[4], 1e-12);
}

TEST(Generators, Fig7ExpectedConservesFlow) {
  for (double eps : {0.0, 0.01, 0.1}) {
    const Fig7Expected e = fig7_expected(eps);
    // Conservation at v: o_sv = o_vw + o_vt.
    EXPECT_NEAR(e.optimum_edges[0], e.optimum_edges[2] + e.optimum_edges[3],
                1e-12);
    // Conservation at w: o_sw + o_vw = o_wt.
    EXPECT_NEAR(e.optimum_edges[1] + e.optimum_edges[2], e.optimum_edges[4],
                1e-12);
    EXPECT_NEAR(e.beta + e.free_flow, 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace stackroute
