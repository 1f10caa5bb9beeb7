#include "stackroute/network/dijkstra.h"

#include <algorithm>
#include <functional>

#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

namespace {

using HeapItem = std::pair<double, NodeId>;

// 4-ary min-heap primitives on the workspace vector. Wider nodes halve the
// tree depth, so sift paths touch fewer cache lines of the reused buffer —
// the classic d-ary trade (more comparisons per level, fewer levels) that
// favors d = 4 for pop-heavy workloads like Dijkstra.
inline void heap4_push(std::vector<HeapItem>& heap, HeapItem item) {
  std::size_t i = heap.size();
  heap.push_back(item);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(item < heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = item;
}

inline HeapItem heap4_pop(std::vector<HeapItem>& heap) {
  const HeapItem top = heap.front();
  const HeapItem last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t stop = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < stop; ++c) {
        if (heap[c] < heap[best]) best = c;
      }
      if (!(heap[best] < last)) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = last;
  }
  return top;
}

enum class HeapKind {
  kBinaryStd,   // the pre-4-ary std::push_heap/pop_heap path (reference)
  kQuaternary,  // production: hand-rolled 4-ary sift
};

// O(m) validation kept out of release builds: it sits inside the solvers'
// hottest loop, and in-tree callers derive costs from non-negative
// latencies.
void check_non_negative([[maybe_unused]] std::span<const double> edge_cost) {
#ifndef NDEBUG
  for (double c : edge_cost) {
    SR_ASSERT_DEBUG(c >= 0.0, "Dijkstra needs non-negative edge costs");
  }
#endif
}

// Lazy-deletion Dijkstra over the CSR adjacency, on a workspace-owned
// min-heap whose layout is a compile-time switch. All live queue entries
// are distinct pairs (a node is only re-pushed with a strictly smaller
// distance), so every pop removes the unique comparator-minimum — the
// relaxation sequence, and with it dist[] and parent_edge[], is identical
// for any correct heap (asserted exactly between the two kinds in
// tests/network/test_algorithms.cpp).
template <HeapKind kHeap>
void run_dijkstra(const CsrAdjacency& adj, std::size_t num_nodes, NodeId root,
                  std::span<const double> edge_cost, DijkstraWorkspace& ws) {
  check_non_negative(edge_cost);
  ShortestPathTree& tree = ws.tree;
  tree.dist.assign(num_nodes, kInf);
  tree.parent_edge.assign(num_nodes, kInvalidEdge);
  tree.dist[static_cast<std::size_t>(root)] = 0.0;

  auto& heap = ws.heap;
  heap.clear();
  heap.emplace_back(0.0, root);
  std::uint64_t settled = 0;
  while (!heap.empty()) {
    HeapItem item;
    if constexpr (kHeap == HeapKind::kQuaternary) {
      item = heap4_pop(heap);
    } else {
      item = heap.front();
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
    }
    const auto [d, v] = item;
    if (d > tree.dist[static_cast<std::size_t>(v)]) continue;  // stale
    ++settled;
    for (const CsrAdjacency::Arc& arc : adj.arcs_of(v)) {
      const auto w = static_cast<std::size_t>(arc.target);
      const double nd = d + edge_cost[static_cast<std::size_t>(arc.edge)];
      if (nd < tree.dist[w]) {
        tree.dist[w] = nd;
        tree.parent_edge[w] = arc.edge;
        if constexpr (kHeap == HeapKind::kQuaternary) {
          heap4_push(heap, HeapItem{nd, arc.target});
        } else {
          heap.emplace_back(nd, arc.target);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
    }
  }
  ws.settled = settled;
}

void check_sizes(const Graph& g, std::span<const double> edge_cost) {
  SR_REQUIRE(edge_cost.size() == static_cast<std::size_t>(g.num_edges()),
             "edge cost vector size mismatch");
}

}  // namespace

ShortestPathTree dijkstra(const Graph& g, NodeId source,
                          std::span<const double> edge_cost) {
  DijkstraWorkspace ws;
  dijkstra(g, source, edge_cost, ws);
  return std::move(ws.tree);
}

const ShortestPathTree& dijkstra(const Graph& g, NodeId source,
                                 std::span<const double> edge_cost,
                                 DijkstraWorkspace& ws) {
  check_sizes(g, edge_cost);
  run_dijkstra<HeapKind::kQuaternary>(g.out_csr(),
                                      static_cast<std::size_t>(g.num_nodes()),
                                      source, edge_cost, ws);
  return ws.tree;
}

const ShortestPathTree& dijkstra_binary_heap(const Graph& g, NodeId source,
                                             std::span<const double> edge_cost,
                                             DijkstraWorkspace& ws) {
  check_sizes(g, edge_cost);
  run_dijkstra<HeapKind::kBinaryStd>(g.out_csr(),
                                     static_cast<std::size_t>(g.num_nodes()),
                                     source, edge_cost, ws);
  return ws.tree;
}

void dijkstra_from_bounds(const Graph& g, std::span<const double> edge_cost,
                          std::span<double> dist, DijkstraWorkspace& ws) {
  check_sizes(g, edge_cost);
  SR_REQUIRE(dist.size() == static_cast<std::size_t>(g.num_nodes()),
             "distance vector size mismatch");
  check_non_negative(edge_cost);
  const CsrAdjacency& out = g.out_csr();
  auto& heap = ws.heap;
  heap.clear();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const double du = dist[static_cast<std::size_t>(u)];
    for (const CsrAdjacency::Arc& arc : out.arcs_of(u)) {
      if (du + edge_cost[static_cast<std::size_t>(arc.edge)] <
          dist[static_cast<std::size_t>(arc.target)]) {
        heap4_push(heap, HeapItem{du, u});
        break;
      }
    }
  }
  // Every push is at least the key just popped, so pops come in
  // non-decreasing order and a node is settled at most once.
  std::uint64_t settled = 0;
  while (!heap.empty()) {
    const auto [d, v] = heap4_pop(heap);
    if (d > dist[static_cast<std::size_t>(v)]) continue;  // stale
    ++settled;
    for (const CsrAdjacency::Arc& arc : out.arcs_of(v)) {
      const auto w = static_cast<std::size_t>(arc.target);
      const double nd = d + edge_cost[static_cast<std::size_t>(arc.edge)];
      if (nd < dist[w]) {
        dist[w] = nd;
        heap4_push(heap, HeapItem{nd, arc.target});
      }
    }
  }
  ws.settled = settled;
}

ShortestPathTree dijkstra_to(const Graph& g, NodeId sink,
                             std::span<const double> edge_cost) {
  DijkstraWorkspace ws;
  dijkstra_to(g, sink, edge_cost, ws);
  return std::move(ws.tree);
}

const ShortestPathTree& dijkstra_to(const Graph& g, NodeId sink,
                                    std::span<const double> edge_cost,
                                    DijkstraWorkspace& ws) {
  check_sizes(g, edge_cost);
  run_dijkstra<HeapKind::kQuaternary>(g.in_csr(),
                                      static_cast<std::size_t>(g.num_nodes()),
                                      sink, edge_cost, ws);
  return ws.tree;
}

std::vector<EdgeId> extract_path(const Graph& g, const ShortestPathTree& tree,
                                 NodeId target) {
  std::vector<EdgeId> path;
  extract_path_into(g, tree, target, path);
  return path;
}

void extract_path_into(const Graph& g, const ShortestPathTree& tree,
                       NodeId target, std::vector<EdgeId>& out) {
  SR_REQUIRE(target >= 0 && target < g.num_nodes(), "target out of range");
  SR_REQUIRE(std::isfinite(tree.dist[static_cast<std::size_t>(target)]),
             "target unreachable");
  out.clear();
  NodeId v = target;
  while (tree.parent_edge[static_cast<std::size_t>(v)] != kInvalidEdge) {
    const EdgeId e = tree.parent_edge[static_cast<std::size_t>(v)];
    out.push_back(e);
    v = g.edge(e).tail;
  }
  std::reverse(out.begin(), out.end());
}

std::vector<char> shortest_path_edge_mask(const Graph& g, NodeId s, NodeId t,
                                          std::span<const double> edge_cost,
                                          double tol) {
  DijkstraWorkspace fwd;
  DijkstraWorkspace rev;
  const ShortestPathTree& from_s = dijkstra(g, s, edge_cost, fwd);
  const ShortestPathTree& to_t = dijkstra_to(g, t, edge_cost, rev);
  const double best = from_s.dist[static_cast<std::size_t>(t)];
  SR_REQUIRE(std::isfinite(best), "sink unreachable from source");
  std::vector<char> mask(static_cast<std::size_t>(g.num_edges()), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const double du = from_s.dist[static_cast<std::size_t>(edge.tail)];
    const double dv = to_t.dist[static_cast<std::size_t>(edge.head)];
    if (!std::isfinite(du) || !std::isfinite(dv)) continue;
    const double through = du + edge_cost[static_cast<std::size_t>(e)] + dv;
    if (through <= best + tol) mask[static_cast<std::size_t>(e)] = 1;
  }
  return mask;
}

}  // namespace stackroute
