// Dijkstra shortest paths with externally supplied non-negative edge costs
// (footnote 5 of the paper), plus the "tight edge" shortest-path subgraph
// of one s→t pair: edge e = (u,v) lies on some shortest s→t path iff
// dist_s(u) + c_e + dist_t(v) = dist_s(t).
//
// Two call shapes: the value-returning functions allocate a fresh tree per
// call; the workspace overloads reuse dist/parent/heap buffers across calls
// (each SolverWorkspace owns one, making repeated shortest-path queries
// allocation-free). Both run on the graph's cached CSR adjacency and
// produce identical trees: with all queue keys distinct — guaranteed,
// since a node is only re-pushed with a strictly smaller distance — the
// relaxation order is independent of the heap implementation.
//
// Cost non-negativity is validated in debug builds only (SR_ASSERT behind
// NDEBUG): the scan is O(m) per call, inside the solvers' hottest loop, and
// every in-tree caller derives costs from non-negative latencies.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "stackroute/network/graph.h"
#include "stackroute/obs/counters.h"

namespace stackroute {

struct ShortestPathTree {
  /// dist[v] = cost of the cheapest path; +inf when unreachable.
  std::vector<double> dist;
  /// parent_edge[v] = last edge on a cheapest path (kInvalidEdge at the
  /// root and at unreachable nodes).
  std::vector<EdgeId> parent_edge;
};

/// Reusable buffers for the workspace overloads: the result tree plus the
/// binary-heap storage. Start empty; sized on first use, never shrunk.
struct DijkstraWorkspace {
  ShortestPathTree tree;
  std::vector<std::pair<double, NodeId>> heap;
  /// Nodes settled (non-stale pops) by the most recent run on this
  /// workspace — always recorded (one register increment per pop), so
  /// call sites can tally it (count_dijkstra, obs/counters.h).
  std::uint64_t settled = 0;
};

/// Tallies one Dijkstra run into the calling thread's counter sink (no-op
/// when collection is off). Counting lives at the call sites, never inside
/// dijkstra() itself.
inline void count_dijkstra(const DijkstraWorkspace& ws) {
  obs::count(&obs::SolveCounters::dijkstra_calls);
  obs::count(&obs::SolveCounters::dijkstra_settled, ws.settled);
}

/// Single-source shortest paths from `source` following edge direction.
ShortestPathTree dijkstra(const Graph& g, NodeId source,
                          std::span<const double> edge_cost);

/// Allocation-free variant: fills ws.tree (reusing its buffers) and returns
/// a reference to it, valid until the next call with the same workspace.
/// Runs on a 4-ary heap (shallower sift paths on the reused buffer than
/// the binary layout).
const ShortestPathTree& dijkstra(const Graph& g, NodeId source,
                                 std::span<const double> edge_cost,
                                 DijkstraWorkspace& ws);

/// Lowers `dist` to the shortest distances from its one source, given
/// labels that are each the cost of some path from that source (0 at the
/// source, +inf where no path is known): one scan of every edge seeds the
/// heap with the tails of arcs that beat their head's label, and the
/// relaxation runs until no label drops. For non-negative costs the result
/// is bit for bit dijkstra()'s dist — floating-point addition is monotone,
/// so every path sum is >= dijkstra's label and dijkstra's labels are the
/// only path sums no edge beats. Touches only `dist` and ws.heap (dist may
/// be ws.tree.dist; parent edges are not kept); ws.settled counts the
/// pops, 0 when the bounds were already exact.
void dijkstra_from_bounds(const Graph& g, std::span<const double> edge_cost,
                          std::span<double> dist, DijkstraWorkspace& ws);

/// The pre-4-ary binary-heap implementation (std::push_heap/pop_heap),
/// kept under a compile-time heap switch as the reference: with all live
/// queue keys distinct, the relaxation order — hence dist/parent_edge — is
/// identical between the two heaps, which the algorithms test asserts
/// exactly.
const ShortestPathTree& dijkstra_binary_heap(const Graph& g, NodeId source,
                                             std::span<const double> edge_cost,
                                             DijkstraWorkspace& ws);

/// Shortest distance *to* `sink` from every node (Dijkstra on the reverse
/// graph); parent_edge[v] is the first edge of a cheapest v→sink path.
ShortestPathTree dijkstra_to(const Graph& g, NodeId sink,
                             std::span<const double> edge_cost);

/// Allocation-free variant of dijkstra_to.
const ShortestPathTree& dijkstra_to(const Graph& g, NodeId sink,
                                    std::span<const double> edge_cost,
                                    DijkstraWorkspace& ws);

/// Cheapest source→target path from a forward tree; empty if target is the
/// source. Throws if the target is unreachable.
std::vector<EdgeId> extract_path(const Graph& g, const ShortestPathTree& tree,
                                 NodeId target);

/// Overwrites `out` with the cheapest source→target path, reusing its
/// storage (the allocation-free counterpart of extract_path).
void extract_path_into(const Graph& g, const ShortestPathTree& tree,
                       NodeId target, std::vector<EdgeId>& out);

/// Mask (indexed by EdgeId) of edges lying on some shortest s→t path under
/// `edge_cost`, using absolute slack tolerance `tol` (one forward and one
/// reverse Dijkstra; MOP's per-origin tight DAG needs only the forward
/// one).
std::vector<char> shortest_path_edge_mask(const Graph& g, NodeId s, NodeId t,
                                          std::span<const double> edge_cost,
                                          double tol = 1e-9);

}  // namespace stackroute
