// Path utilities: enumeration, costing, and flow decomposition.
//
// MOP reasons about *paths* (shortest vs non-shortest under optimum costs)
// while the solvers produce *edge* flows; decompose_flow bridges the two by
// peeling an edge flow into path flows (with cycle cancellation, so it is
// safe on any conservation-respecting flow).
#pragma once

#include <span>
#include <vector>

#include "stackroute/network/graph.h"

namespace stackroute {

/// A path is the sequence of edge ids from source to sink.
using Path = std::vector<EdgeId>;

struct PathFlow {
  Path path;
  double flow = 0.0;
};

/// Sum of edge costs along the path.
double path_cost(std::span<const double> edge_cost, const Path& path);

/// True if `path` is a contiguous s→t walk in g.
bool is_path(const Graph& g, NodeId s, NodeId t, const Path& path);

/// All simple s→t paths found by DFS, up to `max_paths` (throws if the
/// graph has more — enumeration is meant for small/analytic instances).
std::vector<Path> enumerate_paths(const Graph& g, NodeId s, NodeId t,
                                  std::size_t max_paths = 10000);

/// Decomposes a non-negative, conservation-respecting s→t edge flow into at
/// most |E| path flows (plus silently cancelled cycles). Edge flow below
/// `tol` is treated as zero.
std::vector<PathFlow> decompose_flow(const Graph& g, NodeId s, NodeId t,
                                     std::span<const double> edge_flow,
                                     double tol = 1e-12);

/// Decomposes one origin's flow into paths tagged by sink: `edge_flow`
/// leaves `origin` and is absorbed at sinks[j] in the amounts demands[j]
/// (a bush's per-origin flow, or MOP's free or Leader share of it).
/// Returns one path list per sink, in the order given; each list's flows
/// sum to its demand up to the tolerance.
///
/// The tolerance is demand-relative, because solver flows conserve only up
/// to roundoff on the scale of the demand they were solved for: `scale`
/// is that demand (the origin's total; 0 = Σ demands), and flows and
/// demands below 1e-12·scale count as zero. A share of an origin's flow
/// (MOP's free or Leader part) keeps the whole origin's scale. A walk
/// that dead-ends at a node with no outflow and no demand left meets such
/// a conservation defect: its flow is dropped, and more than 1e-6·scale
/// dropped in total throws. Walks follow the largest residual out-edge,
/// stop at the first sink with demand left, and cancel any cycle they
/// close, so the result is deterministic and the loop ends after at most
/// |E| + |sinks| paths.
std::vector<std::vector<PathFlow>> decompose_origin_flow(
    const Graph& g, NodeId origin, std::span<const NodeId> sinks,
    std::span<const double> demands, std::span<const double> edge_flow,
    double scale = 0.0);

/// Accumulates path flows back onto edges (inverse of decompose_flow).
std::vector<double> path_flows_to_edge_flows(const Graph& g,
                                             std::span<const PathFlow> paths);

}  // namespace stackroute
