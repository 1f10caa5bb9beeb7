// Dinic max-flow on real-valued capacities.
//
// MOP uses this to compute the "free flow" r' — the largest part of the
// optimum that can be routed entirely inside the shortest-path subgraph
// (capacities = optimum edge flows o_e restricted to tight edges). With
// real capacities termination needs an explicit tolerance: augmenting
// paths with bottleneck <= tol are not pursued.
#pragma once

#include <span>
#include <vector>

#include "stackroute/network/graph.h"

namespace stackroute {

struct MaxFlowResult {
  double value = 0.0;
  /// Flow routed on each original edge (indexed by EdgeId).
  std::vector<double> edge_flow;
  /// max_flow_to_sinks only: flow absorbed at each sink (its arc into the
  /// super-sink), in the order the sinks were given.
  std::vector<double> sink_flow;
};

/// Max s→t flow respecting `capacity` (indexed by EdgeId; edges with zero
/// capacity are effectively absent). `limit` optionally caps the flow value
/// (used to stop at a commodity's demand); pass kInf for a true max flow.
MaxFlowResult max_flow(const Graph& g, NodeId s, NodeId t,
                       std::span<const double> capacity, double limit,
                       double tol = 1e-12);

/// Max flow from `s` into a super-sink fed by one arc per sinks[j], each
/// capped at limits[j] — MOP's per-origin free flow, where the limits are
/// the origin's commodity demands. Sinks may repeat (parallel arcs).
MaxFlowResult max_flow_to_sinks(const Graph& g, NodeId s,
                                std::span<const NodeId> sinks,
                                std::span<const double> limits,
                                std::span<const double> capacity,
                                double tol = 1e-12);

}  // namespace stackroute
