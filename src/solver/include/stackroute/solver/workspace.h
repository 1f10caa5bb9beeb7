// Reusable scratch for the solver hot paths.
//
// assign_traffic, solve_bush and water_fill compile their latencies into a
// LatencyTable and run every inner loop on preallocated buffers from one of
// these. The workspace-less public overloads create a workspace per call —
// the *per-iteration* loops are allocation-free either way — while callers
// that solve repeatedly (OpTop's rounds, MOP's optimum + induced solves,
// sweep metrics) pass one workspace across calls so even the per-call
// setup stops allocating once the buffers have grown to the instance size.
//
// Solves are single-threaded, so a workspace serves one solve at a time
// and needs no per-thread copies: its owner (a call, a session, a sweep
// chain) is its only user. The bush scratch lives here too, which is what
// lets the engine's session byte accounting see it.
//
// Buffers are sized on use and never shrunk; a workspace carries no state
// between calls beyond capacity (delta_mask is the one exception: it must
// stay all-zero between equalization steps, which equalize_once maintains
// by construction).
//
// The compiled latency table is additionally *reused across calls* when the
// latency set is pointer-identical to the previous call's (see
// LatencyTable::ensure_compiled): a chained sweep re-solving the same
// network at a new demand skips recompilation entirely, and
// instance_revision() exposes the tag that proves when a topology change
// forced one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stackroute/latency/table.h"
#include "stackroute/network/dijkstra.h"
#include "stackroute/network/graph.h"
#include "stackroute/network/paths.h"
#include "stackroute/obs/counters.h"

namespace stackroute {

/// One origin's bush: a topological order over the nodes it reaches, the
/// edge set consistent with that order, and the origin's edge flows.
struct OriginBush {
  NodeId origin = kInvalidNode;
  std::vector<NodeId> order;    // topological order (origin first)
  std::vector<char> in_bush;    // by EdgeId
  std::vector<double> flow;     // by EdgeId, this origin's share

  [[nodiscard]] std::size_t footprint_bytes() const;
};

/// Scratch for the bush hot loops (solver/bush.h); sized on use, never
/// shrunk, carries no state between calls.
struct BushWorkspace {
  std::vector<std::int32_t> pos;     // node -> position in topo order
  std::vector<double> dmin;          // min-path cost from origin, per node
  std::vector<double> dmax;          // max used-path cost from origin
  std::vector<EdgeId> pmin;          // min-tree parent edge, per node
  std::vector<EdgeId> pmax;          // max-tree parent edge, per node
  std::vector<std::int32_t> indeg;   // Kahn in-degrees / bush in-degrees
  std::vector<NodeId> queue;         // Kahn FIFO scratch
  std::vector<std::int32_t> depth;   // tree depth scratch (initial order)
  std::vector<NodeId> chain;         // parent-chase scratch
  std::vector<double> total_flow;    // summed origin flows, by EdgeId
  std::vector<EdgeId> seg_max;       // max-segment edges of one shift
  std::vector<EdgeId> seg_min;       // min-segment edges of one shift
  std::vector<OriginBush> state;     // the live bushes during a solve
};

struct SolverWorkspace {
  LatencyTable table;             // compiled effective latencies
  DijkstraWorkspace dijkstra;     // shortest-path buffers
  DijkstraWorkspace dijkstra_rev;  // reverse-tree buffers (MOP's
                                   // tight-subgraph step)
  std::vector<double> costs;      // per-edge costs, maintained incrementally
  std::vector<double> dists;      // per-commodity shortest-path distances
  Path path_scratch;              // single-path buffer (equalization)
  std::vector<int> delta_mask;    // equalization ±1 mask; all-zero at rest
  std::vector<double> weights;    // water-filling residual weights
  BushWorkspace bush;             // solve_bush scratch

  /// Cumulative solver-work counters of every counted solve run on this
  /// workspace (see obs/counters.h). Collection is opt-in: install the
  /// workspace's counters as the thread's sink —
  ///   obs::CountersScope scope(ws.counters);
  /// — and each solve's ScopedCounterDelta merges its delta in here.
  /// Untouched (all zero) when no scope is installed.
  obs::SolveCounters counters;

  /// Instance-revision tag: bumps whenever a solve actually recompiled the
  /// latency table (topology or latency objects changed), stays put when
  /// only scalar knobs (demand, preload-free re-solves) did.
  [[nodiscard]] std::uint64_t instance_revision() const {
    return table.revision();
  }
};

}  // namespace stackroute
