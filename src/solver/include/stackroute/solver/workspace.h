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

#include <cstdint>
#include <vector>

#include "stackroute/latency/table.h"
#include "stackroute/network/dijkstra.h"
#include "stackroute/network/paths.h"
#include "stackroute/obs/counters.h"

namespace stackroute {

struct SolverWorkspace {
  LatencyTable table;             // compiled effective latencies
  DijkstraWorkspace dijkstra;     // shortest-path buffers (serial contexts;
                                  // parallel fan-outs use thread_local ones)
  DijkstraWorkspace dijkstra_rev;  // reverse-tree buffers (MOP's
                                   // tight-subgraph step)
  std::vector<double> costs;      // per-edge costs, maintained incrementally
  std::vector<double> dists;      // per-commodity shortest-path distances
  Path path_scratch;              // single-path buffer (equalization)
  std::vector<int> delta_mask;    // equalization ±1 mask; all-zero at rest
  std::vector<double> weights;    // water-filling residual weights
  std::vector<std::uint64_t> settled_scratch;  // per-origin Dijkstra
                                               // settled counts, summed on
                                               // the calling thread after
                                               // parallel fan-outs

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
