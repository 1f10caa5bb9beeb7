// Path-equilibration traffic assignment: the `pe` backend, kept as a cold
// reference solver next to the production bush backend (bush.h).
//
// Solves the two convex routing programs of objective.h to high accuracy
// by maintaining, per commodity, an active set of paths and repeatedly
// shifting flow from the costliest active path to the cheapest path until
// all used paths sit within `tol` of the minimum — which is precisely the
// Wardrop condition (Nash) or the equal-marginal condition (optimum).
// Each shift is a 1-D convex problem solved by bisection; the Beckmann /
// total-cost objective decreases monotonically, and for strictly
// increasing latencies the unique edge flows are recovered to ~tol.
//
// Unlike the bush backend, which returns edge flows only, this solver
// returns an explicit path decomposition per commodity — what the Wardrop
// path checker reads, and an independent cross-check of the bush answers.
// Every solve starts cold (all-or-nothing); it neither reads nor publishes
// warm state.
#pragma once

#include <span>
#include <vector>

#include "stackroute/network/instance.h"
#include "stackroute/network/paths.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/objective.h"
#include "stackroute/solver/status.h"
#include "stackroute/solver/workspace.h"

namespace stackroute {

struct AssignmentOptions {
  /// Path-cost equalization tolerance (absolute, on the latency scale).
  double tol = 1e-10;
  /// Outer sweeps over commodities.
  int max_sweeps = 2000;
  /// Inner equalization steps per commodity per sweep.
  int max_inner = 200;
  /// Resource limits (equalization-step cap, wall-clock deadline).
  /// Inactive by default.
  SolveBudget budget;
};

struct AssignmentResult {
  std::vector<double> edge_flow;  // total over commodities, by EdgeId
  std::vector<std::vector<PathFlow>> commodity_paths;  // [commodity]
  double objective = 0.0;  // Beckmann or total cost, per FlowObjective
  int sweeps = 0;
  /// Exact equalization steps taken (each = one Dijkstra + one bisected
  /// pair move) — the solver's cost driver.
  int steps = 0;
  /// How the solve ended. A degraded status means the flows/paths are the
  /// best-so-far feasible state with quality bound `spread`.
  SolveStatus status = SolveStatus::kConverged;
  /// The worst path-cost spread measured in the last completed sweep —
  /// the achieved counterpart of opts.tol (<= tol iff converged).
  double spread = 0.0;
  /// This solve's work counters — all zero unless the calling thread had a
  /// counter sink installed (obs::CountersScope).
  obs::SolveCounters counters;
};

/// Solves min objective over feasible flows of `inst`, with the Leader's
/// edge preload shifting latencies (empty span = no preload). Throws on
/// malformed instances.
AssignmentResult assign_traffic(const NetworkInstance& inst,
                                FlowObjective objective,
                                std::span<const double> preload = {},
                                const AssignmentOptions& opts = {});

/// Same, reusing the caller's workspace across calls (see workspace.h).
AssignmentResult assign_traffic(const NetworkInstance& inst,
                                FlowObjective objective,
                                std::span<const double> preload,
                                const AssignmentOptions& opts,
                                SolverWorkspace& ws);

}  // namespace stackroute
