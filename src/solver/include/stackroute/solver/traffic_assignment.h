// Path-equilibration traffic assignment (the library's primary network
// solver).
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
// Unlike the bush backend (bush.h), which returns edge flows only, this
// solver returns an explicit path decomposition per commodity — which MOP
// and the Wardrop checker need. Its warm start (AssignmentWarmStart) is
// that decomposition, rescaled per commodity and polished.
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
  /// Resource limits (equalization-step cap, wall-clock deadline, opt-in
  /// stall detection on the per-sweep spread). Inactive by default.
  SolveBudget budget;
};

struct AssignmentResult {
  std::vector<double> edge_flow;  // total over commodities, by EdgeId
  std::vector<std::vector<PathFlow>> commodity_paths;  // [commodity]
  double objective = 0.0;  // Beckmann or total cost, per FlowObjective
  int sweeps = 0;
  /// Exact equalization steps taken (each = one Dijkstra + one bisected
  /// pair move) — the solver's cost driver, reported so warm-start wins
  /// are observable.
  int steps = 0;
  /// converged == solve_ok(status); kept for existing call sites.
  bool converged = false;
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

/// Converged state of a prior assign_traffic run on the *same* graph and
/// latencies at (possibly) different demands — the warm-start payload for
/// chained solves along a sweep axis.
struct AssignmentWarmStart {
  std::vector<std::vector<PathFlow>> commodity_paths;  // [commodity]
  /// The demands those paths carried (one entry per commodity).
  std::vector<double> demands;

  [[nodiscard]] bool empty() const { return commodity_paths.empty(); }
};

/// Warm-started variant: seeds each commodity's active path set with the
/// prior paths, flows scaled per commodity by r_new/r_old (the
/// demand-rescaling projection; an exact fix-up on the largest path keeps
/// feasibility bitwise). A payload that does not fit the instance —
/// commodity count mismatch, non-positive prior demand, or any path that
/// is not a valid s_i-t_i path of this graph — falls back to the cold
/// all-or-nothing start, so a stale payload can cost time but never
/// correctness. Warm and cold runs converge to the same equilibrium to
/// opts.tol (unique edge flows for strictly increasing latencies).
AssignmentResult assign_traffic(const NetworkInstance& inst,
                                FlowObjective objective,
                                std::span<const double> preload,
                                const AssignmentOptions& opts,
                                SolverWorkspace& ws,
                                const AssignmentWarmStart& warm);

}  // namespace stackroute
