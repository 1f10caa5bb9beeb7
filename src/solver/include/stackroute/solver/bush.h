// Origin-based bush assignment (Dial's Algorithm B / iTAPAS style).
//
// Groups commodities by origin and maintains, per origin, an acyclic
// subgraph (a "bush") that carries all of that origin's flow. Each outer
// iteration measures the relative gap (c·f − SPTT)/c·f — total cost at
// the current costs against the shortest-path total travel time, zero
// exactly at equilibrium — with one full-graph Dijkstra per origin
// (parallelized across origins on the existing thread pool), then
// sequentially, origin by origin, (a) improves the bush (drops zero-flow
// edges, adds strictly cost-improving edges, re-topological-sorts) and (b)
// equilibrates it with Newton flow shifts from the max-cost to the
// min-cost path segment below their divergence node. Shifts re-evaluate
// the touched edge costs immediately, so the method reaches gaps near
// machine precision on city-scale networks (see solver/backend.h).
//
// Determinism: the shift phase is strictly sequential in origin order and
// the parallel Dijkstra fan-out only fills per-origin slots that are
// reduced in index order on the calling thread, so results (and counters)
// are bitwise identical at any thread count — the same contract the other
// solvers honor.
#pragma once

#include <span>
#include <vector>

#include "stackroute/network/instance.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/objective.h"
#include "stackroute/solver/status.h"
#include "stackroute/solver/workspace.h"

namespace stackroute {

struct BushOptions {
  /// Outer iterations (one gap check + one improve/equilibrate pass over
  /// every origin each).
  int max_iters = 500;
  /// Stop when (c·f − SPTT)/max(c·f, eps) <= rel_gap_tol. Tight by
  /// default: closing such gaps is this solver's purpose.
  double rel_gap_tol = 1e-10;
  /// Equilibration passes per origin per outer iteration (each pass
  /// rebuilds the min/max trees and shifts once at every unbalanced node).
  int max_inner = 16;
  /// Resource limits (iteration cap, wall-clock deadline, opt-in stall
  /// detection on the relative gap). Inactive by default; see status.h.
  SolveBudget budget;
};

struct BushResult {
  std::vector<double> edge_flow;  // total over origins, by EdgeId
  double objective = 0.0;
  /// The relative gap actually achieved — the honest quality bound on
  /// `edge_flow` whether or not the solve converged.
  double rel_gap = 0.0;
  int iterations = 0;
  /// converged == solve_ok(status); kept for symmetry with the siblings.
  bool converged = false;
  SolveStatus status = SolveStatus::kConverged;
  /// This solve's work counters — all zero unless the calling thread had a
  /// counter sink installed (obs::CountersScope).
  obs::SolveCounters counters;
};

/// One origin's bush: a topological order over the nodes it reaches, the
/// edge set consistent with that order, and the origin's edge flows.
struct OriginBush {
  NodeId origin = kInvalidNode;
  std::vector<NodeId> order;    // topological order (origin first)
  std::vector<char> in_bush;    // by EdgeId
  std::vector<double> flow;     // by EdgeId, this origin's share

  [[nodiscard]] std::size_t footprint_bytes() const;
};

/// Converged state of a prior solve_bush run on the *same* graph and
/// latencies at (possibly) different demands — the warm-start payload for
/// chained solves along a sweep axis. The payload is structurally
/// validated (edge counts, origin set, sinks, per-commodity demand
/// proportionality against the snapshot below) and an ill-fitting payload
/// falls back to the cold start, but topology identity of the graph itself
/// is the caller's unchecked precondition.
struct BushWarmState {
  std::vector<OriginBush> bushes;       // ascending by origin
  /// The commodities those bushes routed (endpoints + demands snapshot).
  std::vector<Commodity> commodities;

  [[nodiscard]] bool empty() const { return bushes.empty(); }
  void clear() {
    bushes.clear();
    commodities.clear();
  }
  [[nodiscard]] std::size_t footprint_bytes() const;
};

/// Reusable scratch for the bush hot loops; sized on use, never shrunk,
/// carries no state between calls (zero-allocation steady state, like
/// SolverWorkspace).
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

/// Minimizes `objective` over feasible flows of `inst` under the Leader's
/// edge `preload` (empty = none). For kTotalCost the Newton step slope is
/// 2·ℓ' plus a finite-difference estimate of x·ℓ'' — shifts are clipped
/// and costs re-evaluated, so the fixed point is the equal-marginal flow.
BushResult solve_bush(const NetworkInstance& inst, FlowObjective objective,
                      std::span<const double> preload = {},
                      const BushOptions& opts = {});

/// Same, reusing the caller's workspaces across calls (see workspace.h).
BushResult solve_bush(const NetworkInstance& inst, FlowObjective objective,
                      std::span<const double> preload, const BushOptions& opts,
                      SolverWorkspace& ws, BushWorkspace& bw);

/// Warm-started variant: seeds the bushes and flows from `warm` (scaled by
/// the proportional demand ratio), falling back to the cold start when the
/// payload does not fit. When `warm_out` is non-null the final bushes are
/// moved into it for the next solve in the chain (cleared on numeric
/// failure so a poisoned state is never republished).
BushResult solve_bush(const NetworkInstance& inst, FlowObjective objective,
                      std::span<const double> preload, const BushOptions& opts,
                      SolverWorkspace& ws, BushWorkspace& bw,
                      const BushWarmState* warm, BushWarmState* warm_out);

}  // namespace stackroute
