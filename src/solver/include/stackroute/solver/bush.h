// Origin-based bush assignment (Dial's Algorithm B / iTAPAS style).
//
// Groups commodities by origin and maintains, per origin, an acyclic
// subgraph (a "bush") that carries all of that origin's flow. Each outer
// iteration measures the relative gap (c·f − SPTT)/c·f — total cost at
// the current costs against the shortest-path total travel time, zero
// exactly at equilibrium — with one full-graph Dijkstra per origin, then,
// origin by origin, (a) improves the bush (drops zero-flow edges, adds
// strictly cost-improving edges, re-topological-sorts) and (b) equilibrates
// it with Newton flow shifts from the max-cost to the min-cost path
// segment below their divergence node. Shifts re-evaluate the touched edge
// costs immediately, so the method reaches gaps near machine precision on
// city-scale networks (see solver/backend.h).
//
// Determinism: a solve runs single-threaded on the caller's thread, every
// phase in origin order, so results and counters are a pure function of
// the inputs (and of the warm payload, when one is passed).
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

/// Minimizes `objective` over feasible flows of `inst` under the Leader's
/// edge `preload` (empty = none). For kTotalCost the Newton step slope is
/// 2·ℓ' plus a finite-difference estimate of x·ℓ'' — shifts are clipped
/// and costs re-evaluated, so the fixed point is the equal-marginal flow.
BushResult solve_bush(const NetworkInstance& inst, FlowObjective objective,
                      std::span<const double> preload = {},
                      const BushOptions& opts = {});

/// Same, reusing the caller's workspace across calls (see workspace.h; the
/// bush scratch is ws.bush). A non-null `warm` seeds the bushes and flows
/// (scaled by the proportional demand ratio), falling back to the cold
/// start when the payload does not fit. When `warm_out` is non-null the
/// final bushes are moved into it for the next solve in the chain (cleared
/// on numeric failure so a poisoned state is never republished).
BushResult solve_bush(const NetworkInstance& inst, FlowObjective objective,
                      std::span<const double> preload, const BushOptions& opts,
                      SolverWorkspace& ws, const BushWarmState* warm = nullptr,
                      BushWarmState* warm_out = nullptr);

}  // namespace stackroute
