// Origin-based bush assignment (Dial's Algorithm B / iTAPAS style).
//
// Groups commodities by origin and maintains, per origin, an acyclic
// subgraph (a "bush") that carries all of that origin's flow. Each outer
// iteration measures the relative gap (c·f − SPTT)/c·f — total cost at
// the current costs against the shortest-path total travel time, zero
// exactly at equilibrium — from each origin's shortest distances, then,
// origin by origin, (a) improves the bush (drops zero-flow edges, adds
// strictly cost-improving edges, re-topological-sorts) and (b) equilibrates
// it with Newton flow shifts from the max-cost to the min-cost path
// segment below their divergence node. Shifts re-evaluate the touched edge
// costs immediately, so the method reaches gaps near machine precision on
// city-scale networks (see solver/backend.h).
//
// Inner stopping rule: each outer iteration runs up to 16 equilibration
// passes per origin and stops early after a pass that moves nothing. A
// Beckmann pass shifts a node only when its max path costs more than its
// min path by over max(1e-14·(1+|dmin|), 0.1·gap·|dmin|), where gap is the
// relative gap the iteration just measured: balancing one bush to 1e-14 is
// wasted while the other origins still move its costs by about the gap.
// Once every node is within a tenth of the gap and no edge improves, the
// next gap is at most about a tenth of this one, so the threshold shrinks
// with the gap and the solve cannot stall on it (a share of 1.0 on both
// objectives left two grid-bpr scenario rows at the iteration cap).
// Total-cost solves keep the exact 1e-14 rule: MOP reads the optimum's
// per-origin split (origin_flows), and a loosely balanced split moved the
// warm β at Anaheim's native demand 2e-3 away from the cold one.
//
// Cost: the min/max trees, the drop scan and every equilibration pass walk
// only the origin's bush arcs (a compact per-origin in-arc list kept in
// ws.bush and remade only when the bush's edge set changes), so they cost
// O(bush arcs), not O(graph edges); only the add scan, the re-sort after an
// addition that points backward and the gap check's arc scan see every
// edge. An addition that points forward in the current topological order
// leaves that order valid, so it only remakes the in-arc list. Full-graph
// Dijkstras run only in a cold start, one per origin to build its first
// bush. The gap check needs none: as in Algorithm B the bush keeps (nearly
// all of) its origin's shortest paths, so one min-label pass over the
// in-arc list gives path-sum upper bounds, and dijkstra_from_bounds
// (network/dijkstra.h) scans every edge once and repairs only the labels
// some arc beats. Over the 16-point Anaheim golden sweep 6,851 of the
// 17,518 origin checks need a repair at all, and the repairs settle 76,759
// nodes where full Dijkstras would settle about 7.3 million. The result is
// bit for bit the full Dijkstra's: floating-point addition is monotone, so
// for costs >= 0 every path sum is at least Dijkstra's label, and
// Dijkstra's labels are the only path sums that no edge beats. So the SPTT,
// the gap and every shift are exactly what a full Dijkstra per origin would
// give (debug builds check every sink against one). The dijkstra_calls
// counter counts the cold-start Dijkstras plus the repairs that settle at
// least one node.
//
// Dust: rounding can leave 1e-14 of flow on an edge out of a node that
// receives none; no shift moves it and no drop removes it, so an improving
// edge into that node can close a cycle through it at every gap check. A
// re-sort that finds a cycle therefore first zeroes the flow out of every
// non-origin node with no flow-carrying in-edge, drops those edges and
// re-sorts once. There is no stall detector: a run ends converged, at the
// iteration cap, at the deadline, or on non-finite numbers.
//
// Threads and determinism: a solve runs on its caller's thread, origin by
// origin in a fixed order, and reads no thread count. So results and
// counters are a pure function of the inputs (and of the warm payload,
// when one is passed).
//
// Faults: every batch cost evaluation and every shift's cost refresh is
// one fault-injection event (util/fault.h), and a non-finite cost stops
// the solve as kNumericFailure with the last feasible flows — path
// equalization's contract.
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
  /// Resource limits (iteration cap, wall-clock deadline). Inactive by
  /// default; see status.h.
  SolveBudget budget;
};

struct BushResult {
  std::vector<double> edge_flow;  // total over origins, by EdgeId
  double objective = 0.0;
  /// The relative gap actually achieved — the honest quality bound on
  /// `edge_flow` whether or not the solve converged.
  double rel_gap = 0.0;
  int iterations = 0;
  SolveStatus status = SolveStatus::kConverged;
  /// This solve's work counters — all zero unless the calling thread had a
  /// counter sink installed (obs::CountersScope).
  obs::SolveCounters counters;
};

/// Commodities sharing a source, solved as one bush.
struct OriginGroup {
  NodeId origin = kInvalidNode;
  std::vector<std::size_t> commodities;  // indices, in commodity order
};

/// The instance's origins ascending, each with its commodities — the
/// order of solve_bush's bushes (EquilibriumWarmState::bushes).
std::vector<OriginGroup> group_by_origin(const NetworkInstance& inst);

/// Converged state of a prior solve_bush run on the *same* graph and
/// latencies at (possibly) different demands — the library's one
/// warm-start payload, carried by sweep chains, engine sessions and MOP
/// (see solver/backend.h; path equalization neither reads nor publishes
/// it). The bushes' flows are also the solve's per-origin split
/// (origin_flows). The payload is structurally
/// validated (edge counts, origin set, sinks, per-commodity demand
/// proportionality against the snapshot below) and an ill-fitting payload
/// falls back to the cold start, but topology identity of the graph itself
/// is the caller's unchecked precondition.
struct EquilibriumWarmState {
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
/// start when the payload does not fit. A seeded run that fails on
/// non-finite numbers or hits the iteration cap gets one cold retry (a
/// deadline hit does not: the retry would share the spent deadline). When
/// `warm_out` is non-null the final bushes are moved into it for the next
/// solve in the chain (cleared on numeric failure so a poisoned state is
/// never republished).
///
/// When `warm` aliases `warm_out` — as in sweep chains and engine sessions
/// — a payload that fits is consumed rather than copied: every bush is
/// validated first, then the whole payload is swapped into the workspace
/// and `warm_out` is left empty until the solve republishes into it. So a
/// solve that throws leaves `warm_out` either untouched or empty, never
/// half-moved. A `warm` that does not alias `warm_out` is only read.
BushResult solve_bush(const NetworkInstance& inst, FlowObjective objective,
                      std::span<const double> preload, const BushOptions& opts,
                      SolverWorkspace& ws,
                      const EquilibriumWarmState* warm = nullptr,
                      EquilibriumWarmState* warm_out = nullptr);

}  // namespace stackroute
