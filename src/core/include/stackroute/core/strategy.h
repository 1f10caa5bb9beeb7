// Stackelberg strategies — evaluation and the classical baselines the
// paper positions itself against, on both input shapes (§4): s–t parallel
// links and arbitrary single-commodity (or k-commodity) networks.
//
//  * Aloof  — the Leader does nothing; followers reach the plain Nash N.
//  * SCALE  — s = α·O (Roughgarden; analyzed for general nets in [18]).
//  * LLF    — Largest Latency First (Roughgarden [37]): on parallel links,
//             optimally load links in decreasing optimum latency ℓ_i(o_i)
//             until the αr budget runs out; guarantees
//             C(S+T) <= (1/α)·C(O) there. On networks, the same greedy
//             per commodity over its paths of a per-origin decomposition
//             of the optimum, ordered by decreasing path latency ℓ(O),
//             with a fractional last path —
//             no such guarantee survives on general graphs, which is
//             exactly the gap the paper's MOP closes (C(S+T) = C(O) at
//             α = β_G).
//
// Both shapes share the greedy budget fill, which maintains the exact
// invariant Σ s = min(α·r, r) to 1 ulp (a naive running `budget -= take`
// leaks ulps across many links and can truncate the final fractional
// item on a tiny negative remainder).
#pragma once

#include <span>
#include <vector>

#include "stackroute/equilibrium/network.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/network/instance.h"
#include "stackroute/obs/counters.h"

namespace stackroute {

// ---- Parallel links ------------------------------------------------------

struct StackelbergOutcome {
  std::vector<double> strategy;  // s_i (the Leader's flow per link)
  std::vector<double> induced;   // t_i (followers' induced Nash)
  double cost = 0.0;             // C(S+T)
  double ratio = 0.0;            // C(S+T)/C(O) — the a-posteriori anarchy cost
  /// Water-filling level of the induced Nash — the warm-start hint for the
  /// next point of a chained α-sweep (see solve_induced in parallel.h).
  double induced_level = 0.0;
  /// How the induced water-filling solve ended (see solver/status.h);
  /// degraded solves report best-so-far flows with `supply_gap` as the
  /// honest miss on the followers' demand.
  SolveStatus status = SolveStatus::kConverged;
  double supply_gap = 0.0;
  /// Work counters of the induced solve — all zero unless the calling
  /// thread had a counter sink installed (obs::CountersScope).
  obs::SolveCounters counters;
};

/// Routes the followers' best response to `strategy` and reports the
/// Stackelberg equilibrium cost and its ratio to the optimum. Solves the
/// optimum itself; throws stackroute::Error on degenerate instances whose
/// optimum cost is zero (the ratio is undefined there).
StackelbergOutcome evaluate_strategy(const ParallelLinks& m,
                                     std::span<const double> strategy);

/// Precomputed-optimum / workspace / warm / budgeted variant for α-sweeps:
/// `optimum_cost` must be C(O) > 0 (one solve_optimum feeds every α
/// point); the induced water-fill reuses `ws`, brackets from `level_hint`
/// (NaN = cold; see water_filling.h — hints steer the root search only,
/// never the answer) and honors `budget` (see SolveBudget in
/// solver/status.h); a budget hit or numeric failure degrades the outcome
/// (status/supply_gap) instead of throwing.
StackelbergOutcome evaluate_strategy(const ParallelLinks& m,
                                     std::span<const double> strategy,
                                     double optimum_cost, double tol,
                                     SolverWorkspace& ws, double level_hint,
                                     const SolveBudget& budget);

/// s = 0: the do-nothing baseline (induces the plain Nash).
std::vector<double> aloof_strategy(const ParallelLinks& m);

/// s = α·O.
std::vector<double> scale_strategy(const ParallelLinks& m, double alpha);

/// Precomputed-optimum overload: `optimum_flows` must be O of (M, r).
std::vector<double> scale_strategy(const ParallelLinks& m, double alpha,
                                   std::span<const double> optimum_flows);

/// Largest Latency First with budget min(α·r, r), maintained exactly
/// (Σ s_i = min(α·r, r) to 1 ulp; at α = 1 the last-filled link absorbs
/// the rounding gap between Σ o_i and r).
std::vector<double> llf_strategy(const ParallelLinks& m, double alpha);

/// Precomputed-optimum overload: `optimum_flows` must be O of (M, r).
std::vector<double> llf_strategy(const ParallelLinks& m, double alpha,
                                 std::span<const double> optimum_flows);

// ---- General networks ----------------------------------------------------

/// A Leader strategy on a network: an edge preload s (the flow the Leader
/// routes) plus the demand it serves per commodity — solve_induced needs
/// the followers' demands, which are r_i − controlled[i].
struct NetworkStrategy {
  std::vector<double> preload;     // s_e, by EdgeId
  std::vector<double> controlled;  // Leader-served demand, per commodity
};

struct NetworkStackelbergOutcome {
  NetworkStrategy strategy;
  std::vector<double> induced;  // followers' edge flows t_e
  double cost = 0.0;            // C(S+T) on the instance's own latencies
  double ratio = 0.0;           // C(S+T)/C(O)
  /// converged == solve_ok(status); kept because perfbench's serve-load
  /// client reads it.
  bool converged = true;
  /// How the induced solve ended (see solver/status.h). Budgets flow in
  /// through EquilibriumRequest::budget.
  SolveStatus status = SolveStatus::kConverged;
  /// Work counters of the induced solve — all zero unless the calling
  /// thread had a counter sink installed (obs::CountersScope).
  obs::SolveCounters counters;
};

/// Routes the followers' Wardrop response to the strategy's preload (each
/// commodity keeps r_i − controlled[i] of selfish flow; fully-controlled
/// commodities drop out of the solve) and reports C(S+T) and its ratio to
/// C(O), both solved on the backend `req` names. Throws stackroute::Error
/// on degenerate instances whose optimum cost is zero.
NetworkStackelbergOutcome evaluate_strategy(const NetworkInstance& inst,
                                            const NetworkStrategy& strategy,
                                            const EquilibriumRequest& req = {});

/// Precomputed-optimum / workspace / warm-start variant for chained
/// α-sweeps: `optimum_cost` must be C(O) > 0; the induced solve runs on
/// `ws` with `warm` as its in-out follower payload (see solve_induced in
/// equilibrium/network.h: null = neither read nor publish, empty = cold;
/// an ill-fitting payload falls back to the cold start, never to a wrong
/// answer). When the Leader routes everything there is no induced solve
/// and `warm` is left empty.
NetworkStackelbergOutcome evaluate_strategy(const NetworkInstance& inst,
                                            const NetworkStrategy& strategy,
                                            double optimum_cost,
                                            const EquilibriumRequest& req,
                                            SolverWorkspace& ws,
                                            EquilibriumWarmState* warm);

/// s = 0 on every edge: the do-nothing baseline.
NetworkStrategy aloof_strategy(const NetworkInstance& inst);

/// s = α·O on edges, serving α·r_i of every commodity.
NetworkStrategy scale_strategy(const NetworkInstance& inst, double alpha);

/// Precomputed-optimum overload: `optimum` must be solve_optimum's
/// assignment for `inst` (only its edge flows are scaled).
NetworkStrategy scale_strategy(const NetworkInstance& inst, double alpha,
                               const NetworkAssignment& optimum);

/// LLF on a network: each origin's optimum flow is decomposed into paths
/// tagged by sink (decompose_origin_flow); per commodity, those paths are
/// ordered by decreasing path latency ℓ(O) and filled greedily up to the
/// budget min(α·r_i, r_i), the last path fractionally (same 1-ulp budget
/// invariant as the parallel-links fill).
NetworkStrategy llf_strategy(const NetworkInstance& inst, double alpha);

/// Precomputed-optimum overload: `optimum` must be solve_optimum's
/// assignment for `inst`, and `optimum_state` the payload that solve
/// published — the per-origin flows are the optimum's own paths on pe and
/// that payload's bushes on bush (see origin_flows in solver/backend.h).
/// Throws when that gives no per-origin flows (a multi-origin bush
/// optimum that failed numerically).
NetworkStrategy llf_strategy(const NetworkInstance& inst, double alpha,
                             const NetworkAssignment& optimum,
                             const EquilibriumWarmState& optimum_state);

}  // namespace stackroute
