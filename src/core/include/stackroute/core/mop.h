// Algorithm MOP (Corollary 2.3, generalized to k commodities per §5): the
// minimum Leader portion β_G inducing the optimum on an arbitrary network,
// plus the optimal strategy, in polynomial time.
//
// Pipeline per the proof of Theorem 2.1, run per origin (§5):
//   1. Compute the optimum flow O and fix edge costs ℓ_e(o_e).
//   2. Per origin s, one Dijkstra under those costs gives the tight DAG:
//      the edges with d_s(u) + ℓ_e(o_e) = d_s(v) (footnote 5).
//   3. The free flow is the largest part of s's optimum routable entirely
//      inside its tight DAG — one max flow from s, with each tight edge
//      capped at s's own optimum flow on it, into a super-sink fed by an
//      arc t_j → super-sink capped at d_j per commodity j of s. Commodity
//      j's free share r'_j is the flow on its arc.
//   4. The Leader controls everything else: exactly the optimum flow on
//      every non-shortest path. β_G = 1 − (Σ_j r'_j)/r.
//   5. The followers' selfish routing of the free flow under the preload
//      reproduces O (every free path is a shortest s→t_j path under ℓ(o),
//      and equilibrium edge flows are unique), so C(S+T) = C(O):
//      approximation guarantee exactly 1. `induced_residual` checks it on
//      every run.
//
// Step 3 needs only each origin's optimum edge flows — what a bush holds
// (see origin_flows in solver/backend.h) — so β does not depend on how an
// origin's flow splits across its sinks. For k = 1 it is exactly the
// minimum. For k > 1 any per-commodity free flow is also a feasible
// per-origin one, so β is never above the per-commodity construction's;
// a different per-origin split of the *total* optimum could still free
// more, so β is an upper bound on the minimum portion.
#pragma once

#include <vector>

#include "stackroute/equilibrium/network.h"
#include "stackroute/network/instance.h"
#include "stackroute/network/maxflow.h"
#include "stackroute/network/paths.h"
#include "stackroute/obs/counters.h"

namespace stackroute {

struct MopCommodity {
  /// Optimum flow the Leader must control on non-shortest paths: the
  /// origin's Leader share decomposed into paths, the ones ending at t_i.
  std::vector<PathFlow> leader_paths;
  /// Optimum flow on shortest paths (left to the followers), likewise.
  std::vector<PathFlow> free_paths;
  double free_flow = 0.0;       // r'_i
  double controlled_flow = 0.0; // r_i − r'_i
  double shortest_cost = 0.0;   // L_i := dist(s_i, t_i) under ℓ_e(o_e)
  std::vector<char> tight_edges;  // the origin's tight-DAG mask
};

struct MopResult {
  /// The price of optimum β_G ∈ [0, 1] under a *strong* strategy (§4): the
  /// Leader may control a different fraction α_i of each commodity.
  double beta = 0.0;
  /// The price of optimum under a *weak* strategy: one uniform fraction α
  /// across commodities, so α must cover the worst commodity:
  /// max_i (controlled_i / r_i). Equals beta for single-commodity nets.
  double weak_beta = 0.0;
  std::vector<double> optimum_edge_flow;
  /// The optimum's path decomposition per commodity — path equalization
  /// only (empty on bush, whose split is the optimum's warm payload): the
  /// per-origin split LLF reads after a MOP run (origin_flows).
  std::vector<std::vector<PathFlow>> optimum_paths;
  std::vector<double> leader_edge_flow;    // the strategy S, on edges
  std::vector<double> follower_edge_flow;  // induced equilibrium T, on edges
  double optimum_cost = 0.0;
  double induced_cost = 0.0;  // C(S+T), verified against C(O)
  double free_flow_total = 0.0;
  std::vector<MopCommodity> commodities;
  /// max_e |s_e + τ_e − o_e| — the verification residual.
  double induced_residual = 0.0;
  /// Worst outcome over the pipeline's assignment solves (optimum +
  /// induced verification). Degraded solves leave best-so-far flows in
  /// place.
  SolveStatus status = SolveStatus::kConverged;
  /// Work counters of the whole pipeline (optimum solve, tight-DAG
  /// Dijkstras, verification solve) — all zero unless the calling thread
  /// had a counter sink installed (obs::CountersScope).
  obs::SolveCounters counters;
};

/// How step 3 computes the free flow inside the tight subgraph.
enum class FreeFlowMethod {
  /// Exact: Dinic max-flow with capacities o_e — the minimum-β choice.
  kMaxFlow,
  /// Ablation baseline: greedily peel shortest-path flow out of the tight
  /// subgraph (no residual rerouting). Can under-estimate the free flow on
  /// diamond-shaped tight subgraphs, i.e. over-estimate β; never wrong
  /// about inducing the optimum, just possibly wasteful.
  kGreedyPeel,
};

struct MopOptions {
  /// Backend, knobs and budget of the optimum and induced solves (bush by
  /// default); the budget is armed once and shared by both.
  EquilibriumRequest equilibrium;
  /// Slack below which an edge counts as lying on a shortest path.
  double tight_tol = 1e-7;
  /// Flows below this are treated as zero.
  double flow_tol = 1e-9;
  /// Skip the induced-equilibrium verification solve (benches that only
  /// need β can save the second solve).
  bool verify_induced = true;
  FreeFlowMethod free_flow_method = FreeFlowMethod::kMaxFlow;
};

MopResult mop(const NetworkInstance& inst, const MopOptions& opts = {});

/// Workspace/warm-start variant for chained β_G evaluations along a sweep
/// axis: reuses the caller's workspace across the optimum solve, every
/// tight-DAG Dijkstra and the induced verification solve. `optimum` and
/// `induced` are in-out payloads of those two solves (see
/// solver/backend.h): each seeds its solve unless empty and receives this
/// run's converged state; null means neither read nor publish. An
/// ill-fitting payload degrades to a cold solve, never to a wrong answer.
/// On bush, `optimum` then holds the optimum's per-origin flows
/// (origin_flows), which LLF reads after a MOP run.
MopResult mop(const NetworkInstance& inst, const MopOptions& opts,
              SolverWorkspace& ws, EquilibriumWarmState* optimum,
              EquilibriumWarmState* induced);

/// Convenience: just β_G.
double price_of_optimum(const NetworkInstance& inst);

/// The FreeFlowMethod::kGreedyPeel primitive, exposed for tests/benches:
/// peel widest paths without residual rerouting. Returns a feasible (but
/// possibly non-maximum) s→t flow under `capacity`, value capped at
/// `limit`. max_flow() dominates it whenever the capacities do not form a
/// balanced flow themselves.
MaxFlowResult greedy_peel_flow(const Graph& g, NodeId s, NodeId t,
                               std::span<const double> capacity, double limit,
                               double tol = 1e-12);

}  // namespace stackroute
