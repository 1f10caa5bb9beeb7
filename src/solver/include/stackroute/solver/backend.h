// The pluggable equilibrium-backend seam.
//
// Every network solve — equilibrium/'s solve_nash, solve_optimum and
// solve_induced, hence MOP, the Stackelberg baselines, the engine's typed
// requests, sweep scenarios and the serve protocol — names a backend from
// the registry below instead of a solver function, and funnels through
// solve_equilibrium(). The two backends minimize the same convex program
// and agree on the equilibrium cost to their tolerances; they differ in
// what they return and where they are fast:
//
//   kBush              edge flows via per-origin acyclic bushes (Dial's
//                      Algorithm B style); reaches 1e-10-and-below relative
//                      gaps on city-scale TNTP networks; the default —
//                      golden sweep tables are frozen on it.
//   kPathEqualization  explicit path decomposition per commodity (what the
//                      Wardrop path checker needs); converges to a path
//                      cost spread. A cold reference solver: it neither
//                      reads nor publishes warm state.
//
// Warm state is one type, the bush payload (EquilibriumWarmState in
// bush.h). A kBush solve seeds from it and publishes its converged bushes
// back; a kPathEqualization solve ignores `warm_in` and clears `warm_out`,
// so after any solve `warm_out` holds that solve's payload or nothing.
//
// MOP's free flow and LLF's path order are computed from the per-origin
// split of the optimum (origin_flows below): the bushes' own flows, or
// the commodity paths summed per origin — so β and the baselines run on
// either backend.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stackroute/network/instance.h"
#include "stackroute/solver/bush.h"
#include "stackroute/solver/traffic_assignment.h"

namespace stackroute {

enum class EquilibriumBackend : std::uint8_t {
  kPathEqualization = 0,
  kBush = 1,
};

/// The backend's one name ("pe" or "bush") — what tables, the CLI and
/// the serve protocol print.
const char* to_string(EquilibriumBackend backend) noexcept;

/// All registered backends, in enum order.
std::span<const EquilibriumBackend> equilibrium_backends() noexcept;

/// The names joined for usage/error text: "pe or bush".
const char* equilibrium_backend_names() noexcept;

/// Parses a backend name; throws stackroute::Error naming the accepted
/// values on anything else.
EquilibriumBackend parse_equilibrium_backend(std::string_view name);

/// One equilibrium solve, backend-agnostically: which backend, which
/// convex program, one budget. The chosen backend runs with its default
/// options (AssignmentOptions{} or BushOptions{}) under `budget` — the
/// engine/sweep layers set deadlines here once, backend-independently.
struct EquilibriumRequest {
  EquilibriumBackend backend = EquilibriumBackend::kBush;
  FlowObjective objective = FlowObjective::kBeckmann;
  SolveBudget budget;
};

/// The uniform result: edge flows plus the honest quality bound in the
/// backend's native metric (spread for path equalization, relative gap
/// for bush; the unused one keeps its zero default).
struct EquilibriumResult {
  std::vector<double> edge_flow;
  /// Path decomposition — kPathEqualization only (empty otherwise).
  std::vector<std::vector<PathFlow>> commodity_paths;
  double objective = 0.0;
  double spread = 0.0;
  double rel_gap = 0.0;
  int iterations = 0;
  SolveStatus status = SolveStatus::kConverged;
  obs::SolveCounters counters;
};

/// Solves the requested program with the requested backend. kBush seeds
/// from `warm_in` when its payload fits (see solve_bush) and, when
/// `warm_out` is non-null, publishes the converged bushes there for the
/// next solve in the chain; kPathEqualization solves cold and clears
/// `warm_out`. `warm_in` and `warm_out` may alias.
EquilibriumResult solve_equilibrium(const NetworkInstance& inst,
                                    std::span<const double> preload,
                                    const EquilibriumRequest& req,
                                    SolverWorkspace& ws,
                                    const EquilibriumWarmState* warm_in,
                                    EquilibriumWarmState* warm_out);

/// One origin's share of a flow: the edge flow of every commodity that
/// leaves `origin`, summed.
struct OriginFlow {
  NodeId origin = kInvalidNode;
  /// Indices of the commodities leaving `origin`, in commodity order.
  std::vector<std::size_t> commodities;
  std::span<const double> edge_flow;  // by EdgeId
};

/// The per-origin split of a solve's `edge_flow` for `inst`, ascending by
/// origin. A path-equalization solve's split is its own `commodity_paths`
/// summed per origin into `storage`, which the views then point into; a
/// bush solve (no paths) views the bushes of the payload it published in
/// `warm` in place (no copy). A payload that does not match the instance
/// — a bush solve that failed numerically publishes none — leaves a
/// single-origin instance with `edge_flow` as its one origin's flow, and
/// any other empty.
std::vector<OriginFlow> origin_flows(
    const NetworkInstance& inst, std::span<const double> edge_flow,
    std::span<const std::vector<PathFlow>> commodity_paths,
    const EquilibriumWarmState& warm,
    std::vector<std::vector<double>>& storage);

}  // namespace stackroute
