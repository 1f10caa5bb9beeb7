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
//                      cost spread.
//
// Both publish the per-origin split of their flow in the warm payload
// (origin_flows below): the bushes' own flows, or the commodity paths
// summed per origin. MOP's free flow and LLF's path order are computed
// from that split, so β and the baselines run on either backend.
//
// Warm state is backend-tagged: a session or sweep chain that switches
// backend drops the other backend's payload instead of feeding, say, a
// path decomposition to a bush solve (EquilibriumWarmState::prepare).
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
/// convex program, the Leader's preload, per-backend knobs, one shared
/// budget.
struct EquilibriumRequest {
  EquilibriumBackend backend = EquilibriumBackend::kBush;
  FlowObjective objective = FlowObjective::kBeckmann;
  /// Knobs of the backend that runs; the other's are ignored.
  AssignmentOptions assignment;
  BushOptions bush;
  /// When active, overrides the chosen backend's own opts.budget — the
  /// engine/sweep layers set deadlines here once, backend-independently.
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
  bool converged = false;
  SolveStatus status = SolveStatus::kConverged;
  obs::SolveCounters counters;
};

/// Backend-tagged warm payload for chained solves. Exactly one payload is
/// meaningful at a time — the one matching `backend`; prepare() enforces
/// that on every backend switch.
struct EquilibriumWarmState {
  EquilibriumBackend backend = EquilibriumBackend::kBush;
  /// kPathEqualization: converged path decomposition + demand snapshot.
  AssignmentWarmStart paths;
  /// kBush: the per-origin bushes.
  BushWarmState bush;

  [[nodiscard]] bool empty() const {
    return paths.empty() && bush.empty();
  }
  /// Drops every payload (shrinking nothing; buffers are reused).
  void clear();
  /// Retags for `next`, clearing all payloads on a backend switch — stale
  /// cross-backend state never seeds a solve.
  void prepare(EquilibriumBackend next);
};

/// Solves the requested program with the requested backend, seeding from
/// `warm_in` when its tag and payload fit (see each backend's warm
/// contract) and, when `warm_out` is non-null, publishing the converged
/// state back for the next solve in the chain. `warm_in` and `warm_out`
/// may alias.
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

/// The per-origin split of `edge_flow`, the flow of the solve that
/// published `warm` for `inst`, ascending by origin. kBush views the
/// bushes' own flow vectors in place (no copy); kPathEqualization sums
/// each origin's commodity paths into `storage`, which the views then
/// point into. A payload that does not match the instance — a solve that
/// failed numerically publishes none — leaves a single-origin instance
/// with `edge_flow` as its one origin's flow, and any other empty.
std::vector<OriginFlow> origin_flows(const NetworkInstance& inst,
                                     std::span<const double> edge_flow,
                                     const EquilibriumWarmState& warm,
                                     std::vector<std::vector<double>>& storage);

}  // namespace stackroute
