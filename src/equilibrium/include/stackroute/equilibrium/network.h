// Nash, optimum and induced equilibria on multicommodity networks, plus
// the Wardrop checker for path flows (§4 "Multicommodity networks").
#pragma once

#include <span>
#include <vector>

#include "stackroute/network/instance.h"
#include "stackroute/network/paths.h"
#include "stackroute/solver/backend.h"

namespace stackroute {

struct NetworkAssignment {
  std::vector<double> edge_flow;  // by EdgeId
  /// Path decomposition per commodity — filled by the path-equalization
  /// backend only (the Wardrop path checker reads it, and origin_flows
  /// splits it per origin); a bush solve's per-origin flows are its warm
  /// payload instead.
  std::vector<std::vector<PathFlow>> commodity_paths;
  /// Total cost C(f) = Σ_e f_e·ℓ_e(f_e) with the instance's own latencies
  /// (no preload): the quantity the paper compares.
  double cost = 0.0;
  /// converged == solve_ok(status); kept for existing call sites.
  bool converged = false;
  /// How the underlying solve ended (see solver/status.h).
  SolveStatus status = SolveStatus::kConverged;
};

// Every solve below runs on the backend `req` names (see solver/backend.h;
// bush by default) and overrides req.objective with its own program. The
// workspace variants reuse the caller's buffers; `warm` is an in-out bush
// payload (EquilibriumWarmState): a non-empty one seeds the solve, and
// the solve publishes its converged state back into it; null means
// neither read nor publish. A pe solve reads nothing and leaves `warm`
// empty. A bush solve's per-origin flows are read back from `warm`
// (origin_flows).

/// Wardrop equilibrium of the instance (no Leader).
NetworkAssignment solve_nash(const NetworkInstance& inst,
                             const EquilibriumRequest& req = {});
NetworkAssignment solve_nash(const NetworkInstance& inst,
                             const EquilibriumRequest& req,
                             SolverWorkspace& ws,
                             EquilibriumWarmState* warm = nullptr);

/// System optimum of the instance.
NetworkAssignment solve_optimum(const NetworkInstance& inst,
                                const EquilibriumRequest& req = {});
NetworkAssignment solve_optimum(const NetworkInstance& inst,
                                const EquilibriumRequest& req,
                                SolverWorkspace& ws,
                                EquilibriumWarmState* warm = nullptr);

/// Followers' equilibrium given a Leader edge preload. The instance's
/// demands must already be the *followers'* demands (the caller subtracts
/// whatever the Leader controls); `edge_flow`/`commodity_paths` are the
/// followers' flows only, while `cost` is C(S + T) — evaluated at
/// preload + follower flow on the original latencies.
NetworkAssignment solve_induced(const NetworkInstance& inst,
                                std::span<const double> preload,
                                const EquilibriumRequest& req = {});
NetworkAssignment solve_induced(const NetworkInstance& inst,
                                std::span<const double> preload,
                                const EquilibriumRequest& req,
                                SolverWorkspace& ws,
                                EquilibriumWarmState* warm = nullptr);

/// C(f) on the instance's latencies.
double cost(const NetworkInstance& inst, std::span<const double> edge_flow);

/// Wardrop condition for follower path flows under `preload` (pass an
/// all-zero preload to check a plain Nash flow): for every commodity,
/// every flow-carrying path costs within tol of that commodity's cheapest
/// path, at a-posteriori latencies ℓ_e(τ_e + s_e).
bool satisfies_wardrop(const NetworkInstance& inst,
                       std::span<const std::vector<PathFlow>> commodity_paths,
                       std::span<const double> preload, double tol = 1e-7);

/// C(N)/C(O).
double price_of_anarchy(const NetworkInstance& inst,
                        const EquilibriumRequest& req = {});

}  // namespace stackroute
