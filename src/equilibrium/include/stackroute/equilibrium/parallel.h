// Nash, optimum and induced equilibria on s–t parallel links (§4 model),
// via water-filling, plus the condition checkers the structural theorems
// of the paper are stated in terms of.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "stackroute/network/instance.h"
#include "stackroute/solver/water_filling.h"

namespace stackroute {

struct LinkAssignment {
  std::vector<double> flows;
  /// Common latency (Nash) or common marginal cost (optimum) of the loaded
  /// links; empty links sit at or above it.
  double level = 0.0;
  bool constant_plateau = false;
  /// How the underlying water-filling solve ended (see solver/status.h).
  SolveStatus status = SolveStatus::kConverged;
  /// demand - S(level) of the underlying solve: the honest miss on a
  /// degraded assignment (~0 when converged).
  double supply_gap = 0.0;
};

/// The Nash assignment N of (M, r): unique for strictly increasing
/// latencies; with constant links, unique up to the cost-invariant split
/// of plateau flow (Remark 2.5).
LinkAssignment solve_nash(const ParallelLinks& m, double tol = 1e-13);

/// The optimum assignment O of (M, r).
LinkAssignment solve_optimum(const ParallelLinks& m, double tol = 1e-13);

/// The induced Nash T of the followers' flow (demand − Σ preload) given
/// the Leader's strategy `preload` (flows are the followers' part only).
LinkAssignment solve_induced(const ParallelLinks& m,
                             std::span<const double> preload,
                             double tol = 1e-13);

/// Workspace forms (see solver/workspace.h): one workspace across repeated
/// solves — OpTop's round recursion is the main caller — keeps the
/// water-filling setup allocation-free. `level_hint` is the converged
/// level of the same system at a nearby demand (see water_filling.h for
/// the bracketing semantics — the default NaN, like any non-finite hint,
/// is the cold path, and any hint yields the cold answer to `tol`). A
/// `budget` hit or numeric failure degrades the result (status/supply_gap)
/// instead of throwing (see SolveBudget in solver/status.h); pass an armed
/// budget to share one deadline across a pipeline.
LinkAssignment solve_nash(
    const ParallelLinks& m, double tol, SolverWorkspace& ws,
    double level_hint = std::numeric_limits<double>::quiet_NaN(),
    const SolveBudget& budget = {});
LinkAssignment solve_optimum(
    const ParallelLinks& m, double tol, SolverWorkspace& ws,
    double level_hint = std::numeric_limits<double>::quiet_NaN(),
    const SolveBudget& budget = {});
LinkAssignment solve_induced(
    const ParallelLinks& m, std::span<const double> preload, double tol,
    SolverWorkspace& ws,
    double level_hint = std::numeric_limits<double>::quiet_NaN(),
    const SolveBudget& budget = {});

/// C(X) = Σ_i x_i·ℓ_i(x_i).
double cost(const ParallelLinks& m, std::span<const double> flows);

/// C(S+T) for a Stackelberg strategy S and induced flows T.
double stackelberg_cost(const ParallelLinks& m, std::span<const double> preload,
                        std::span<const double> induced);

/// Remark 4.1: loaded links share a common latency; empty links are no
/// cheaper. Checked with absolute tolerance on the latency scale.
bool satisfies_wardrop(const ParallelLinks& m, std::span<const double> flows,
                       double tol = 1e-7);

/// Remark 4.2: the same, for followers' flows on a-posteriori latencies
/// ℓ_i(t_i + s_i).
bool satisfies_wardrop_induced(const ParallelLinks& m,
                               std::span<const double> preload,
                               std::span<const double> induced,
                               double tol = 1e-7);

/// First-order optimality: loaded links share a common marginal cost;
/// empty links' marginal at zero is no smaller.
bool satisfies_optimality(const ParallelLinks& m,
                          std::span<const double> flows, double tol = 1e-7);

/// C(N)/C(O) — the coordination ratio ρ(M, r) of Expression (1).
double price_of_anarchy(const ParallelLinks& m);

}  // namespace stackroute
