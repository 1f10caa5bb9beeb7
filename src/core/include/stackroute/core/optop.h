// Algorithm OpTop (Corollary 2.2): the minimum Leader portion β_M needed
// to induce the optimum on an s–t parallel-links instance, together with
// the optimal Stackelberg strategy — in polynomial time.
//
// Round structure (§3.1, Figs 4–6):
//   1. Compute the optimum O of (M, r₀) once.
//   2. Compute the Nash N of the *current* subsystem and remaining flow.
//   3. Freeze every under-loaded link (n_i < o_i) at s_i = o_i.
//   4. Discard frozen links, subtract their optimum flow, recurse.
//   5. Stop when no link is under-loaded; β_M = (r₀ − r_remaining)/r₀.
// Correctness rests on the Section 7 theorems (frozen links receive no
// induced flow; strategies that freeze nothing change nothing), which the
// structure.h predicates expose for testing.
#pragma once

#include <limits>
#include <vector>

#include "stackroute/network/instance.h"
#include "stackroute/solver/status.h"
#include "stackroute/solver/workspace.h"

namespace stackroute {

struct OpTopRound {
  /// Links (original indices) frozen in this round.
  std::vector<int> frozen;
  /// Flow entering the round (the subsystem's demand).
  double flow_before = 0.0;
  /// Nash level of the subsystem this round inspected.
  double nash_level = 0.0;
};

struct OpTopResult {
  /// The price of optimum: the minimum Leader portion β_M ∈ [0, 1].
  double beta = 0.0;
  std::vector<double> optimum;   // O on the full instance
  std::vector<double> nash;      // N on the full instance
  std::vector<double> strategy;  // s_i = o_i on frozen links, else 0
  std::vector<double> induced;   // followers' flows (= O on unfrozen links)
  double optimum_cost = 0.0;     // C(O)
  double nash_cost = 0.0;        // C(N)
  double induced_cost = 0.0;     // C(S+T); equals C(O) by Theorem 2.1
  std::vector<OpTopRound> rounds;
  /// Worst outcome over every internal water-filling solve (optimum, Nash,
  /// each round's subsystem Nash, induced). Degraded sub-solves leave their
  /// best-so-far flows in place; `supply_gap` below bounds the miss.
  SolveStatus status = SolveStatus::kConverged;
  /// Largest |demand − S(level)| over the degraded sub-solves (~0 when
  /// status == kConverged).
  double supply_gap = 0.0;
};

struct OpTopOptions {
  /// A link counts as under-loaded when o_i > n_i + freeze_tol·max(1, r).
  double freeze_tol = 1e-9;
  /// Water-filling tolerance.
  double solve_tol = 1e-13;
  /// Shared resource budget: armed once at op_top entry, so every internal
  /// water-filling solve draws on one deadline (see solver/status.h).
  SolveBudget budget;
};

/// Runs OpTop on (M, r). Throws on malformed instances.
OpTopResult op_top(const ParallelLinks& m, const OpTopOptions& opts = {});

/// Converged water-filling levels of a prior op_top run — warm-start hints
/// for the chained solves of a demand sweep (the neighboring grid point's
/// levels bracket this point's in a few probes; see water_filling.h).
/// Hints only steer root bracketing: results agree with the cold run to
/// solver tolerance regardless of the hints' quality.
struct OpTopWarmStart {
  double optimum_level = std::numeric_limits<double>::quiet_NaN();
  double nash_level = std::numeric_limits<double>::quiet_NaN();
  double induced_level = std::numeric_limits<double>::quiet_NaN();
  /// Nash level of each freeze-round subsystem, by loop iteration (NaN for
  /// iterations whose remaining flow was below tolerance).
  std::vector<double> round_levels;
};

/// Workspace/warm-start variant: reuses the caller's workspace across the
/// internal water-filling solves. `warm` is in-out: its levels are read
/// as hints (NaN = cold) and then overwritten with this run's converged
/// levels for the next chained point; null means neither.
OpTopResult op_top(const ParallelLinks& m, const OpTopOptions& opts,
                   SolverWorkspace& ws, OpTopWarmStart* warm);

/// Convenience: just β_M.
double price_of_optimum(const ParallelLinks& m);

}  // namespace stackroute
