// Solve outcome taxonomy and cooperative solve budgets.
//
// Every iterative solver in the repo (path equilibration, bush,
// water-filling) and every pipeline built on them (MOP, OpTop, strategy
// evaluation) reports a SolveStatus instead of a bare converged flag, and
// accepts a SolveBudget that unifies iteration caps with an amortized
// wall-clock deadline. A degraded solve returns its best-so-far state plus
// an honest quality bound (achieved gap / spread) — it neither throws nor
// pretends to be exact.
#pragma once

#include <cstdint>

namespace stackroute {

/// Outcome of an iterative solve, ordered by severity: later values are
/// strictly worse. Pipelines combine sub-solve outcomes with worst_status.
enum class SolveStatus : std::uint8_t {
  kConverged = 0,         ///< reached the requested tolerance
  kIterLimit = 1,         ///< iteration/sweep cap hit; result is best-so-far
  kDeadlineExceeded = 2,  ///< wall-clock budget expired mid-solve
  kNumericFailure = 3,    ///< NaN/Inf surfaced in costs/objective/gap
  kOverloaded = 4,        ///< shed by admission control before solving: the
                          ///< service refused the request (queue full,
                          ///< per-client cap, or shutdown in progress) —
                          ///< no solver ever ran, so there is no best-so-far
};

/// Short stable identifier ("converged", "iter_limit", "deadline",
/// "numeric", "overloaded") used in tables and logs.
const char* to_string(SolveStatus status) noexcept;

/// True when the solve met its tolerance.
inline bool solve_ok(SolveStatus status) noexcept {
  return status == SolveStatus::kConverged;
}

/// The more severe of two outcomes (statuses are ordered by severity).
inline SolveStatus worst_status(SolveStatus a, SolveStatus b) noexcept {
  return a < b ? b : a;
}

/// Resource limits for one solve (or one pipeline of solves). Default
/// constructed = inactive: solvers behave exactly as without a budget, so
/// budget-free runs stay bitwise identical.
struct SolveBudget {
  /// Extra iteration cap on top of the solver's own option cap (bush
  /// iterations, equilibration steps, root-finder probes). 0 = none.
  long long max_iters = 0;

  /// Wall-clock allowance in milliseconds, relative to solve entry.
  /// <= 0 = none. Resolved into `deadline_ns` when the solve arms the
  /// budget; pass an armed budget to sub-solves so a whole pipeline
  /// shares one deadline.
  double deadline_ms = 0.0;

  /// Absolute steady-clock deadline in nanoseconds (0 = unset). Normally
  /// derived from `deadline_ms` via armed(); set directly only when
  /// sharing a deadline across solves.
  std::int64_t deadline_ns = 0;

  [[nodiscard]] bool limits_iters() const noexcept { return max_iters > 0; }
  [[nodiscard]] bool has_deadline() const noexcept {
    return deadline_ns > 0 || deadline_ms > 0.0;
  }
  [[nodiscard]] bool active() const noexcept {
    return limits_iters() || has_deadline();
  }

  /// Copy of this budget with `deadline_ms` resolved to an absolute
  /// `deadline_ns` (now + deadline_ms). Idempotent: an already-armed
  /// budget (deadline_ns set) is returned unchanged, which is what lets
  /// pipelines hand one deadline to every sub-solve.
  [[nodiscard]] SolveBudget armed() const;
};

/// Steady-clock "now" in nanoseconds (the clock SolveBudget deadlines are
/// measured against).
std::int64_t budget_clock_now_ns() noexcept;

/// Cooperative deadline/iteration gate for a solver loop. Clock reads are
/// amortized: expired() touches the clock on the first poll and then every
/// 32nd, and skips it entirely when no deadline is set — cheap enough to
/// poll once per iteration of even fine-grained loops.
class BudgetGate {
 public:
  /// Arms the budget (resolves a relative deadline to absolute).
  explicit BudgetGate(const SolveBudget& budget) : budget_(budget.armed()) {}

  /// The armed budget; pass to sub-solves to share the deadline.
  [[nodiscard]] const SolveBudget& budget() const noexcept { return budget_; }

  /// True once `iters_done` reaches the budget's iteration cap.
  [[nodiscard]] bool over_iters(long long iters_done) const noexcept {
    return budget_.max_iters > 0 && iters_done >= budget_.max_iters;
  }

  /// Cooperative deadline poll; sticky once it fires.
  [[nodiscard]] bool expired() noexcept {
    if (budget_.deadline_ns <= 0 || expired_) return expired_;
    if ((polls_++ & 31u) != 0u) return false;
    expired_ = budget_clock_now_ns() >= budget_.deadline_ns;
    return expired_;
  }

 private:
  SolveBudget budget_;
  std::uint32_t polls_ = 0;
  bool expired_ = false;
};

}  // namespace stackroute
