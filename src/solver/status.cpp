#include "stackroute/solver/status.h"

#include <chrono>

namespace stackroute {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kConverged:
      return "converged";
    case SolveStatus::kIterLimit:
      return "iter_limit";
    case SolveStatus::kDeadlineExceeded:
      return "deadline";
    case SolveStatus::kNumericFailure:
      return "numeric";
    case SolveStatus::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

std::int64_t budget_clock_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SolveBudget SolveBudget::armed() const {
  SolveBudget out = *this;
  if (out.deadline_ns <= 0 && out.deadline_ms > 0.0) {
    out.deadline_ns =
        budget_clock_now_ns() +
        static_cast<std::int64_t>(out.deadline_ms * 1e6);
  }
  return out;
}

}  // namespace stackroute
