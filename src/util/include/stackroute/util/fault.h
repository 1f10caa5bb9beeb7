// Deterministic fault injection for resilience testing.
//
// A FaultPlan describes, per sweep task, which failures to inject: NaN/Inf
// latency evaluations at chosen call indices, throwing metric evaluations,
// forced task failures, and seeded demand perturbations. The sweep runner
// arms one task's faults at a time through a thread-local FaultScope, and
// the solver evaluation seams (batched edge costs, incremental path cost
// refreshes, the bush solver's per-shift cost refreshes, water-filling
// supply probes) each consume one "evaluation event" from the armed scope.
// Every seam runs on the task's own thread, so event indices — and
// therefore the injected faults — are invariant under the thread count.
//
// With no scope armed every hook is a thread-local load plus a branch, the
// same zero-overhead-when-off contract as the obs counters.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "stackroute/util/error.h"

namespace stackroute::fault {

/// Thrown by runner-level injected failures (forced task failures and
/// throwing metric evaluations), so tests can tell an injected fault from
/// an organic one.
class InjectedFault : public Error {
 public:
  using Error::Error;
};

/// The faults targeting one sweep task. Latency faults consume evaluation
/// events counted per task *attempt*; fail/metric faults fire on the first
/// `*_times` attempts, so a cold retry can observe either a recovered or a
/// persistently failing task.
struct TaskFaults {
  struct LatencyFault {
    std::uint64_t call = 0;  ///< 0-based evaluation-event index
    bool inf = false;        ///< false = NaN, true = +Inf
  };
  std::vector<LatencyFault> latency;  ///< armed on the first attempt only
  int fail_times = 0;    ///< throw InjectedFault at task start, attempts 0..n-1
  int metric_index = -1;  ///< metric whose evaluation throws (-1 = none)
  int metric_times = 0;   ///< attempts on which the metric throws
  double demand_factor = 1.0;  ///< multiplies instance demand (all attempts)

  [[nodiscard]] bool any() const {
    return !latency.empty() || fail_times > 0 || metric_times > 0 ||
           demand_factor != 1.0;
  }
};

/// A seeded, per-task fault schedule. Pure data: looking up a task's faults
/// has no side effects, so plans can be shared across runs and threads.
class FaultPlan {
 public:
  /// Throw InjectedFault at the start of task `task` on its first `times`
  /// attempts (times >= 2 defeats a single cold retry).
  void fail_task(std::size_t task, int times = 1);

  /// Make the `call`-th latency-evaluation event of task `task` (first
  /// attempt) return NaN.
  void nan_latency(std::size_t task, std::uint64_t call);

  /// Same, but +Inf.
  void inf_latency(std::size_t task, std::uint64_t call);

  /// Throw InjectedFault when task `task` evaluates metric `metric_index`,
  /// on its first `times` attempts.
  void throwing_metric(std::size_t task, int metric_index, int times = 1);

  /// Scale task `task`'s instance demand by a seeded factor drawn from
  /// [1 - amplitude, 1 + amplitude) via mix_seed(seed, task). Applies to
  /// every attempt (the perturbation is an instance property).
  void perturb_demand(std::size_t task, double amplitude);

  /// Scale task `task`'s instance demand by an explicit factor.
  void scale_demand(std::size_t task, double factor);

  /// Base seed for the perturbation draws (default 1).
  void set_seed(std::uint64_t seed) { seed_ = seed; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  [[nodiscard]] bool armed() const { return !tasks_.empty(); }

  /// The faults for `task`, or nullptr when the plan leaves it untouched.
  [[nodiscard]] const TaskFaults* for_task(std::size_t task) const;

 private:
  TaskFaults& faults_for(std::size_t task);

  std::uint64_t seed_ = 1;
  std::map<std::size_t, TaskFaults> tasks_;
};

namespace detail {

/// One task attempt's armed latency faults plus its event counter. Lives in
/// a thread-local pointer; every seam runs on the task's thread, so the
/// counter advances deterministically regardless of the thread count.
struct ArmedFaults {
  const TaskFaults* faults = nullptr;
  std::uint64_t next_event = 0;  ///< index of the next evaluation event
  std::size_t cursor = 0;        ///< position in faults->latency (sorted)
};

extern thread_local ArmedFaults* tl_armed;

/// Slow path of next_eval_faulted: advances the event counter and reports
/// whether this event is targeted, writing the corrupt value into `bad`.
bool next_event_faulted(double& bad);

}  // namespace detail

/// True when a FaultScope is armed on this thread.
inline bool armed() noexcept { return detail::tl_armed != nullptr; }

/// Consume one latency-evaluation event. Returns true — with `bad` set to
/// NaN or +Inf — when the armed plan targets this event index. Call only
/// under `armed()`; the caller decides where to write the corrupt value.
inline bool next_eval_faulted(double& bad) {
  return detail::next_event_faulted(bad);
}

/// RAII arming of one task attempt's faults on the current thread. A null
/// `faults` (or one with no latency faults on a retry attempt) is inert.
class FaultScope {
 public:
  FaultScope(const TaskFaults* faults, int attempt);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  detail::ArmedFaults armed_{};
  detail::ArmedFaults* prev_ = nullptr;
  bool installed_ = false;
};

}  // namespace stackroute::fault
