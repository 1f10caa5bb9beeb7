// Solver work counters: what the solvers actually did, as plain integers.
//
// Collection is opt-in per thread: a caller installs a SolveCounters sink
// with CountersScope, and every instrumented call site below it (bush
// flow shifts, Dijkstra runs, water-filling evaluations, warm-start
// attempts, ...) adds into that sink through the thread-local pointer.
// With no scope installed — the default — count() is a thread-local load
// and a branch, which Release benches show is indistinguishable from no
// instrumentation at all (bench/bench_obs_overhead.cpp guards this).
//
// Thread-count invariance: every solve runs single-threaded on the thread
// that installed the sink, so the same solve produces the same counters
// whatever else runs in the process.
//
// Solvers wrap their body in a ScopedCounterDelta: when a sink is
// installed it reroutes counting into a private struct for the call's
// duration, letting the solver snapshot its own delta into its result
// (BushResult::counters etc.) before the destructor merges the
// delta back into the surrounding sink. Nested solves compose: an inner
// solve's delta merges into the outer solve's delta, which merges into
// the caller's sink.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace stackroute::obs {

// The counter fields, one X entry each, so the struct, merge(), the name
// table, and every exporter stay in sync by construction.
//   X(field, "glossary line")
#define STACKROUTE_OBS_COUNTER_FIELDS(X)                                      \
  X(equalization_steps, "path-equalization steps (one flow shift between a "  \
                        "costliest and a cheapest path)")                     \
  X(equalization_evals, "cost-pair evaluations inside equalization "          \
                        "bisections")                                         \
  X(warm_polish_passes, "Gauss-Seidel polish passes over a warm-started "     \
                        "path decomposition")                                 \
  X(water_fill_evals, "water-filling supply evaluations S(L)")                \
  X(dijkstra_calls, "Dijkstra runs (forward and reverse)")                    \
  X(dijkstra_settled, "nodes settled across all Dijkstra runs")               \
  X(table_batch_evals, "whole-table latency/objective batch evaluations")     \
  X(gap_checks, "convergence re-checks (bush relative gap, equalization "     \
                "spread)")                                                    \
  X(warm_attempts, "solves offered a non-empty warm-start payload")           \
  X(warm_hits, "warm payloads accepted and used (attempts - hits = misses)")  \
  X(warm_fallbacks, "warm-started solves rerun cold after the warm seed "     \
                    "degraded (non-finite costs, gap regression, or stall)")  \
  X(chain_resets, "sweep chains dropped warm state (topology break or task "  \
                  "failure)")                                                 \
  X(task_retries, "sweep tasks re-attempted cold after a failed attempt "     \
                  "(RetryPolicy)")                                             \
  X(bush_shifts, "bush Newton flow shifts (one max-to-min path segment "       \
                 "move)")                                                      \
  X(bush_rebuilds, "bush edge-set updates (drop/add passes that changed an "   \
                   "origin bush)")

/// One counter per kind of solver work; all start at zero.
struct SolveCounters {
#define STACKROUTE_OBS_DEFINE_FIELD(field, doc) std::uint64_t field = 0;
  STACKROUTE_OBS_COUNTER_FIELDS(STACKROUTE_OBS_DEFINE_FIELD)
#undef STACKROUTE_OBS_DEFINE_FIELD

  /// Field-wise accumulation of `other` into *this.
  void merge(const SolveCounters& other);
  /// Everything back to zero.
  void clear();
  /// True when any field is nonzero.
  [[nodiscard]] bool any() const;

  /// Name/member-pointer table driving exports, in declaration order.
  struct FieldInfo {
    const char* name;
    const char* doc;
    std::uint64_t SolveCounters::* member;
  };
  static std::span<const FieldInfo> fields();

  [[nodiscard]] std::uint64_t get(const FieldInfo& f) const {
    return this->*(f.member);
  }

  /// "name=value" pairs of the nonzero fields, space-separated (empty
  /// string when all zero) — the human-readable one-liner used by
  /// SweepResult::summary() and `stackroute-sweep --counters`.
  [[nodiscard]] std::string to_string() const;
};

namespace detail {
extern thread_local SolveCounters* tl_counters;
}  // namespace detail

/// The calling thread's installed sink; nullptr when collection is off.
inline SolveCounters* counters() { return detail::tl_counters; }

/// True when this thread is collecting counters.
inline bool counting() { return detail::tl_counters != nullptr; }

/// Adds `n` to one field of the installed sink; no-op when collection is
/// off. The hot-path entry point: a thread-local load, a branch, one add.
inline void count(std::uint64_t SolveCounters::* field, std::uint64_t n = 1) {
  if (SolveCounters* c = detail::tl_counters) (*c).*field += n;
}

/// Installs `sink` as the calling thread's counter sink for the scope's
/// lifetime; restores the previous sink (usually none) on destruction.
class CountersScope {
 public:
  explicit CountersScope(SolveCounters& sink);
  ~CountersScope();
  CountersScope(const CountersScope&) = delete;
  CountersScope& operator=(const CountersScope&) = delete;

 private:
  SolveCounters* prev_;
};

/// A solver call's private counter delta (see the file comment). Inactive
/// — and free — when no sink is installed at construction time.
class ScopedCounterDelta {
 public:
  ScopedCounterDelta();
  ~ScopedCounterDelta();
  ScopedCounterDelta(const ScopedCounterDelta&) = delete;
  ScopedCounterDelta& operator=(const ScopedCounterDelta&) = delete;

  /// True when a sink was installed, i.e. this call is being counted.
  [[nodiscard]] bool active() const { return active_; }
  /// The counts accumulated by this call so far (zeros when inactive).
  [[nodiscard]] const SolveCounters& current() const { return local_; }

 private:
  SolveCounters local_;
  SolveCounters* prev_ = nullptr;
  bool active_ = false;
};

}  // namespace stackroute::obs
