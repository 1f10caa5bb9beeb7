// SweepRunner: expands a ScenarioSpec's grid into tasks, partitions them
// into warm-start chains, fans the chains out over util/parallel.h's
// threads (one chain per thread at a time), and aggregates metric rows
// into io::Table. Every solve runs single-threaded on its chain's thread.
// The runner reads the max_threads() cap and writes no process-wide state.
//
// Chains: when the scenario declares a warm axis (ScenarioSpec::warm_axis,
// typically "demand") and warm-starting is enabled, the grid decomposes
// into chains — sequences of tasks varying only along that axis, all other
// parameters fixed. Chains, not tasks, are the unit of parallel
// scheduling; each chain is an engine::Engine session carrying one
// persistent SolverWorkspace (compiled latency table, Dijkstra/path
// buffers) and threads the previous point's converged solver state into
// the next point's solves (see SolveSession in engine/session.h and
// warm_compatible in engine/instance.h — the runner is a thin client of
// the engine layer). Without a warm axis — or with warm_start off — every
// task is its own chain, which is exactly the pre-chain behavior.
//
// Determinism contract: the metric values in a SweepResult — and therefore
// to_markdown()/to_csv()/to_json() — are bitwise identical at any thread
// count. The chain decomposition is a pure function of the grid, each chain
// runs its tasks in axis order on one thread, no solve's result depends on
// its thread count, warm-start hand-off happens only inside a chain, and
// every task derives its Rng from mix_seed(base_seed, flat index) — so
// neither scheduling nor thread count can perturb any record. Warm and cold
// runs of the same spec agree to solver tolerance (equal at table
// precision), not bitwise: a warm-started solve converges to the same
// equilibrium along a different iterate sequence. Wall-clock timings are the
// one nondeterministic output and live apart: per-task in
// TaskRecord::millis, aggregated in timing_table()/summary().
//
// A task that throws stackroute::Error (infeasible instance, solver
// failure) is recorded as a failed row with NaN metrics rather than
// aborting the sweep; num_failed() and the status column report it, and
// the chain restarts cold at the next point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stackroute/io/table.h"
#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/solver/status.h"
#include "stackroute/sweep/scenario.h"
#include "stackroute/util/fault.h"

namespace stackroute::sweep {

/// What the runner does with a task whose attempt threw: re-attempt it
/// cold (the chain's warm state is already dropped) up to `max_retries`
/// times before recording the failed row. Retries are counted in
/// TaskRecord::retries and the obs `task_retries` counter; a task that
/// succeeds on a retry is an ordinary ok row. Deterministic failures fail
/// every attempt, so tables stay bitwise identical with retries on.
struct RetryPolicy {
  int max_retries = 1;
};

struct SweepOptions {
  /// Metric formatting precision in table()/to_csv()/to_markdown().
  int digits = 6;
  /// When false, run() rethrows the first task failure after the sweep
  /// finishes instead of reporting failed rows.
  bool keep_going = true;
  /// When false, every task is its own chain (cold solves, task-level
  /// parallelism) even if the scenario declares a warm axis — the A/B
  /// switch behind `stackroute-sweep --warm-start off`.
  bool warm_start = true;
  /// When true, every task runs under a counter sink and its work counters
  /// land in TaskRecord::counters (the switch behind `stackroute-sweep
  /// --counters` / `--profile`). Off by default: counting changes no metric
  /// either way, but off keeps the instrumented call sites at their
  /// zero-overhead load-and-branch path.
  bool collect_counters = false;
  /// Cold re-attempts for failed tasks (see RetryPolicy above).
  RetryPolicy retry{};
  /// Per-task solve budget: armed at each task attempt, shared by every
  /// solve the task runs (see SolveBudget in solver/status.h). Inactive by
  /// default — tables are bitwise identical to a budget-free run.
  SolveBudget budget{};
  /// Fault-injection schedule (see util/fault.h); not owned, may be null.
  /// With no plan armed and no budget set, the runner's behavior — and
  /// every metric byte — is identical to a plan-free run.
  const fault::FaultPlan* faults = nullptr;
};

struct TaskRecord {
  ParamPoint point;
  std::vector<double> metrics;  // NaN-filled when !ok
  bool ok = true;
  /// Worst SolveStatus over the task's solves (see solver/status.h). An ok
  /// task with a non-converged status is *degraded*: its metrics came from
  /// best-so-far flows under a budget hit or numeric trouble. The table's
  /// status column prints the taxonomy string for such rows.
  SolveStatus status = SolveStatus::kConverged;
  /// Cold re-attempts this task consumed (RetryPolicy).
  int retries = 0;
  std::string error;
  double millis = 0.0;  // wall clock; excluded from deterministic exports
  /// Which warm chain this task belonged to (== its own index when the
  /// sweep ran cold). Deterministic, but diagnostic: reported only in
  /// timing_table().
  std::size_t chain = 0;
  /// This task's solver work counters — all zero unless
  /// SweepOptions::collect_counters was on.
  obs::SolveCounters counters;
};

/// Per-chain tracing sinks for one sweep run: pass to SweepRunner::run to
/// capture span traces (chrome://tracing) and convergence samples (JSONL).
/// run() sizes the vectors to the chain count — one single-threaded
/// session per chain, tagged with the chain index as the trace "tid" —
/// and every session shares `epoch_ns` so the merged timeline lines up.
/// Tracing perturbs no metric: table() output is bitwise identical with
/// and without a SweepTrace attached.
struct SweepTrace {
  std::int64_t epoch_ns = 0;
  std::vector<obs::TraceSession> sessions;        // [chain]
  std::vector<obs::ConvergenceTrace> convergence; // [chain]

  /// All sessions merged into one chrome://tracing JSON document, in
  /// chain order.
  void write_chrome_trace(std::ostream& os) const;
  /// All chains' convergence samples as JSONL, in chain order (each
  /// sample's "ctx" names its task).
  void write_convergence_jsonl(std::ostream& os) const;
};

struct SweepResult {
  std::string scenario;
  std::vector<std::string> param_columns;
  std::vector<std::string> metric_columns;
  std::vector<TaskRecord> records;
  int digits = 6;
  double total_millis = 0.0;
  /// Threads the chains actually ran on: threads_for(chains), i.e.
  /// min(max_threads(), chains), and 1 for a single chain.
  int threads = 1;
  /// Number of chains the grid decomposed into (== num_tasks() when no
  /// warm axis applied), and the axis used (empty when none did).
  std::size_t chains = 0;
  std::string warm_axis;
  /// True when the run collected counters (SweepOptions::collect_counters):
  /// gates the counter columns of timing_table() and the counter sections
  /// of summary()/profile().
  bool counted = false;

  [[nodiscard]] std::size_t num_tasks() const { return records.size(); }
  [[nodiscard]] std::size_t num_failed() const;
  /// Tasks that completed but with a non-converged SolveStatus (budget
  /// hit, numeric trouble): their metrics are best-so-far values,
  /// honestly labeled in the status column.
  [[nodiscard]] std::size_t num_degraded() const;
  /// Task i's grid point as "{col=value, ...}" at table precision, naming a
  /// failed task in messages; empty when the point has no columns.
  [[nodiscard]] std::string point_label(std::size_t i) const;

  /// Deterministic result table: parameter columns, metric columns, status.
  [[nodiscard]] Table table() const;
  /// table() plus the diagnostic columns: chain index, per-task wall clock
  /// (nondeterministic) and — when counters were collected — one column
  /// per counter field.
  [[nodiscard]] Table timing_table() const;

  [[nodiscard]] std::string to_markdown() const { return table().to_markdown(); }
  [[nodiscard]] std::string to_csv() const { return table().to_csv(); }
  [[nodiscard]] std::string to_json() const { return table().to_json(); }

  /// Every task's counters merged (all zero unless counted).
  [[nodiscard]] obs::SolveCounters total_counters() const;

  /// One-line run report: task/failure counts, total time, thread count —
  /// plus a counters line when counters were collected.
  [[nodiscard]] std::string summary() const;

  /// Multi-line profile: p50/p90/p99 of per-task and per-chain wall times,
  /// per-task quantiles of every active counter, and the warm-start
  /// attempt/hit/reset tallies. Everything here is diagnostic output —
  /// none of it feeds the deterministic tables.
  [[nodiscard]] std::string profile() const;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {}) : opts_(opts) {}

  /// Runs every grid point of `spec` (chains in parallel unless
  /// set_max_threads(1)); requires a factory, >= 1 metric, and column
  /// names (axes + metrics) to be pairwise distinct.
  [[nodiscard]] SweepResult run(const ScenarioSpec& spec) const;

  /// Same, recording span traces and convergence samples into `trace`
  /// (ignored when null). The metric values are bitwise identical to the
  /// untraced run at any thread count.
  [[nodiscard]] SweepResult run(const ScenarioSpec& spec,
                                SweepTrace* trace) const;

 private:
  SweepOptions opts_;
};

}  // namespace stackroute::sweep
