// Pluggable metric extractors for scenario sweeps.
//
// A Metric is a named function of a TaskEval — the per-task evaluation
// context holding the grid point and the instance (parallel links or a
// network). The solve machinery itself lives one layer down in
// engine::Evaluation (see engine/eval.h): TaskEval binds an Evaluation to
// a grid point, so that a metric list like {beta, poa, nash_cost} runs
// each solver once per task, not once per metric, and so that sweep tasks
// and engine service requests share one battle-tested solve path. Custom
// metrics are plain lambdas; the builtin ones dispatch on the instance
// shape: β via op_top on parallel links and mop on networks, C(N)/C(O)/
// C(S+T) from the cached results, and solver round counts.
//
// The instance variant, chain-compatibility test and warm-chain state
// moved to the engine layer with this split; the sweep names below are
// aliases kept for the existing call sites (tests, benches, the CLI).
#pragma once

#include <any>
#include <functional>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "stackroute/engine/eval.h"
#include "stackroute/engine/instance.h"
#include "stackroute/engine/session.h"
#include "stackroute/sweep/grid.h"

namespace stackroute::sweep {

/// The two input shapes of the paper's algorithms, as one sweepable type
/// (now owned by the engine layer).
using Instance = engine::Instance;

/// Pointer-identity chain compatibility — see engine/instance.h. This is
/// the sweep determinism contract's test: chains hold the previous
/// instance alive, and identical pointers guarantee identical
/// compilation, hence bitwise-stable tables.
using engine::chain_compatible;

/// The classical Stackelberg baselines exposed as sweep metrics (see
/// core/strategy.h). Aloof ignores the grid's "alpha" parameter; SCALE and
/// LLF read it per point.
using StrategyKind = engine::StrategyKind;

/// Converged baseline-strategy solver state carried along an α-sweep
/// chain (see engine/session.h).
using StrategyChainState = engine::StrategyWarmState;

/// Cross-task warm-start state carried along one chain of a sweep (see
/// runner.h) — the engine's SolveSession: the workspace shared by the
/// chain's tasks, the previous task's instance, and the converged solver
/// state that task produced. Confined to one chain, hence one thread.
using ChainContext = engine::SolveSession;

/// Per-task evaluation context with memoized solver results: an
/// engine::Evaluation bound to the task's grid point.
class TaskEval {
 public:
  TaskEval(const ParamPoint& point, const Instance& instance)
      : TaskEval(point, instance, nullptr) {}

  /// Chained variant: solves run on `chain`'s workspace, warm-started from
  /// the previous task's converged state whenever chain_compatible holds
  /// (otherwise the payloads are reset and this task solves cold). The
  /// runner calls finish_chain() after the metrics to publish this task's
  /// instance as the next task's warm anchor.
  TaskEval(const ParamPoint& point, const Instance& instance,
           ChainContext* chain)
      : point_(point),
        eval_(instance, chain, engine::WarmPolicy::kPointerIdentity) {}

  [[nodiscard]] const ParamPoint& point() const { return point_; }
  [[nodiscard]] bool is_parallel() const { return eval_.is_parallel(); }

  /// Arms a per-task solve budget: every solve this task runs draws on one
  /// shared deadline (see SolveBudget in solver/status.h). Call before the
  /// first metric; an inactive budget changes nothing.
  void set_budget(const SolveBudget& budget) { eval_.set_budget(budget); }

  /// Selects the equilibrium backend for this task's network Nash solves
  /// (see solver/backend.h). The runner applies ScenarioSpec::backend here
  /// before the first metric. Only bush solves chain warm; pe solves run
  /// cold and leave the session payload they pass through empty.
  void set_backend(EquilibriumBackend backend) { eval_.set_backend(backend); }

  /// Worst SolveStatus over every solve this task has run so far — what
  /// the runner records in TaskRecord::status. Degraded solves still
  /// produce metric values (from best-so-far flows); this is the honest
  /// label for them.
  [[nodiscard]] SolveStatus status() const { return eval_.status(); }

  /// The instance as parallel links / a network; throws on shape mismatch.
  [[nodiscard]] const ParallelLinks& links() const { return eval_.links(); }
  [[nodiscard]] const NetworkInstance& network() const {
    return eval_.network();
  }

  /// Cached OpTop run (parallel links only).
  const OpTopResult& optop() { return eval_.optop(); }
  /// Cached MOP run (networks only).
  const MopResult& mop_result() { return eval_.mop_result(); }
  /// Cached Nash / optimum network assignments (networks only).
  const NetworkAssignment& network_nash() { return eval_.network_nash(); }
  const NetworkAssignment& network_optimum() {
    return eval_.network_optimum();
  }

  // Shape-dispatching accessors, usable from any metric.
  double beta() { return eval_.beta(); }  // β_M via OpTop or β_G via MOP
  double poa() { return eval_.poa(); }    // C(N)/C(O)
  double nash_cost() { return eval_.nash_cost(); }        // C(N)
  double optimum_cost() { return eval_.optimum_cost(); }  // C(O)
  /// C(S+T) of the optimal Leader strategy.
  double stackelberg_cost() { return eval_.stackelberg_cost(); }
  /// OpTop freeze rounds; NaN on networks (MOP is one-shot).
  double rounds() { return eval_.rounds(); }

  /// Cached baseline-strategy evaluation at the point's "alpha" parameter
  /// (Aloof ignores alpha and reuses the Nash/optimum caches). Parallel
  /// links evaluate against the OpTop optimum, networks against
  /// network_optimum() — one optimum solve feeds every baseline of a task,
  /// and chained α-sweeps warm-start each baseline's induced solve from
  /// the previous point's converged follower state.
  double strategy_ratio(StrategyKind kind);  // C(S+T)/C(O)
  double strategy_cost(StrategyKind kind);   // C(S+T)

  /// Smallest α at which `kind` reaches C(S+T) <= (1+eps)·C(O) (see
  /// engine::Evaluation::strategy_alpha_to_optimum).
  double strategy_alpha_to_optimum(StrategyKind kind, double eps) {
    return eval_.strategy_alpha_to_optimum(kind, eps);
  }

  /// Publishes this task's instance as the chain's warm anchor (no-op
  /// without a chain). The runner calls it once, after every metric
  /// evaluated successfully — a failed task resets the chain instead. The
  /// argument must be the very instance this TaskEval was constructed
  /// over; it is moved into the chain (saving a per-task graph copy), so
  /// no metric may run afterwards.
  void finish_chain(Instance&& instance) { eval_.finish(std::move(instance)); }

  /// Memoizes an arbitrary intermediate result under `key` for this task's
  /// lifetime, so several custom metrics can share one expensive solve
  /// (e.g. a Thm 2.4 strategy whose cost, ratio and split index each feed
  /// a column). TaskEval is confined to one task, hence one thread.
  template <typename T, typename Fn>
  const T& cached(const std::string& key, Fn&& compute) {
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, std::any(compute())).first;
    }
    return std::any_cast<const T&>(it->second);
  }

 private:
  const ParamPoint& point_;
  engine::Evaluation eval_;
  std::map<std::string, std::any> cache_;
};

/// A result-table column: name plus extractor.
struct Metric {
  std::string column;
  std::function<double(TaskEval&)> fn;
};

Metric metric_beta();
Metric metric_poa();
Metric metric_nash_cost();
Metric metric_optimum_cost();
Metric metric_stackelberg_cost();
Metric metric_optop_rounds();

/// Baseline-strategy columns: "aloof_ratio" / "scale_ratio" / "llf_ratio"
/// (SCALE and LLF require an "alpha" grid axis) and the matching "_cost"
/// columns.
Metric metric_strategy_ratio(StrategyKind kind);
Metric metric_strategy_cost(StrategyKind kind);

/// "scale_alpha_star" / "llf_alpha_star": the α needed to get within eps
/// of C(O) (see TaskEval::strategy_alpha_to_optimum). Expensive — each
/// task runs ~30 induced solves — so reserve it for small grids.
Metric metric_alpha_to_optimum(StrategyKind kind, double eps = 1e-3);

/// {beta, poa, C(N), C(O), C(S+T)} — the paper's headline quantities.
std::vector<Metric> default_metrics();

/// {beta, opt_cost, aloof_ratio, scale_ratio, llf_ratio} — the ratio-vs-α
/// comparison the paper frames MOP against (needs an "alpha" axis).
std::vector<Metric> strategy_metrics();

}  // namespace stackroute::sweep
