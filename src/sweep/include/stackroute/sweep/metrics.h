// Pluggable metric extractors for scenario sweeps.
//
// A Metric is a named function of a TaskEval — the per-task evaluation:
// an engine::Evaluation (see engine/eval.h) over the task's instance
// (parallel links or a network), plus its grid point. The Evaluation
// caches every solve, so a metric list like {beta, poa, nash_cost} runs
// each solver once per task, not once per metric, and sweep tasks and
// engine service requests share one solve path. Custom metrics are plain
// lambdas; the builtin ones dispatch on the instance shape: β via op_top
// on parallel links and mop on networks, C(N)/C(O)/C(S+T) from the cached
// results, and solver round counts.
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

/// The two input shapes of the paper's algorithms, as one sweepable type.
using Instance = engine::Instance;

/// The classical Stackelberg baselines exposed as sweep metrics (see
/// core/strategy.h). Aloof ignores the grid's "alpha" parameter; SCALE and
/// LLF read it per point.
using StrategyKind = engine::StrategyKind;

/// Per-task evaluation context: an engine::Evaluation bound to the task's
/// grid point.
class TaskEval : public engine::Evaluation {
 public:
  /// Solves run on `chain`, the session of the task's warm chain (see
  /// runner.h), warm-started from the previous task's converged state
  /// whenever chain_compatible holds (otherwise the payloads are reset and
  /// this task solves cold). The runner calls finish() after the metrics
  /// to publish this task's instance as the next task's warm anchor.
  TaskEval(const ParamPoint& point, const Instance& instance,
           engine::SolveSession& chain)
      : Evaluation(instance, &chain, engine::WarmPolicy::kPointerIdentity),
        point_(point) {}

  [[nodiscard]] const ParamPoint& point() const { return point_; }

  /// Cached baseline-strategy evaluation at the point's "alpha" parameter
  /// (Aloof ignores alpha and reuses the Nash caches). One optimum solve
  /// feeds every baseline of a task, and chained α-sweeps warm-start each
  /// baseline's induced solve from the previous point's converged
  /// follower state.
  using Evaluation::strategy_cost;
  using Evaluation::strategy_ratio;
  double strategy_cost(StrategyKind kind);   // C(S+T)
  double strategy_ratio(StrategyKind kind);  // C(S+T)/C(O)

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
  /// The point's "alpha" for SCALE/LLF; NaN for Aloof, whose grids need
  /// no alpha axis.
  [[nodiscard]] double alpha_of(StrategyKind kind) const;

  const ParamPoint& point_;
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
/// of C(O) (see Evaluation::strategy_alpha_to_optimum). Expensive — each
/// task runs ~30 induced solves — so reserve it for small grids.
Metric metric_alpha_to_optimum(StrategyKind kind, double eps = 1e-3);

/// {beta, poa, C(N), C(O), C(S+T)} — the paper's headline quantities.
std::vector<Metric> default_metrics();

/// {beta, opt_cost, aloof_ratio, scale_ratio, llf_ratio} — the ratio-vs-α
/// comparison the paper frames MOP against (needs an "alpha" axis).
std::vector<Metric> strategy_metrics();

}  // namespace stackroute::sweep
