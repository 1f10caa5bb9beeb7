// Evaluation: one instance's memoized solver results — the one solve path
// of typed engine requests and sweep metrics (sweep::TaskEval derives
// from it).
//
// An Evaluation binds an instance to a SolveSession — the caller's, or a
// private one it owns. On construction it decides warm vs cold (the
// session's previous instance must pass the configured compatibility
// test, else the session's warm payloads are reset), then lazily runs and
// caches the expensive solves (OpTop, MOP, the Nash and optimum
// assignments, baseline strategies) so a caller asking for {beta, poa,
// nash_cost} pays for each solver once. finish() publishes the instance
// as the session's next warm anchor.
#pragma once

#include <memory>
#include <optional>

#include "stackroute/core/mop.h"
#include "stackroute/core/optop.h"
#include "stackroute/engine/instance.h"
#include "stackroute/engine/session.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/solver/status.h"

namespace stackroute::engine {

/// The classical Stackelberg baselines (see core/strategy.h). Aloof
/// ignores α; SCALE and LLF take it per evaluation.
enum class StrategyKind { kAloof, kScale, kLlf };

/// Which test decides whether a session's warm state carries over to the
/// next instance. Pointer identity is the sweep contract (chains hold the
/// previous instance alive, and identical pointers guarantee identical
/// compilation, hence bitwise-stable tables). Value equality is the
/// service contract: requests arrive freshly deserialized, so two
/// structurally equal instances must still chain.
enum class WarmPolicy { kPointerIdentity, kValueEquality };

class Evaluation {
 public:
  /// A null `session` means a private one: every solve starts cold, and
  /// the evaluation's own solves still seed each other (MOP run after
  /// network_optimum() starts from that optimum, as on a session).
  Evaluation(const Instance& instance, SolveSession* session,
             WarmPolicy policy = WarmPolicy::kPointerIdentity);

  [[nodiscard]] bool is_parallel() const;
  /// True when this evaluation reuses the session's warm state (the
  /// compatibility test against the previous instance passed).
  [[nodiscard]] bool warm() const { return warm_; }

  /// Arms a per-evaluation solve budget: every solve draws on one shared
  /// deadline (see SolveBudget in solver/status.h). Call before the first
  /// solve; an inactive budget changes nothing.
  void set_budget(const SolveBudget& budget) { budget_ = budget.armed(); }

  /// Selects the backend every network solve of this evaluation runs on —
  /// Nash, optimum, MOP's induced check and the baselines' induced solves
  /// (see solver/backend.h; bush by default). Call before the first
  /// solve. Only bush solves read and publish the session's warm
  /// payloads; pe solves run cold.
  void set_backend(EquilibriumBackend backend) { backend_ = backend; }

  /// Worst SolveStatus over every solve run so far. Degraded solves still
  /// produce values (from best-so-far flows); this is the honest label.
  [[nodiscard]] SolveStatus status() const { return status_; }
  /// Folds a sub-solve outcome into the worst-so-far status (exposed for
  /// wrappers running their own side solves, e.g. custom sweep metrics).
  void absorb(SolveStatus s) { status_ = worst_status(status_, s); }

  /// The instance as parallel links / a network; throws on shape mismatch.
  [[nodiscard]] const ParallelLinks& links() const;
  [[nodiscard]] const NetworkInstance& network() const;

  /// Cached OpTop run (parallel links only).
  const OpTopResult& optop();
  /// Cached MOP run (networks only).
  const MopResult& mop_result();
  /// Cached Nash / optimum network assignments (networks only).
  const NetworkAssignment& network_nash();
  const NetworkAssignment& network_optimum();
  /// Cached plain water-filling Nash / optimum (parallel links only) —
  /// the cheap equilibrium/optimum requests, warm-started from the
  /// session's last levels without paying for a full OpTop.
  const LinkAssignment& parallel_nash();
  const LinkAssignment& parallel_optimum();

  // Shape-dispatching accessors.
  double beta();              // β_M via OpTop or β_G via MOP
  double poa();               // C(N)/C(O)
  double nash_cost();         // C(N)
  double optimum_cost();      // C(O)
  double stackelberg_cost();  // C(S+T) of the optimal Leader strategy
  double rounds();  // OpTop freeze rounds; NaN on networks (MOP is one-shot)

  /// Cached baseline-strategy evaluation at `alpha` (Aloof ignores alpha
  /// and reuses the Nash caches). One α per kind and evaluation, as in a
  /// sweep task: a repeated call with the same α (bitwise) returns the
  /// cache, one with another α throws stackroute::Error. Parallel links
  /// evaluate against the OpTop optimum, networks against
  /// network_optimum() (LLF orders the paths of its per-origin flows);
  /// chained evaluations warm-start each baseline's induced solve from the
  /// session's converged follower state.
  double strategy_cost(StrategyKind kind, double alpha);
  double strategy_ratio(StrategyKind kind, double alpha);  // C(S+T)/C(O)

  /// One SCALE/LLF evaluation against this instance's cached optimum —
  /// the single construction+evaluation path behind both the cached
  /// ratios (chained = true: thread the session's warm payloads) and
  /// bisection probes (chained = false: α jumps around, the session's
  /// payloads stay untouched). Returns C(S+T).
  double evaluate_baseline(StrategyKind kind, double alpha, bool chained);

  /// Smallest α at which `kind` reaches C(S+T) <= (1+eps)·C(O), located by
  /// bisection over [0, 1] (assuming a single ratio crossing — on
  /// Braess-style anomalies with several crossings this converges to the
  /// topmost one). 0 when the plain Nash is already within eps; NaN when
  /// even α = 1 misses (eps below solver tolerance).
  double strategy_alpha_to_optimum(StrategyKind kind, double eps);

  /// Publishes this instance as the session's warm anchor. Call once,
  /// after every solve succeeded — a failed evaluation resets the session
  /// instead. The argument must be the very instance this Evaluation was
  /// constructed over; it is moved into the session (saving a graph copy),
  /// so no solve may run afterwards.
  void finish(Instance&& instance);

  /// The session's workspace, which every solve of this evaluation runs on.
  SolverWorkspace& ws() { return session_.ws; }

 private:
  /// The request every network solve runs under: backend + budget.
  [[nodiscard]] EquilibriumRequest request() const;

  const Instance& instance_;
  // The private session of a sessionless evaluation (declared first: it
  // must exist before session_ binds to it).
  std::unique_ptr<SolveSession> own_session_;
  SolveSession& session_;
  bool warm_ = false;
  SolveBudget budget_;
  EquilibriumBackend backend_ = EquilibriumBackend::kBush;
  SolveStatus status_ = SolveStatus::kConverged;
  std::optional<OpTopResult> optop_;
  std::optional<MopResult> mop_;
  std::optional<NetworkAssignment> net_nash_;
  std::optional<NetworkAssignment> net_opt_;
  std::optional<LinkAssignment> par_nash_;
  std::optional<LinkAssignment> par_opt_;
  struct StrategyCost {
    double alpha = 0.0;
    double cost = 0.0;
  };
  std::optional<StrategyCost> strategy_cost_[3];  // indexed by StrategyKind
};

/// Printable baseline name ("aloof" / "scale" / "llf").
const char* strategy_name(StrategyKind kind);

}  // namespace stackroute::engine
