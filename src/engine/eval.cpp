#include "stackroute/engine/eval.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "stackroute/core/strategy.h"
#include "stackroute/obs/counters.h"
#include "stackroute/util/error.h"

namespace stackroute::engine {

namespace {

/// Shortest round-trip spelling of `v`, so two distinct values never print
/// alike (at most 24 characters for a double).
std::string exact(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

void SolveSession::reset_warm() {
  has_prev = false;
  for (WarmEntry& entry : warm) entry = WarmEntry{};
  optop = {};
}

void SolveSession::shed_memory() {
  reset_warm();
  // reset_warm keeps the workspace's capacity; swapping with fresh objects
  // is what actually returns the bytes to the allocator.
  ws = SolverWorkspace{};
  prev_instance = Instance{};
}

Evaluation::Evaluation(const Instance& instance, SolveSession* session,
                       WarmPolicy policy)
    : instance_(instance),
      own_session_(session == nullptr ? std::make_unique<SolveSession>()
                                      : nullptr),
      session_(session != nullptr ? *session : *own_session_) {
  // A broken chain must not leak stale payloads into this evaluation's
  // solves: the solve accessors below consume whatever payloads survive
  // this reset, so warm validity flows from the anchor test alone, not
  // from payload provenance.
  warm_ = session_.has_prev &&
          (policy == WarmPolicy::kPointerIdentity
               ? chain_compatible(session_.prev_instance, instance_)
               : warm_compatible(session_.prev_instance, instance_));
  if (!warm_) {
    // Count only genuine breaks (an anchor existed and failed the test) —
    // a session's cold first request is not a reset.
    if (session_.has_prev) obs::count(&obs::SolveCounters::chain_resets);
    session_.reset_warm();
  }
}

void Evaluation::finish(Instance&& instance) {
  SR_ASSERT(&instance == &instance_,
            "finish must be handed the evaluated instance");
  session_.prev_instance = std::move(instance);
  session_.has_prev = true;
}

bool Evaluation::is_parallel() const {
  return std::holds_alternative<ParallelLinks>(instance_);
}

const ParallelLinks& Evaluation::links() const {
  SR_REQUIRE(is_parallel(), "solve needs a parallel-links instance");
  return std::get<ParallelLinks>(instance_);
}

const NetworkInstance& Evaluation::network() const {
  SR_REQUIRE(!is_parallel(), "solve needs a network instance");
  return std::get<NetworkInstance>(instance_);
}

EquilibriumRequest Evaluation::request() const {
  EquilibriumRequest req;
  req.backend = backend_;
  req.budget = budget_;
  return req;
}

const OpTopResult& Evaluation::optop() {
  if (!optop_) {
    OpTopOptions opts;
    opts.budget = budget_;
    optop_ = op_top(links(), opts, ws(), &session_.optop);
    absorb(optop_->status);
  }
  return *optop_;
}

const MopResult& Evaluation::mop_result() {
  if (!mop_) {
    MopOptions opts;
    opts.equilibrium = request();
    // The optimum slot's bushes are also the per-origin flows LLF reads
    // later.
    mop_ = mop(network(), opts, ws(),
               &session_.slot(WarmSlot::kOptimum).payload,
               &session_.slot(WarmSlot::kMopInduced).payload);
    absorb(mop_->status);
  }
  return *mop_;
}

const NetworkAssignment& Evaluation::network_nash() {
  if (!net_nash_) {
    net_nash_ = solve_nash(network(), request(), ws(),
                           &session_.slot(WarmSlot::kNash).payload);
    absorb(net_nash_->status);
  }
  return *net_nash_;
}

const NetworkAssignment& Evaluation::network_optimum() {
  if (!net_opt_) {
    if (mop_) {
      // Reuse MOP's optimum instead of solving again. Its per-origin
      // flows come along: pe's as its paths, bush's as the payload
      // already in the optimum slot.
      NetworkAssignment a;
      a.edge_flow = mop_->optimum_edge_flow;
      a.commodity_paths = mop_->optimum_paths;
      a.cost = mop_->optimum_cost;
      a.converged = true;
      net_opt_ = std::move(a);
    } else {
      net_opt_ = solve_optimum(network(), request(), ws(),
                               &session_.slot(WarmSlot::kOptimum).payload);
      absorb(net_opt_->status);
    }
  }
  return *net_opt_;
}

const LinkAssignment& Evaluation::parallel_nash() {
  if (!par_nash_) {
    double& level = session_.slot(WarmSlot::kNash).level;
    par_nash_ = solve_nash(links(), 1e-13, ws(), level, budget_);
    level = par_nash_->level;
    absorb(par_nash_->status);
  }
  return *par_nash_;
}

const LinkAssignment& Evaluation::parallel_optimum() {
  if (!par_opt_) {
    double& level = session_.slot(WarmSlot::kOptimum).level;
    par_opt_ = solve_optimum(links(), 1e-13, ws(), level, budget_);
    level = par_opt_->level;
    absorb(par_opt_->status);
  }
  return *par_opt_;
}

double Evaluation::beta() {
  return is_parallel() ? optop().beta : mop_result().beta;
}

double Evaluation::poa() { return nash_cost() / optimum_cost(); }

double Evaluation::nash_cost() {
  return is_parallel() ? optop().nash_cost : network_nash().cost;
}

double Evaluation::optimum_cost() {
  if (is_parallel()) return optop().optimum_cost;
  // Reuse MOP's optimum when some other reader already paid for it.
  if (mop_) return mop_->optimum_cost;
  return network_optimum().cost;
}

double Evaluation::stackelberg_cost() {
  return is_parallel() ? optop().induced_cost : mop_result().induced_cost;
}

double Evaluation::rounds() {
  if (!is_parallel()) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(optop().rounds.size());
}

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kAloof:
      return "aloof";
    case StrategyKind::kScale:
      return "scale";
    case StrategyKind::kLlf:
      return "llf";
  }
  return "?";
}

double Evaluation::strategy_ratio(StrategyKind kind, double alpha) {
  // Same denominator the evaluations use, so ratio == cost/C(O) exactly.
  return strategy_cost(kind, alpha) /
         (is_parallel() ? optop().optimum_cost : network_optimum().cost);
}

double Evaluation::evaluate_baseline(StrategyKind kind, double alpha,
                                     bool chained) {
  WarmEntry* warm = nullptr;
  if (chained) {
    warm = &session_.slot(kind == StrategyKind::kScale ? WarmSlot::kScale
                                                       : WarmSlot::kLlf);
  }
  if (is_parallel()) {
    const OpTopResult& ot = optop();
    const std::vector<double> s =
        kind == StrategyKind::kScale
            ? scale_strategy(links(), alpha, ot.optimum)
            : llf_strategy(links(), alpha, ot.optimum);
    const StackelbergOutcome out = evaluate_strategy(
        links(), s, ot.optimum_cost, 1e-13, ws(),
        warm != nullptr ? warm->level
                        : std::numeric_limits<double>::quiet_NaN(),
        budget_);
    if (warm != nullptr) warm->level = out.induced_level;
    absorb(out.status);
    return out.cost;
  }
  const NetworkAssignment& opt = network_optimum();
  const NetworkStrategy s =
      kind == StrategyKind::kScale
          ? scale_strategy(network(), alpha, opt)
          : llf_strategy(network(), alpha, opt,
                         session_.slot(WarmSlot::kOptimum).payload);
  const NetworkStackelbergOutcome out =
      evaluate_strategy(network(), s, opt.cost, request(), ws(),
                        warm != nullptr ? &warm->payload : nullptr);
  absorb(out.status);
  return out.cost;
}

double Evaluation::strategy_cost(StrategyKind kind, double alpha) {
  if (kind == StrategyKind::kAloof) return nash_cost();
  std::optional<StrategyCost>& slot = strategy_cost_[static_cast<int>(kind)];
  if (!slot) {
    slot = StrategyCost{alpha,
                        evaluate_baseline(kind, alpha, /*chained=*/true)};
  } else if (std::bit_cast<std::uint64_t>(slot->alpha) !=
             std::bit_cast<std::uint64_t>(alpha)) {
    throw Error(std::string(strategy_name(kind)) + " cost cached at alpha " +
                exact(slot->alpha) + ", asked again at alpha " + exact(alpha) +
                " (one alpha per evaluation)");
  }
  return slot->cost;
}

double Evaluation::strategy_alpha_to_optimum(StrategyKind kind, double eps) {
  SR_REQUIRE(kind != StrategyKind::kAloof,
             "alpha_to_optimum is defined for SCALE and LLF only");
  SR_REQUIRE(eps > 0.0, "alpha_to_optimum needs eps > 0");
  // One optimum solve feeds every probe; the probes deliberately skip the
  // session's warm payloads (their α jumps around, the session's is
  // ordered).
  const double opt_cost =
      is_parallel() ? optop().optimum_cost : network_optimum().cost;
  auto ratio_at = [&](double alpha) -> double {
    return evaluate_baseline(kind, alpha, /*chained=*/false) / opt_cost;
  };
  const double threshold = 1.0 + eps;
  if (ratio_at(0.0) <= threshold) return 0.0;
  if (ratio_at(1.0) > threshold) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double lo = 0.0, hi = 1.0;  // ratio(lo) > threshold >= ratio(hi)
  for (int it = 0; it < 30; ++it) {
    const double mid = 0.5 * (lo + hi);
    (ratio_at(mid) <= threshold ? hi : lo) = mid;
  }
  return hi;
}

}  // namespace stackroute::engine
