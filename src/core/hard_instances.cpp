#include "stackroute/core/hard_instances.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stackroute/equilibrium/parallel.h"
#include "stackroute/latency/families.h"
#include "stackroute/solver/water_filling.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/scalar.h"

namespace stackroute {

namespace {

// Tolerance of the Theorem 2.4 split search: the feasibility-gap test, and
// (scaled by max(1, budget)) the bisection and golden-section searches.
constexpr double kTol = 1e-11;

struct CommonSlopeView {
  double slope = 0.0;
  std::vector<double> intercepts;  // sorted ascending
  std::vector<std::size_t> order;  // sorted position -> original index
};

CommonSlopeView common_slope_view(const ParallelLinks& m) {
  CommonSlopeView view;
  std::vector<double> b(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    const auto* affine = dynamic_cast<const AffineLatency*>(m.links[i].get());
    SR_REQUIRE(affine != nullptr,
               "Theorem 2.4 needs affine links ℓ(x) = a·x + b");
    if (i == 0) {
      view.slope = affine->slope();
    } else {
      SR_REQUIRE(std::fabs(affine->slope() - view.slope) <=
                     1e-12 * std::fmax(1.0, view.slope),
                 "Theorem 2.4 needs one common slope across links");
    }
    b[i] = affine->intercept();
  }
  SR_REQUIRE(view.slope > 0.0,
             "Theorem 2.4 needs slope a > 0 (a = 0 is the all-constant "
             "degenerate case)");
  view.order.resize(m.size());
  std::iota(view.order.begin(), view.order.end(), std::size_t{0});
  std::stable_sort(view.order.begin(), view.order.end(),
                   [&](std::size_t x, std::size_t y) { return b[x] < b[y]; });
  view.intercepts.resize(m.size());
  for (std::size_t p = 0; p < m.size(); ++p) {
    view.intercepts[p] = b[view.order[p]];
  }
  return view;
}

// Partial-cost evaluation for one split. Suffix flows are returned so the
// winning candidate can be turned into a concrete strategy.
struct SplitEval {
  bool feasible = false;
  double cost = kInf;
  std::vector<double> suffix_flows;  // by sorted position p..m-1
  double nash_level = 0.0;           // prefix common latency
};

class SplitProblem {
 public:
  SplitProblem(const ParallelLinks& m, const CommonSlopeView& view,
               std::size_t prefix, double alpha)
      : view_(view),
        prefix_(prefix),
        follower_flow_((1.0 - alpha) * m.demand) {
    prefix_b_sum_ = 0.0;
    for (std::size_t p = 0; p < prefix; ++p) prefix_b_sum_ += view.intercepts[p];
    for (std::size_t p = prefix; p < m.size(); ++p) {
      suffix_links_.push_back(make_affine(view.slope, view.intercepts[p]));
    }
  }

  /// Common prefix latency when the prefix carries total flow F with all
  /// links loaded.
  [[nodiscard]] double prefix_level(double flow) const {
    return (view_.slope * flow + prefix_b_sum_) /
           static_cast<double>(prefix_);
  }

  /// Smallest prefix flow loading every prefix link.
  [[nodiscard]] double min_prefix_flow() const {
    const double b_max = view_.intercepts[prefix_ - 1];
    return (static_cast<double>(prefix_) * b_max - prefix_b_sum_) /
           view_.slope;
  }

  [[nodiscard]] double prefix_flow(double eps) const {
    return follower_flow_ + eps;
  }

  /// Nash cost of the fully loaded prefix: every link at the common level.
  [[nodiscard]] double prefix_cost(double eps) const {
    const double flow = prefix_flow(eps);
    return prefix_level(flow) * flow;
  }

  /// Optimum assignment of `flow` on the suffix.
  [[nodiscard]] WaterFillingResult suffix_optimum(double flow) const {
    if (suffix_links_.empty() || flow <= 0.0) {
      WaterFillingResult empty;
      empty.flows.assign(suffix_links_.size(), 0.0);
      return empty;
    }
    return water_fill(suffix_links_, flow, LevelKind::kMarginalCost);
  }

  [[nodiscard]] double suffix_cost(const WaterFillingResult& wf) const {
    double total = 0.0;
    for (std::size_t j = 0; j < suffix_links_.size(); ++j) {
      total += wf.flows[j] * suffix_links_[j]->value(wf.flows[j]);
    }
    return total;
  }

  /// Minimum a-posteriori latency over the suffix (empty links count with
  /// ℓ(0) = b); +inf when there is no suffix.
  [[nodiscard]] double suffix_min_latency(const WaterFillingResult& wf) const {
    double lo = kInf;
    for (std::size_t j = 0; j < suffix_links_.size(); ++j) {
      lo = std::fmin(lo, suffix_links_[j]->value(wf.flows[j]));
    }
    return lo;
  }

  /// Constraint (ii) slack: prefix level − min suffix latency (<= 0 is
  /// feasible); increasing in eps.
  [[nodiscard]] double feasibility_gap(double eps, double leader_budget) const {
    const double level = prefix_level(prefix_flow(eps));
    const WaterFillingResult wf = suffix_optimum(leader_budget - eps);
    return level - suffix_min_latency(wf);
  }

  [[nodiscard]] double total_cost(double eps, double leader_budget) const {
    return prefix_cost(eps) + suffix_cost(suffix_optimum(leader_budget - eps));
  }

  [[nodiscard]] const std::vector<LatencyPtr>& suffix_links() const {
    return suffix_links_;
  }

 private:
  const CommonSlopeView& view_;
  std::size_t prefix_;
  double follower_flow_;
  double prefix_b_sum_ = 0.0;
  std::vector<LatencyPtr> suffix_links_;
};

}  // namespace

Thm24Result optimal_strategy_common_slope(const ParallelLinks& m,
                                          double alpha) {
  m.validate();
  SR_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must lie in [0, 1]");
  const CommonSlopeView view = common_slope_view(m);
  const std::size_t mm = m.size();
  const double budget = alpha * m.demand;

  // Degenerate candidate: any strategy staying below the Nash loads
  // (Theorem 7.2) leaves the cost at C(N). Representative: s = α·N.
  const LinkAssignment nash = solve_nash(m);
  Thm24Result best;
  best.prefix_size = static_cast<int>(mm);
  best.epsilon = 0.0;
  best.cost = cost(m, nash.flows);
  best.strategy.assign(mm, 0.0);
  for (std::size_t i = 0; i < mm; ++i) {
    best.strategy[i] = alpha * nash.flows[i];
  }

  struct Candidate {
    std::size_t prefix;
    double eps;
    double cost;
  };
  Candidate winner{mm, 0.0, best.cost};

  for (std::size_t prefix = 1; prefix < mm; ++prefix) {
    const SplitProblem prob(m, view, prefix, alpha);

    // Constraint (i): all prefix links loaded -> eps >= eps_lo.
    const double eps_lo =
        std::fmax(0.0, prob.min_prefix_flow() - prob.prefix_flow(0.0));
    if (eps_lo > budget) continue;

    // Constraint (ii): feasibility_gap(eps) <= 0, increasing in eps.
    auto gap = [&](double eps) { return prob.feasibility_gap(eps, budget); };
    if (gap(eps_lo) > kTol) continue;  // no feasible eps for this split
    double eps_hi = budget;
    if (gap(budget) > 0.0) {
      eps_hi = bisect_increasing(gap, eps_lo, budget,
                                 kTol * std::fmax(1.0, budget));
    }

    // Convex objective on the feasible interval.
    auto objective = [&](double eps) { return prob.total_cost(eps, budget); };
    const double eps_star = golden_section_min(
        objective, eps_lo, eps_hi, kTol * std::fmax(1.0, budget));
    const double c = objective(eps_star);
    if (c < winner.cost - 1e-15) {
      winner = Candidate{prefix, eps_star, c};
    }
  }

  if (winner.prefix < mm) {
    const SplitProblem prob(m, view, winner.prefix, alpha);
    best.prefix_size = static_cast<int>(winner.prefix);
    best.epsilon = winner.eps;
    best.cost = winner.cost;
    best.strategy.assign(mm, 0.0);
    // Suffix: the Leader's optimum assignment of (budget − eps).
    const WaterFillingResult suffix =
        prob.suffix_optimum(budget - winner.eps);
    for (std::size_t j = 0; j < suffix.flows.size(); ++j) {
      best.strategy[view.order[winner.prefix + j]] = suffix.flows[j];
    }
    // Prefix: spread eps proportionally to the prefix Nash assignment so
    // that no link gets more Leader flow than its equilibrium load.
    const double flow = prob.prefix_flow(winner.eps);
    if (winner.eps > 0.0 && flow > 0.0) {
      const double level = prob.prefix_level(flow);
      for (std::size_t p = 0; p < winner.prefix; ++p) {
        const double link_flow =
            (level - view.intercepts[p]) / view.slope;  // Nash share
        best.strategy[view.order[p]] =
            winner.eps * std::fmax(0.0, link_flow) / flow;
      }
    }
  }

  // Evaluate the returned strategy for the reported induced flows/ratio —
  // also an internal consistency check of the split model.
  const StackelbergOutcome outcome = evaluate_strategy(m, best.strategy);
  best.induced = outcome.induced;
  best.cost = outcome.cost;
  best.ratio = outcome.ratio;
  return best;
}

StackelbergOutcome brute_force_strategy(const ParallelLinks& m, double alpha) {
  // Simplex grid resolution (αr split into kGrid units), then the
  // pattern-search refinement rounds after the grid scan.
  constexpr int kGrid = 16;
  constexpr int kRefineRounds = 60;
  m.validate();
  SR_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must lie in [0, 1]");
  const std::size_t mm = m.size();
  const double budget = alpha * m.demand;

  std::vector<double> s(mm, 0.0);
  std::vector<double> best_s(mm, 0.0);
  double best_cost = kInf;

  auto try_strategy = [&](std::span<const double> cand) {
    const LinkAssignment induced = solve_induced(m, cand);
    const double c = stackelberg_cost(m, cand, induced.flows);
    if (c < best_cost) {
      best_cost = c;
      best_s.assign(cand.begin(), cand.end());
    }
  };

  // Grid scan over the simplex {Σ s_i = budget}.
  const double unit = budget / kGrid;
  auto scan = [&](auto&& self, std::size_t link, int left) -> void {
    if (link + 1 == mm) {
      s[link] = left * unit;
      try_strategy(s);
      return;
    }
    for (int take = 0; take <= left; ++take) {
      s[link] = take * unit;
      self(self, link + 1, left - take);
    }
  };
  if (budget > 0.0) {
    scan(scan, 0, kGrid);
  } else {
    try_strategy(s);
  }

  // Pattern search: greedily move `step` of flow between link pairs.
  double step = unit > 0.0 ? unit : budget;
  for (int round = 0; round < kRefineRounds && step > 1e-12 * budget;
       ++round) {
    bool improved = false;
    for (std::size_t i = 0; i < mm; ++i) {
      for (std::size_t j = 0; j < mm; ++j) {
        if (i == j) continue;
        // Re-check inside the loop: try_strategy may have replaced best_s.
        if (best_s[i] < step) break;
        std::vector<double> cand = best_s;
        cand[i] -= step;
        cand[j] += step;
        const double before = best_cost;
        try_strategy(cand);
        improved = improved || best_cost < before - 1e-15;
      }
    }
    if (!improved) step *= 0.5;
  }

  return evaluate_strategy(m, best_s);
}

double improvement_threshold_common_slope(const ParallelLinks& m,
                                          double tol) {
  m.validate();
  const LinkAssignment nash = solve_nash(m);
  const LinkAssignment opt = solve_optimum(m);
  const double nash_cost = cost(m, nash.flows);
  const double opt_cost = cost(m, opt.flows);
  const double improvement_tol = 1e-11 * std::fmax(1.0, nash_cost);
  if (nash_cost <= opt_cost + improvement_tol) return 0.0;

  // improves(alpha) is monotone: once the optimal strategy beats C(N) it
  // keeps beating it for larger alpha (pad with a sub-Nash useless part).
  auto improves = [&](double alpha) {
    const Thm24Result r = optimal_strategy_common_slope(m, alpha);
    return r.cost < nash_cost - improvement_tol;
  };
  SR_ASSERT(improves(1.0), "full control must reach C(O) < C(N)");
  double lo = 0.0, hi = 1.0;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (improves(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace stackroute
