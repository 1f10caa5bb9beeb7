#include "stackroute/sweep/metrics.h"

#include <limits>

namespace stackroute::sweep {

double TaskEval::alpha_of(StrategyKind kind) const {
  return kind == StrategyKind::kAloof
             ? std::numeric_limits<double>::quiet_NaN()
             : point_.get("alpha");
}

double TaskEval::strategy_cost(StrategyKind kind) {
  return strategy_cost(kind, alpha_of(kind));
}

double TaskEval::strategy_ratio(StrategyKind kind) {
  return strategy_ratio(kind, alpha_of(kind));
}

Metric metric_beta() {
  return {"beta", [](TaskEval& e) { return e.beta(); }};
}

Metric metric_poa() {
  return {"poa", [](TaskEval& e) { return e.poa(); }};
}

Metric metric_nash_cost() {
  return {"nash_cost", [](TaskEval& e) { return e.nash_cost(); }};
}

Metric metric_optimum_cost() {
  return {"opt_cost", [](TaskEval& e) { return e.optimum_cost(); }};
}

Metric metric_stackelberg_cost() {
  return {"stackelberg_cost", [](TaskEval& e) { return e.stackelberg_cost(); }};
}

Metric metric_optop_rounds() {
  return {"optop_rounds", [](TaskEval& e) { return e.rounds(); }};
}

Metric metric_strategy_ratio(StrategyKind kind) {
  return {std::string(engine::strategy_name(kind)) + "_ratio",
          [kind](TaskEval& e) { return e.strategy_ratio(kind); }};
}

Metric metric_strategy_cost(StrategyKind kind) {
  return {std::string(engine::strategy_name(kind)) + "_cost",
          [kind](TaskEval& e) { return e.strategy_cost(kind); }};
}

Metric metric_alpha_to_optimum(StrategyKind kind, double eps) {
  return {std::string(engine::strategy_name(kind)) + "_alpha_star",
          [kind, eps](TaskEval& e) {
            return e.strategy_alpha_to_optimum(kind, eps);
          }};
}

std::vector<Metric> default_metrics() {
  return {metric_beta(), metric_poa(), metric_nash_cost(),
          metric_optimum_cost(), metric_stackelberg_cost()};
}

std::vector<Metric> strategy_metrics() {
  return {metric_beta(), metric_optimum_cost(),
          metric_strategy_ratio(StrategyKind::kAloof),
          metric_strategy_ratio(StrategyKind::kScale),
          metric_strategy_ratio(StrategyKind::kLlf)};
}

}  // namespace stackroute::sweep
