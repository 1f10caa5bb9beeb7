// Strategy metrics and the strategy-compare-* scenarios: α-axis warm
// chains agree with cold runs at table precision and are bitwise
// thread-count deterministic, the LLF (1/α)·C(O) guarantee surfaces in
// the parallel-links tables, alpha_star bisection, and metric
// preconditions (a missing "alpha" axis is a clean failed row).
#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/gen/registry.h"
#include "stackroute/network/generators.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenarios.h"
#include "stackroute/util/error.h"
#include "stackroute/util/parallel.h"

namespace stackroute::sweep {
namespace {

SweepResult run_with(const ScenarioSpec& spec, bool warm, int threads) {
  set_max_threads(threads);
  SweepOptions opts;
  opts.warm_start = warm;
  SweepResult result = SweepRunner(opts).run(spec);
  set_max_threads(0);
  return result;
}

double column(const SweepResult& r, std::size_t task, const char* name) {
  for (std::size_t k = 0; k < r.metric_columns.size(); ++k) {
    if (r.metric_columns[k] == name) return r.records[task].metrics[k];
  }
  throw Error(std::string("no such metric column: ") + name);
}

const std::vector<std::string> kStrategyScenarios = {
    "strategy-compare-parallel", "strategy-compare-grid",
    "strategy-compare-braess", "strategy-compare-siouxfalls"};

// The chain determinism contract from PR 4, extended to preload chains
// (satellite of ISSUE 5): warm and cold agree at table precision across
// {1, N} threads, and both tables are bitwise identical at any thread
// count.
TEST(StrategySweep, WarmAgreesWithColdAcrossThreadCounts) {
  for (const auto& name : kStrategyScenarios) {
    const ScenarioSpec spec = make_scenario(name);
    const SweepResult cold1 = run_with(spec, false, 1);
    const SweepResult coldN = run_with(spec, false, 0);
    const SweepResult warm1 = run_with(spec, true, 1);
    const SweepResult warmN = run_with(spec, true, 0);
    EXPECT_EQ(cold1.num_failed(), 0u) << name;
    EXPECT_EQ(warm1.num_failed(), 0u) << name;
    EXPECT_EQ(warm1.to_csv(), warmN.to_csv()) << name;
    EXPECT_EQ(cold1.to_csv(), coldN.to_csv()) << name;
    ASSERT_EQ(warm1.num_tasks(), cold1.num_tasks()) << name;
    for (std::size_t i = 0; i < warm1.num_tasks(); ++i) {
      for (std::size_t k = 0; k < warm1.records[i].metrics.size(); ++k) {
        const double w = warm1.records[i].metrics[k];
        const double c = cold1.records[i].metrics[k];
        EXPECT_LE(std::fabs(w - c),
                  1e-6 * std::fmax(1.0, std::fmax(std::fabs(w), std::fabs(c))))
            << name << " task " << i << " metric " << k;
      }
    }
  }
}

TEST(StrategySweep, ParallelTableObeysLlfGuarantee) {
  // [41, Thm 6.4.4] through the sweep layer: on parallel links the llf
  // column satisfies C(S+T)/C(O) <= 1/α at every α > 0 of the grid.
  const ScenarioSpec spec = make_scenario("strategy-compare-parallel");
  const SweepResult r = run_with(spec, true, 1);
  ASSERT_EQ(r.num_failed(), 0u);
  for (std::size_t i = 0; i < r.num_tasks(); ++i) {
    const double alpha = r.records[i].point.get("alpha");
    if (alpha <= 0.0) continue;
    EXPECT_LE(column(r, i, "llf_ratio"), 1.0 / alpha + 1e-6) << "task " << i;
  }
}

TEST(StrategySweep, BraessScenarioShowsTheGeneralNetGap) {
  // On the classic Braess diamond (rungs = 1) no α < 1 SCALE reaches the
  // optimum — β is 1 there — while on Fig. 4 (the parallel scenario) the
  // baselines do close the gap as α → 1.
  const ScenarioSpec spec = make_scenario("strategy-compare-braess");
  const SweepResult r = run_with(spec, true, 1);
  ASSERT_EQ(r.num_failed(), 0u);
  for (std::size_t i = 0; i < r.num_tasks(); ++i) {
    if (r.records[i].point.get_int("rungs") != 1) continue;
    const double alpha = r.records[i].point.get("alpha");
    if (alpha >= 1.0) continue;
    EXPECT_GT(column(r, i, "scale_ratio"), 1.0 + 1e-6)
        << "alpha " << alpha;
  }
}

TEST(StrategySweep, AlphaStarMetricBisectsToTheKnownThreshold) {
  // On Pigou, LLF reaches the optimum exactly at α = 1/2 (the Fig. 2
  // strategy): alpha_star with a small eps must land just below 0.5.
  ScenarioSpec spec;
  spec.name = "pigou-alpha-star";
  spec.grid.add("demand", {1.0});
  spec.factory = [](const ParamPoint&, Rng&) -> Instance { return pigou(); };
  spec.metrics = {metric_alpha_to_optimum(StrategyKind::kLlf, 1e-3),
                  metric_alpha_to_optimum(StrategyKind::kScale, 1e-3)};
  const SweepResult r = run_with(spec, false, 1);
  ASSERT_EQ(r.num_failed(), 0u);
  const double llf_star = column(r, 0, "llf_alpha_star");
  EXPECT_GT(llf_star, 0.40);
  EXPECT_LE(llf_star, 0.50 + 1e-9);
  const double scale_star = column(r, 0, "scale_alpha_star");
  EXPECT_GT(scale_star, 0.0);
  EXPECT_LT(scale_star, 1.0);
}

TEST(StrategySweep, MissingAlphaAxisIsACleanFailedRow) {
  // scale_ratio reads the "alpha" parameter; a grid without it must
  // produce an error row naming the missing parameter, not a crash.
  ScenarioSpec spec;
  spec.name = "no-alpha";
  spec.grid.add("demand", {1.0});
  spec.factory = [](const ParamPoint&, Rng&) -> Instance { return pigou(); };
  spec.metrics = {metric_strategy_ratio(StrategyKind::kScale)};
  const SweepResult r = run_with(spec, false, 1);
  ASSERT_EQ(r.num_tasks(), 1u);
  EXPECT_EQ(r.num_failed(), 1u);
  EXPECT_NE(r.records[0].error.find("alpha"), std::string::npos)
      << r.records[0].error;
}

TEST(StrategySweep, AloofColumnMatchesPoaTimesOne) {
  // aloof_ratio is the PoA by definition; the two columns must agree
  // bitwise (they divide the same cached costs).
  ScenarioSpec spec;
  spec.name = "aloof-vs-poa";
  spec.grid.add("alpha", {0.5});
  Rng seed_rng(7);
  auto proto = std::make_shared<Instance>(grid_city(seed_rng, 3, 3, 2.0));
  spec.factory = [proto](const ParamPoint&, Rng&) -> Instance {
    return *proto;
  };
  spec.metrics = {metric_poa(), metric_strategy_ratio(StrategyKind::kAloof)};
  const SweepResult r = run_with(spec, false, 1);
  ASSERT_EQ(r.num_failed(), 0u);
  EXPECT_EQ(column(r, 0, "poa"), column(r, 0, "aloof_ratio"));
}

}  // namespace
}  // namespace stackroute::sweep
