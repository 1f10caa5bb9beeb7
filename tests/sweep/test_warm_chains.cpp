// Warm-start solve chains (runner.h): chain decomposition as a pure
// function of the grid, warm-vs-cold metric agreement at table precision
// across every warm-enabled builtin scenario, bitwise thread-count
// determinism of warm tables, cold fallback on mid-chain topology changes
// and task failures, and the workspace instance-revision tag.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stackroute/equilibrium/network.h"
#include "stackroute/obs/counters.h"
#include "stackroute/gen/generators.h"
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

// "Equal at table precision": the formatted tables match cell for cell,
// implemented as a numeric comparison so a value sitting on a rounding
// boundary cannot flake the suite.
void expect_table_precision_equal(const SweepResult& a, const SweepResult& b,
                                  const std::string& label) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks()) << label;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_EQ(a.records[i].ok, b.records[i].ok) << label << " task " << i;
    ASSERT_EQ(a.records[i].metrics.size(), b.records[i].metrics.size());
    for (std::size_t k = 0; k < a.records[i].metrics.size(); ++k) {
      const double x = a.records[i].metrics[k];
      const double y = b.records[i].metrics[k];
      if (std::isnan(x) || std::isnan(y)) {
        EXPECT_TRUE(std::isnan(x) && std::isnan(y))
            << label << " task " << i << " metric " << k;
        continue;
      }
      EXPECT_LE(std::fabs(x - y),
                1e-6 * std::fmax(1.0, std::fmax(std::fabs(x), std::fabs(y))))
          << label << " task " << i << " metric " << k << ": " << x << " vs "
          << y;
    }
  }
}

TEST(WarmChains, ChainCountsFollowTheGrid) {
  ScenarioSpec spec;
  spec.name = "chain-shape";
  spec.grid.add("a", {1, 2}).add_linspace("demand", 0.5, 2.0, 5).add("b",
                                                                     {1, 2, 3});
  spec.factory = [](const ParamPoint& p, Rng&) -> Instance {
    ParallelLinks m = pigou();
    m.demand = p.get("demand");
    return m;
  };
  spec.metrics = {metric_beta()};
  spec.warm_axis = "demand";

  const SweepResult warm = run_with(spec, true, 1);
  EXPECT_EQ(warm.chains, 2u * 3u);  // demand axis folded into chains
  EXPECT_EQ(warm.warm_axis, "demand");
  EXPECT_EQ(warm.num_tasks(), 30u);

  const SweepResult cold = run_with(spec, false, 1);
  EXPECT_EQ(cold.chains, 30u);  // singleton chains
  EXPECT_TRUE(cold.warm_axis.empty());

  spec.warm_axis = "no-such-axis";
  const SweepResult missing = run_with(spec, true, 1);
  EXPECT_EQ(missing.chains, 30u);
  EXPECT_TRUE(missing.warm_axis.empty());
}

TEST(WarmChains, BuiltinScenariosDeclareWarmAxes) {
  // The rule (scenarios.cpp): demand axes chain, and the strategy-compare
  // family chains along alpha (same instance at every point, only the
  // Leader's budget moves); axes that parameterize the latency family
  // itself (braess-eps' eps, thm24-hard's slope) never could, so those
  // scenarios declare nothing.
  for (const auto& named : builtin_scenarios()) {
    const ScenarioSpec spec = named.make();
    if (spec.name == "braess-eps" || spec.name == "thm24-hard") {
      EXPECT_TRUE(spec.warm_axis.empty()) << spec.name;
    } else if (spec.name.rfind("strategy-compare-", 0) == 0) {
      EXPECT_EQ(spec.warm_axis, "alpha") << spec.name;
    } else {
      EXPECT_EQ(spec.warm_axis, "demand") << spec.name;
    }
  }
}

// The shared-prototype scenarios must actually warm-start: adjacent
// demand points of one chain serve pointer-identical latency objects.
TEST(WarmChains, PrototypeScenariosChainCompatiblyAlongDemand) {
  for (const char* name : {"pigou-grid", "mm1-two-groups"}) {
    const ScenarioSpec spec = make_scenario(name);
    Rng rng_a(1), rng_b(2);
    ParamPoint a({"degree", "fast_links", "demand"}, {3.0, 3.0, 1.0});
    ParamPoint b({"degree", "fast_links", "demand"}, {3.0, 3.0, 2.0});
    const Instance ia = spec.factory(a, rng_a);
    const Instance ib = spec.factory(b, rng_b);
    EXPECT_TRUE(engine::chain_compatible(ia, ib)) << name;
    // A different non-warm coordinate must not be compatible.
    ParamPoint c({"degree", "fast_links", "demand"}, {4.0, 4.0, 2.0});
    const Instance ic = spec.factory(c, rng_b);
    EXPECT_FALSE(engine::chain_compatible(ia, ic)) << name;
  }
}

// The headline contract, over every warm-enabled builtin scenario: warm
// and cold runs agree at table precision, and the warm table is bitwise
// identical at any thread count.
TEST(WarmChains, WarmAgreesWithColdAndIsThreadCountDeterministic) {
  for (const auto& named : builtin_scenarios()) {
    const ScenarioSpec spec = named.make();
    const SweepResult cold = run_with(spec, false, 1);
    const SweepResult warm1 = run_with(spec, true, 1);
    const SweepResult warmN = run_with(spec, true, 0);
    EXPECT_EQ(warm1.num_failed(), cold.num_failed()) << spec.name;
    expect_table_precision_equal(warm1, cold, spec.name);
    // Bitwise: byte-identical exports across thread counts.
    EXPECT_EQ(warm1.to_csv(), warmN.to_csv()) << spec.name;
  }
}

TEST(WarmChains, GeneratedDemandSweepChainsAndAgrees) {
  ScenarioSpec spec;
  spec.name = "gen-demand";
  spec.grid.add_linspace("demand", 0.5, 2.5, 9);
  spec.factory =
      generated_instance_source(gen::sized_spec("grid-bpr", 4), 11);
  spec.metrics = default_metrics();
  spec.warm_axis = "demand";

  const SweepResult warm = run_with(spec, true, 1);
  EXPECT_EQ(warm.chains, 1u);
  EXPECT_EQ(warm.num_failed(), 0u);
  const SweepResult cold = run_with(spec, false, 1);
  expect_table_precision_equal(warm, cold, spec.name);
  const SweepResult warmN = run_with(spec, true, 0);
  EXPECT_EQ(warm.to_csv(), warmN.to_csv());
}

// A factory that switches topology mid-axis: the chain must detect the
// break (chain_compatible fails on the fresh latency objects), solve cold
// there, and keep producing rows that agree with the cold run.
TEST(WarmChains, TopologyChangeMidChainFallsBackCold) {
  ScenarioSpec spec;
  spec.name = "topology-break";
  spec.grid.add_linspace("demand", 0.5, 2.0, 6);
  spec.factory = [](const ParamPoint& p, Rng&) -> Instance {
    const double d = p.get("demand");
    Rng gen_rng(42);  // fixed: the topology flip is the only variation
    Instance inst = d < 1.2
                        ? Instance(fig7_instance(0.05))
                        : Instance(random_layered_dag(gen_rng, 2, 3, 0.6, d));
    override_demand(inst, d);
    return inst;
  };
  spec.metrics = {metric_beta(), metric_optimum_cost()};
  spec.warm_axis = "demand";

  const SweepResult warm = run_with(spec, true, 1);
  const SweepResult cold = run_with(spec, false, 1);
  EXPECT_EQ(warm.num_failed(), 0u);
  expect_table_precision_equal(warm, cold, spec.name);
}

// A failing task must reset the chain, not poison the points after it.
TEST(WarmChains, TaskFailureResetsTheChain) {
  ScenarioSpec spec;
  spec.name = "mid-chain-failure";
  spec.grid.add("demand", {0.5, 1.0, -1.0, 1.5, 2.0});  // -1 is infeasible
  spec.factory = [](const ParamPoint& p, Rng&) -> Instance {
    ParallelLinks m = pigou();
    m.demand = p.get("demand");
    m.validate();
    return m;
  };
  spec.metrics = {metric_beta()};
  spec.warm_axis = "demand";

  const SweepResult warm = run_with(spec, true, 1);
  EXPECT_EQ(warm.num_failed(), 1u);
  EXPECT_FALSE(warm.records[2].ok);
  const SweepResult cold = run_with(spec, false, 1);
  expect_table_precision_equal(warm, cold, spec.name);
}

// The workspace instance-revision tag: stable while only scalar knobs
// change (the compiled table is reused), bumped when the topology —
// i.e. the latency object set — actually changes.
TEST(WarmChains, RevisionTagForcesRecompileOnTopologyChange) {
  Rng rng(3);
  NetworkInstance a = grid_city(rng, 3, 3, 1.0);
  NetworkInstance b = random_layered_dag(rng, 2, 3, 0.6, 1.0);
  SolverWorkspace ws;

  (void)solve_nash(a, {}, ws);
  const std::uint64_t after_first = ws.instance_revision();
  EXPECT_GT(after_first, 0u);

  // Same instance again: pointer-identical latencies, no recompilation.
  (void)solve_nash(a, {}, ws);
  EXPECT_EQ(ws.instance_revision(), after_first);

  // Only the demand changed: still no recompilation.
  for (auto& c : a.commodities) c.demand *= 1.5;
  (void)solve_nash(a, {}, ws);
  EXPECT_EQ(ws.instance_revision(), after_first);

  // Different network: the tag must move.
  (void)solve_nash(b, {}, ws);
  EXPECT_GT(ws.instance_revision(), after_first);
}

// ---- Warm-start counter accounting (obs integration) ---------------------
// The chain structure is fully known in these specs, so the obs counters
// have exact expected values: every non-anchor task attempts and hits,
// and chain_resets land on exactly the task that broke the chain.

SweepResult run_counted(const ScenarioSpec& spec, bool warm) {
  SweepOptions opts;
  opts.warm_start = warm;
  opts.collect_counters = true;
  return SweepRunner(opts).run(spec);
}

TEST(WarmChainCounters, CleanChainHitsEveryAttemptAndNeverResets) {
  ScenarioSpec spec;
  spec.name = "counted-clean";
  spec.grid.add_linspace("demand", 0.5, 2.5, 9);
  spec.factory = generated_instance_source(gen::sized_spec("grid-bpr", 4), 11);
  spec.metrics = default_metrics();
  spec.warm_axis = "demand";

  const SweepResult warm = run_counted(spec, true);
  ASSERT_TRUE(warm.counted);
  EXPECT_EQ(warm.chains, 1u);
  const obs::SolveCounters totals = warm.total_counters();
  EXPECT_GT(totals.warm_attempts, 0u);
  EXPECT_EQ(totals.warm_attempts, totals.warm_hits);
  EXPECT_EQ(totals.chain_resets, 0u);
  // The chain's first task is the cold anchor: nothing to attempt yet.
  EXPECT_EQ(warm.records[0].counters.warm_attempts, 0u);
  for (std::size_t i = 1; i < warm.records.size(); ++i) {
    EXPECT_GT(warm.records[i].counters.warm_attempts, 0u) << "task " << i;
  }

  // A cold run does solver work but never offers a warm payload.
  const SweepResult cold = run_counted(spec, false);
  EXPECT_TRUE(cold.total_counters().any());
  EXPECT_EQ(cold.total_counters().warm_attempts, 0u);
  EXPECT_EQ(cold.total_counters().chain_resets, 0u);

  // And with collection off, nothing is counted at all.
  EXPECT_FALSE(run_with(spec, true, 1).total_counters().any());
}

TEST(WarmChainCounters, TopologyBreakResetsExactlyAtTheFlip) {
  // Two shared prototypes so only the genuine topology flip breaks the
  // chain (chain compatibility is latency pointer identity: building
  // instances fresh per call would reset at every task).
  const NetworkInstance proto_a = fig7_instance(0.05);
  Rng gen_rng(42);
  const NetworkInstance proto_b = random_layered_dag(gen_rng, 2, 3, 0.6, 1.0);

  ScenarioSpec spec;
  spec.name = "counted-topology-break";
  spec.grid.add_linspace("demand", 0.5, 2.0, 6);  // 0.5 0.8 1.1 | 1.4 1.7 2.0
  spec.factory = [proto_a, proto_b](const ParamPoint& p, Rng&) -> Instance {
    const double d = p.get("demand");
    Instance inst = d < 1.2 ? Instance(proto_a) : Instance(proto_b);
    override_demand(inst, d);
    return inst;
  };
  spec.metrics = {metric_beta(), metric_optimum_cost()};
  spec.warm_axis = "demand";

  const SweepResult warm = run_counted(spec, true);
  EXPECT_EQ(warm.num_failed(), 0u);
  EXPECT_EQ(warm.total_counters().chain_resets, 1u);
  for (std::size_t i = 0; i < warm.records.size(); ++i) {
    EXPECT_EQ(warm.records[i].counters.chain_resets, i == 3 ? 1u : 0u)
        << "task " << i;
  }
  // The flip task runs cold (its anchor failed the compatibility test);
  // warm-starting resumes immediately after it.
  EXPECT_EQ(warm.records[3].counters.warm_attempts, 0u);
  EXPECT_GT(warm.records[2].counters.warm_attempts, 0u);
  EXPECT_GT(warm.records[4].counters.warm_attempts, 0u);
}

TEST(WarmChainCounters, TaskFailureResetIsCountedOnTheFailingTask) {
  ScenarioSpec spec;
  spec.name = "counted-failure";
  spec.grid.add("demand", {0.5, 1.0, -1.0, 1.5, 2.0});
  const InstanceFactory base =
      generated_instance_source(gen::sized_spec("grid-bpr", 3), 7);
  spec.factory = [base](const ParamPoint& p, Rng& rng) -> Instance {
    if (p.get("demand") < 0.0) throw std::runtime_error("infeasible demand");
    return base(p, rng);
  };
  spec.metrics = default_metrics();
  spec.warm_axis = "demand";

  const SweepResult warm = run_counted(spec, true);
  EXPECT_EQ(warm.num_failed(), 1u);
  EXPECT_FALSE(warm.records[2].ok);
  EXPECT_EQ(warm.total_counters().chain_resets, 1u);
  for (std::size_t i = 0; i < warm.records.size(); ++i) {
    EXPECT_EQ(warm.records[i].counters.chain_resets, i == 2 ? 1u : 0u)
        << "task " << i;
  }
  // The failing task never reached a solver; the task after it restarts
  // the chain cold, and the one after that warms from the new anchor.
  EXPECT_EQ(warm.records[2].counters.warm_attempts, 0u);
  EXPECT_EQ(warm.records[3].counters.warm_attempts, 0u);
  EXPECT_GT(warm.records[1].counters.warm_attempts, 0u);
  EXPECT_GT(warm.records[4].counters.warm_attempts, 0u);
  const obs::SolveCounters totals = warm.total_counters();
  EXPECT_EQ(totals.warm_attempts, totals.warm_hits);
}

}  // namespace
}  // namespace stackroute::sweep
