// Sweep-level resilience: the RetryPolicy cold-retry loop, fault-injected
// failure/degradation/recovery paths, per-task failure reporting, and the
// determinism contracts — fault-injected tables are invariant under the
// thread count, and a no-fault run is bitwise identical to a plan-free run.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "stackroute/network/generators.h"
#include "stackroute/sweep/metrics.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenarios.h"
#include "stackroute/util/error.h"
#include "stackroute/util/fault.h"
#include "stackroute/util/parallel.h"

namespace stackroute::sweep {
namespace {

// A small parallel-links demand sweep: 6 tasks in 2 chains.
ScenarioSpec links_spec() {
  ScenarioSpec spec;
  spec.name = "faults-links";
  spec.grid.add("a", {1, 2}).add_linspace("demand", 0.5, 1.5, 3);
  spec.factory = [](const ParamPoint& p, Rng&) -> Instance {
    ParallelLinks m = pigou();
    m.demand = p.get("demand");
    return m;
  };
  spec.metrics = {metric_nash_cost(), metric_beta()};
  spec.warm_axis = "demand";
  return spec;
}

// A 4-task network sweep (Braess at scaled demand): injected NaN here hits
// the bush solver, which degrades instead of healing. No warm axis: every
// task is its own cold chain, so a task with a NaN latency solves from
// scratch and reads it (a warm start from an already converged neighbor
// can finish without ever evaluating the poisoned latency).
ScenarioSpec network_spec() {
  ScenarioSpec spec;
  spec.name = "faults-network";
  spec.grid.add_linspace("demand", 0.8, 1.2, 4);
  spec.factory = [](const ParamPoint& p, Rng&) -> Instance {
    NetworkInstance inst = braess_classic();
    for (Commodity& c : inst.commodities) c.demand = p.get("demand");
    return inst;
  };
  spec.metrics = {metric_nash_cost()};
  return spec;
}

SweepResult run_with(const ScenarioSpec& spec, const SweepOptions& opts,
                     int threads) {
  set_max_threads(threads);
  SweepResult result = SweepRunner(opts).run(spec);
  set_max_threads(0);
  return result;
}

TEST(SweepFaults, UnarmedPlanIsBitwiseIdenticalToNoPlan) {
  const ScenarioSpec spec = links_spec();
  const SweepResult bare = run_with(spec, {}, 1);

  SweepOptions opts;
  fault::FaultPlan empty_plan;
  opts.faults = &empty_plan;  // armed() == false: must change nothing
  opts.retry.max_retries = 3;
  opts.budget = {};  // inactive
  const SweepResult planned = run_with(spec, opts, 1);

  EXPECT_EQ(bare.to_csv(), planned.to_csv());
  EXPECT_EQ(bare.num_failed(), 0u);
  EXPECT_EQ(planned.num_degraded(), 0u);
}

TEST(SweepFaults, SingleFailureHealedByColdRetry) {
  const ScenarioSpec spec = links_spec();
  const SweepResult clean = run_with(spec, {}, 1);

  fault::FaultPlan plan;
  plan.fail_task(2, 1);  // one injected throw; default policy retries once
  SweepOptions opts;
  opts.faults = &plan;
  const SweepResult healed = run_with(spec, opts, 1);

  EXPECT_EQ(healed.num_failed(), 0u);
  EXPECT_EQ(healed.records[2].retries, 1);
  EXPECT_EQ(healed.records[0].retries, 0);
  // The healed table is byte-identical to the clean one — recovery leaves
  // no trace in the deterministic outputs.
  EXPECT_EQ(healed.to_csv(), clean.to_csv());
}

TEST(SweepFaults, PersistentFailureIsReportedPerTask) {
  fault::FaultPlan plan;
  plan.fail_task(2, 2);  // fails the first attempt AND the cold retry
  SweepOptions opts;
  opts.faults = &plan;
  const SweepResult r = run_with(links_spec(), opts, 1);

  EXPECT_EQ(r.num_failed(), 1u);
  EXPECT_FALSE(r.records[2].ok);
  EXPECT_EQ(r.records[2].retries, 1);
  EXPECT_NE(r.records[2].error.find("injected"), std::string::npos);
  for (double v : r.records[2].metrics) EXPECT_TRUE(std::isnan(v));
  // The failed row prints "error" in the status column.
  EXPECT_NE(r.to_csv().find("error"), std::string::npos);
  // The summary counts it.
  EXPECT_NE(r.summary().find("1 failed"), std::string::npos);
}

TEST(SweepFaults, RetriesCanBeDisabled) {
  fault::FaultPlan plan;
  plan.fail_task(1, 1);
  SweepOptions opts;
  opts.faults = &plan;
  opts.retry.max_retries = 0;
  const SweepResult r = run_with(links_spec(), opts, 1);
  EXPECT_EQ(r.num_failed(), 1u);
  EXPECT_EQ(r.records[1].retries, 0);
}

TEST(SweepFaults, InjectedNanDegradesNetworkTaskHonestly) {
  fault::FaultPlan plan;
  plan.nan_latency(1, 0);
  SweepOptions opts;
  opts.faults = &plan;
  const SweepResult r = run_with(network_spec(), opts, 1);

  EXPECT_EQ(r.num_failed(), 0u);
  EXPECT_EQ(r.num_degraded(), 1u);
  EXPECT_TRUE(r.records[1].ok);
  EXPECT_EQ(r.records[1].status, SolveStatus::kNumericFailure);
  // Degraded rows carry the taxonomy string, not "ok".
  EXPECT_NE(r.to_csv().find("numeric"), std::string::npos);
  EXPECT_NE(r.summary().find("1 degraded"), std::string::npos);
}

TEST(SweepFaults, ThrowingMetricNamesTheColumn) {
  fault::FaultPlan plan;
  plan.throwing_metric(0, 1, 2);  // metric index 1 = "beta", both attempts
  SweepOptions opts;
  opts.faults = &plan;
  const SweepResult r = run_with(links_spec(), opts, 1);
  EXPECT_EQ(r.num_failed(), 1u);
  EXPECT_NE(r.records[0].error.find("beta"), std::string::npos);
}

TEST(SweepFaults, DemandPerturbationIsSeededAndThreadInvariant) {
  const ScenarioSpec spec = links_spec();
  const SweepResult clean = run_with(spec, {}, 1);

  fault::FaultPlan plan;
  plan.set_seed(7);
  plan.perturb_demand(3, 0.2);
  SweepOptions opts;
  opts.faults = &plan;
  const SweepResult t1 = run_with(spec, opts, 1);
  const SweepResult t4 = run_with(spec, opts, 4);

  // The perturbation moved task 3's metrics...
  EXPECT_NE(clean.to_csv(), t1.to_csv());
  EXPECT_EQ(t1.records[3].ok, true);
  // ...identically at any thread count (same seed, same factor).
  EXPECT_EQ(t1.to_csv(), t4.to_csv());
}

TEST(SweepFaults, CompositeFaultTablesAreThreadInvariant) {
  const ScenarioSpec spec = links_spec();
  fault::FaultPlan plan;
  plan.fail_task(0, 2);
  plan.nan_latency(2, 1);
  plan.throwing_metric(4, 0, 1);
  plan.scale_demand(5, 1.25);
  SweepOptions opts;
  opts.faults = &plan;
  opts.budget.max_iters = 100000;  // active but generous

  const SweepResult t1 = run_with(spec, opts, 1);
  const SweepResult t4 = run_with(spec, opts, 4);
  EXPECT_EQ(t1.to_csv(), t4.to_csv());
  EXPECT_EQ(t1.num_failed(), t4.num_failed());
  EXPECT_EQ(t1.num_degraded(), t4.num_degraded());
  for (std::size_t i = 0; i < t1.records.size(); ++i) {
    EXPECT_EQ(t1.records[i].status, t4.records[i].status) << "task " << i;
    EXPECT_EQ(t1.records[i].retries, t4.records[i].retries) << "task " << i;
  }
}

TEST(SweepFaults, TightBudgetDegradesDeterministically) {
  const ScenarioSpec spec = network_spec();
  SweepOptions opts;
  opts.budget.max_iters = 1;  // every assignment stops after one step
  const SweepResult t1 = run_with(spec, opts, 1);
  const SweepResult t4 = run_with(spec, opts, 4);

  EXPECT_EQ(t1.num_failed(), 0u);
  // A task may legitimately converge within the cap (Braess can
  // equilibrate in one step at some demands); at least one must not.
  EXPECT_GE(t1.num_degraded(), 1u);
  for (const TaskRecord& rec : t1.records) {
    EXPECT_TRUE(rec.status == SolveStatus::kConverged ||
                rec.status == SolveStatus::kIterLimit)
        << to_string(rec.status);
    for (double v : rec.metrics) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(t1.to_csv(), t4.to_csv());
  EXPECT_NE(t1.to_csv().find("iter_limit"), std::string::npos);
}

TEST(SweepFaults, KeepGoingOffNamesTheParamPoint) {
  fault::FaultPlan plan;
  plan.fail_task(2, 2);
  SweepOptions opts;
  opts.faults = &plan;
  opts.keep_going = false;
  try {
    (void)run_with(links_spec(), opts, 1);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    // The rethrow names where in the grid the task sat, plus the cause.
    EXPECT_NE(what.find("sweep task failed at {"), std::string::npos) << what;
    EXPECT_NE(what.find("demand"), std::string::npos) << what;
    EXPECT_NE(what.find("injected"), std::string::npos) << what;
  }
}

TEST(SweepFaults, TimingTableReportsRetries) {
  fault::FaultPlan plan;
  plan.fail_task(1, 1);
  SweepOptions opts;
  opts.faults = &plan;
  const SweepResult r = run_with(links_spec(), opts, 1);
  const std::string csv = r.timing_table().to_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find("retries"), std::string::npos) << header;
}

}  // namespace
}  // namespace stackroute::sweep
