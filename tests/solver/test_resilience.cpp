// Resilience layer unit tests: the SolveStatus taxonomy, SolveBudget
// arming/gating, degraded solves returning honest best-so-far results,
// deterministic fault injection through the solver seams, and the
// warm-start guard's cold fallback.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "stackroute/core/mop.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/bush.h"
#include "stackroute/solver/status.h"
#include "stackroute/solver/traffic_assignment.h"
#include "stackroute/solver/water_filling.h"
#include "stackroute/util/fault.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

TEST(SolveStatus, SeverityOrderAndStrings) {
  EXPECT_TRUE(solve_ok(SolveStatus::kConverged));
  EXPECT_FALSE(solve_ok(SolveStatus::kIterLimit));
  EXPECT_FALSE(solve_ok(SolveStatus::kNumericFailure));

  // worst_status is max under the severity order.
  EXPECT_EQ(worst_status(SolveStatus::kConverged, SolveStatus::kIterLimit),
            SolveStatus::kIterLimit);
  EXPECT_EQ(worst_status(SolveStatus::kDeadlineExceeded,
                         SolveStatus::kIterLimit),
            SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(worst_status(SolveStatus::kNumericFailure,
                         SolveStatus::kDeadlineExceeded),
            SolveStatus::kNumericFailure);

  EXPECT_STREQ(to_string(SolveStatus::kConverged), "converged");
  EXPECT_STREQ(to_string(SolveStatus::kIterLimit), "iter_limit");
  EXPECT_STREQ(to_string(SolveStatus::kDeadlineExceeded), "deadline");
  EXPECT_STREQ(to_string(SolveStatus::kNumericFailure), "numeric");
}

TEST(SolveBudget, DefaultIsInactive) {
  const SolveBudget b;
  EXPECT_FALSE(b.active());
  EXPECT_FALSE(b.limits_iters());
  EXPECT_FALSE(b.has_deadline());
  EXPECT_EQ(b.armed().deadline_ns, 0);
}

TEST(SolveBudget, ArmingIsIdempotent) {
  SolveBudget b;
  b.deadline_ms = 50.0;
  const SolveBudget armed = b.armed();
  EXPECT_GT(armed.deadline_ns, 0);
  // Arming an armed budget must not push the deadline out — that is what
  // lets a pipeline hand one deadline to every sub-solve.
  EXPECT_EQ(armed.armed().deadline_ns, armed.deadline_ns);
}

TEST(BudgetGate, IterationCapAndDeadline) {
  SolveBudget iters;
  iters.max_iters = 3;
  BudgetGate gate(iters);
  EXPECT_FALSE(gate.over_iters(2));
  EXPECT_TRUE(gate.over_iters(3));
  EXPECT_FALSE(gate.expired());  // no deadline set

  SolveBudget past;
  past.deadline_ns = 1;  // epoch + 1ns: long expired
  BudgetGate expired_gate(past);
  EXPECT_TRUE(expired_gate.expired());
  EXPECT_TRUE(expired_gate.expired());  // sticky
}

TEST(Bush, BudgetIterCapDegradesWithHonestGap) {
  // The budget's cap (not the solver's own max_iters) stops a congested
  // grid city short of the tolerance.
  Rng rng(11);
  const NetworkInstance inst = grid_city(rng, 4, 4, 3.0);
  BushOptions opts;
  opts.rel_gap_tol = 1e-10;
  opts.budget.max_iters = 2;
  const BushResult r = solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
  EXPECT_EQ(r.status, SolveStatus::kIterLimit);
  EXPECT_FALSE(solve_ok(r.status));
  EXPECT_EQ(r.iterations, 2);
  EXPECT_GT(r.rel_gap, opts.rel_gap_tol);  // the honest quality bound
  // Best-so-far flow is still feasible and finite.
  double total = 0.0;
  for (double f : r.edge_flow) {
    EXPECT_TRUE(std::isfinite(f));
    total += f;
  }
  EXPECT_GT(total, 0.0);
}

TEST(Bush, ExpiredDeadlineDegradesImmediately) {
  const NetworkInstance inst = braess_classic();
  BushOptions opts;
  opts.budget.deadline_ns = 1;
  const BushResult r = solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
  EXPECT_EQ(r.status, SolveStatus::kDeadlineExceeded);
  EXPECT_FALSE(solve_ok(r.status));
  EXPECT_EQ(r.iterations, 0);
  for (double f : r.edge_flow) EXPECT_TRUE(std::isfinite(f));
}

TEST(AssignTraffic, IterCapDegradesWithHonestSpread) {
  // A congested grid needs many equalization steps; Braess can
  // legitimately equilibrate in one.
  Rng rng(11);
  const NetworkInstance inst = grid_city(rng, 4, 4, 3.0);
  AssignmentOptions opts;
  opts.tol = 1e-12;
  opts.budget.max_iters = 1;  // one equalization step, nowhere near done
  const AssignmentResult r =
      assign_traffic(inst, FlowObjective::kBeckmann, {}, opts);
  EXPECT_EQ(r.status, SolveStatus::kIterLimit);
  EXPECT_FALSE(solve_ok(r.status));
  EXPECT_GT(r.spread, opts.tol);
  double total = 0.0;
  for (double f : r.edge_flow) {
    EXPECT_TRUE(std::isfinite(f));
    total += f;
  }
  EXPECT_GT(total, 0.0);  // demand still routed, just not equilibrated
}

TEST(AssignTraffic, UnbudgetedRunsMatchPreBudgetBehavior) {
  const NetworkInstance inst = braess_classic();
  const AssignmentResult r = assign_traffic(inst, FlowObjective::kBeckmann);
  EXPECT_EQ(r.status, SolveStatus::kConverged);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_LE(r.spread, AssignmentOptions{}.tol);
}

TEST(WaterFill, EvalCapDegradesWithSupplyGap) {
  const ParallelLinks m = pigou();
  SolverWorkspace ws;
  SolveBudget budget;
  budget.max_iters = 1;  // one S(L) probe: cannot bracket, let alone refine
  const WaterFillingResult r =
      water_fill(m.links, m.demand, LevelKind::kLatency, 1e-13, ws,
                 std::nan(""), budget);
  EXPECT_EQ(r.status, SolveStatus::kIterLimit);
  EXPECT_TRUE(std::isfinite(r.level));
  for (double f : r.flows) EXPECT_TRUE(std::isfinite(f));
  // The reported gap is the honest miss of the best-so-far level.
  EXPECT_TRUE(std::isfinite(r.supply_gap));
}

TEST(FaultPlan, LookupAndArming) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.armed());
  EXPECT_EQ(plan.for_task(0), nullptr);

  plan.nan_latency(2, 5);
  plan.fail_task(4, 2);
  EXPECT_TRUE(plan.armed());
  EXPECT_EQ(plan.for_task(0), nullptr);
  ASSERT_NE(plan.for_task(2), nullptr);
  ASSERT_EQ(plan.for_task(2)->latency.size(), 1u);
  EXPECT_EQ(plan.for_task(2)->latency[0].call, 5u);
  EXPECT_FALSE(plan.for_task(2)->latency[0].inf);
  EXPECT_EQ(plan.for_task(4)->fail_times, 2);
}

TEST(FaultScope, EventsFireAtExactIndicesOnFirstAttemptOnly) {
  fault::TaskFaults tf;
  tf.latency.push_back({1, false});  // event 1 -> NaN
  tf.latency.push_back({3, true});   // event 3 -> +Inf

  {
    fault::FaultScope scope(&tf, /*attempt=*/0);
    ASSERT_TRUE(fault::armed());
    double bad = 0.0;
    EXPECT_FALSE(fault::next_eval_faulted(bad));  // event 0
    EXPECT_TRUE(fault::next_eval_faulted(bad));   // event 1
    EXPECT_TRUE(std::isnan(bad));
    EXPECT_FALSE(fault::next_eval_faulted(bad));  // event 2
    EXPECT_TRUE(fault::next_eval_faulted(bad));   // event 3
    EXPECT_TRUE(std::isinf(bad));
    EXPECT_FALSE(fault::next_eval_faulted(bad));  // past the schedule
  }
  EXPECT_FALSE(fault::armed());  // scope restored

  {
    // Latency faults are transient: a retry attempt sees clean arithmetic.
    fault::FaultScope scope(&tf, /*attempt=*/1);
    double bad = 0.0;
    for (int i = 0; i < 6; ++i) EXPECT_FALSE(fault::next_eval_faulted(bad));
  }
}

TEST(WaterFill, InjectedNanDegradesColdSolveWithoutThrowing) {
  const ParallelLinks m = pigou();
  fault::TaskFaults tf;
  tf.latency.push_back({0, false});  // first supply probe returns NaN
  fault::FaultScope scope(&tf, 0);

  SolverWorkspace ws;
  const WaterFillingResult r = water_fill(
      m.links, m.demand, LevelKind::kLatency, 1e-13, ws, std::nan(""), {});
  EXPECT_EQ(r.status, SolveStatus::kNumericFailure);
  EXPECT_TRUE(std::isfinite(r.level));
  for (double f : r.flows) EXPECT_TRUE(std::isfinite(f));
}

TEST(WaterFill, WarmGuardFallsBackColdAndCountsIt) {
  ParallelLinks m = pigou();
  // At demand 1 the Nash level equals the constant plateau, which the warm
  // path's open-interval check excludes; demand 0.5 puts the level (0.5)
  // strictly inside (lo, cap) so the warm bracket arms.
  m.demand = 0.5;
  SolverWorkspace ws;
  // Converged level of the clean system, to use as a warm hint.
  const WaterFillingResult clean =
      water_fill(m.links, m.demand, LevelKind::kLatency, 1e-13, ws);
  ASSERT_EQ(clean.status, SolveStatus::kConverged);

  fault::TaskFaults tf;
  // Event 0 is the plateau probe; event 1 is the probe at the warm hint —
  // poisoning it must trip the warm guard, not the outer degrade path.
  tf.latency.push_back({1, false});
  obs::SolveCounters sink;
  {
    obs::CountersScope counters(sink);
    fault::FaultScope scope(&tf, 0);
    const WaterFillingResult r =
        water_fill(m.links, m.demand, LevelKind::kLatency, 1e-13, ws,
                   clean.level, {});
    // The warm guard retried cold; the single fault event was already
    // consumed, so the cold solve converges to the clean answer.
    EXPECT_EQ(r.status, SolveStatus::kConverged);
    EXPECT_NEAR(r.level, clean.level, 1e-9);
  }
  EXPECT_EQ(sink.warm_fallbacks, 1u);
}

TEST(SolveNash, InjectedNanDegradesNetworkSolveWithoutThrowing) {
  const NetworkInstance inst = braess_classic();
  fault::TaskFaults tf;
  tf.latency.push_back({0, false});
  fault::FaultScope scope(&tf, 0);

  const NetworkAssignment r = solve_nash(inst);
  EXPECT_EQ(r.status, SolveStatus::kNumericFailure);
  EXPECT_FALSE(solve_ok(r.status));
  for (double f : r.edge_flow) EXPECT_TRUE(std::isfinite(f));
}

TEST(SolveBush, InjectedNanInAShiftRefreshDegradesWithoutThrowing) {
  // Events 0 and 1 are the cold start's and the first iteration's batch
  // evaluations; every shift's cost refresh is one more event, so event 3
  // lands in the second shift — a NaN there stops the solve with the
  // flows of the shift just applied.
  Rng rng(5);
  const NetworkInstance inst = grid_city(rng, 4, 4, 2.0);
  fault::TaskFaults tf;
  tf.latency.push_back({3, false});
  obs::SolveCounters sink;
  BushResult r;
  {
    obs::CountersScope counters(sink);
    fault::FaultScope scope(&tf, 0);
    r = solve_bush(inst, FlowObjective::kBeckmann);
  }
  ASSERT_GE(sink.bush_shifts, 2u);
  EXPECT_EQ(r.status, SolveStatus::kNumericFailure);
  double out = 0.0;
  for (double f : r.edge_flow) EXPECT_TRUE(std::isfinite(f));
  for (EdgeId e : inst.graph.out_edges(inst.commodities[0].source)) {
    out += r.edge_flow[static_cast<std::size_t>(e)];
  }
  EXPECT_NEAR(out, inst.commodities[0].demand, 1e-9);
}

TEST(SolveBush, WarmSeedHitByAFaultFallsBackCold) {
  Rng rng(6);
  NetworkInstance inst = grid_city(rng, 4, 4, 2.0);
  SolverWorkspace ws;
  EquilibriumWarmState warm;
  ASSERT_TRUE(solve_ok(solve_bush(inst, FlowObjective::kBeckmann, {}, {}, ws,
                                  nullptr, &warm)
                           .status));
  inst.commodities[0].demand *= 1.2;
  const BushResult clean = solve_bush(inst, FlowObjective::kBeckmann);
  fault::TaskFaults tf;
  tf.latency.push_back({0, false});  // the warm run's first evaluation
  obs::SolveCounters sink;
  BushResult r;
  {
    obs::CountersScope counters(sink);
    fault::FaultScope scope(&tf, 0);
    r = solve_bush(inst, FlowObjective::kBeckmann, {}, {}, ws, &warm, &warm);
  }
  EXPECT_EQ(sink.warm_fallbacks, 1u);
  EXPECT_EQ(r.status, SolveStatus::kConverged);
  EXPECT_NEAR(r.objective, clean.objective, 1e-9 * clean.objective);
}

TEST(SolveBush, MopOnAFailedOptimumStillSplitsItsOneOrigin) {
  // A bush optimum stopped by a NaN publishes no warm payload; with one
  // origin, MOP takes the optimum's edge flow as that origin's flow, so β
  // stays an honest estimate instead of defaulting to full control.
  Rng rng(5);
  const NetworkInstance inst = grid_city(rng, 4, 4, 2.0);
  const MopResult clean = mop(inst);
  ASSERT_LT(clean.beta, 0.9);
  fault::TaskFaults tf;
  tf.latency.push_back({3, false});
  MopResult r;
  {
    fault::FaultScope scope(&tf, 0);
    r = mop(inst);
  }
  EXPECT_EQ(r.status, SolveStatus::kNumericFailure);
  EXPECT_LT(r.beta, 1.0);
  EXPECT_NEAR(r.commodities[0].free_flow + r.commodities[0].controlled_flow,
              inst.commodities[0].demand, 1e-9);
}

TEST(SolveNash, ParallelLinksStatusPropagates) {
  const ParallelLinks m = pigou();
  SolverWorkspace ws;
  SolveBudget budget;
  budget.max_iters = 1;
  const LinkAssignment a =
      solve_nash(m, 1e-13, ws, std::nan(""), budget);
  EXPECT_EQ(a.status, SolveStatus::kIterLimit);
  EXPECT_TRUE(std::isfinite(a.level));
}

}  // namespace
}  // namespace stackroute
