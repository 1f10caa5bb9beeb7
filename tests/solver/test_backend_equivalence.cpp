// Cross-backend equivalence: the two equilibrium backends (path
// equalization, bush) minimize the same convex programs, so they must
// agree on the equilibrium cost to their gap tolerances — not bitwise —
// across generator families and seeds, and each must pass the
// solver-independent certificate of support/equilibrium_certificate.h.
// Plus the bush solver's own contracts: warm-vs-cold agreement, honest
// degraded statuses, and a bush sweep table that is bitwise identical at
// any thread count.
#include "stackroute/solver/backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "stackroute/equilibrium/network.h"
#include "stackroute/gen/registry.h"
#include "stackroute/network/generators.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/bush.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/parallel.h"
#include "stackroute/util/rng.h"
#include "support/equilibrium_certificate.h"

namespace stackroute {
namespace {

using test_support::certify_equilibrium;
using test_support::EquilibriumCertificate;
using test_support::expect_certified;

double rel_diff(double a, double b) {
  return std::fabs(a - b) / std::fmax(1.0, std::fmax(std::fabs(a), std::fabs(b)));
}

TEST(BackendRegistry, NamesRoundTrip) {
  ASSERT_EQ(equilibrium_backends().size(), 2u);
  for (EquilibriumBackend b : equilibrium_backends()) {
    EXPECT_EQ(parse_equilibrium_backend(to_string(b)), b);
  }
  EXPECT_STREQ(to_string(EquilibriumBackend::kPathEqualization), "pe");
  EXPECT_STREQ(to_string(EquilibriumBackend::kBush), "bush");
  EXPECT_THROW(parse_equilibrium_backend("simplex"), Error);
  EXPECT_THROW(parse_equilibrium_backend(""), Error);
}

TEST(BackendRegistry, RetiredSpellingsAreRejected) {
  for (const char* retired :
       {"fw", "frank-wolfe", "path-equalization", "path"}) {
    EXPECT_THROW(parse_equilibrium_backend(retired), Error) << retired;
  }
}

TEST(Bush, PigouNashAndOptimum) {
  const NetworkInstance inst = to_network(pigou());
  const BushResult nash = solve_bush(inst, FlowObjective::kBeckmann);
  EXPECT_TRUE(nash.converged);
  EXPECT_EQ(nash.status, SolveStatus::kConverged);
  EXPECT_NEAR(nash.edge_flow[0], 1.0, 1e-8);
  EXPECT_NEAR(nash.edge_flow[1], 0.0, 1e-8);

  const BushResult opt = solve_bush(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(opt.converged);
  EXPECT_NEAR(opt.edge_flow[0], 0.5, 1e-6);
  EXPECT_NEAR(opt.edge_flow[1], 0.5, 1e-6);
}

TEST(Bush, BraessNashMatchesClosedForm) {
  const NetworkInstance inst = braess_classic();
  const BushResult r = solve_bush(inst, FlowObjective::kBeckmann);
  ASSERT_TRUE(r.converged);
  // All flow takes s→v→w→t at Nash; C(N) = 2.
  EXPECT_NEAR(cost(inst, r.edge_flow), 2.0, 1e-7);
}

TEST(Bush, ReachesTightGapOnMulticommodityGrid) {
  Rng rng(91);
  const NetworkInstance inst = grid_city_multicommodity(rng, 5, 5, 6, 0.5, 2.0);
  BushOptions opts;
  opts.rel_gap_tol = 1e-10;
  const BushResult r = solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
  EXPECT_TRUE(r.converged) << "gap " << r.rel_gap << " status "
                           << to_string(r.status);
  EXPECT_LE(r.rel_gap, 1e-10);
}

// The headline equivalence sweep: both backends, several generator
// families, several seeds; equilibrium *costs* agree, and each backend's
// flow passes the certificate on its own.
TEST(BackendEquivalence, NashCostAgreesAcrossFamiliesAndSeeds) {
  struct Family {
    const char* name;
    NetworkInstance (*make)(Rng&);
  };
  const Family families[] = {
      {"grid", [](Rng& rng) { return grid_city(rng, 4, 4, 2.0); }},
      {"grid-multi",
       [](Rng& rng) { return grid_city_multicommodity(rng, 4, 4, 4, 0.5, 1.5); }},
      {"dag", [](Rng& rng) { return random_layered_dag(rng, 3, 3, 0.7, 1.5); }},
  };
  for (const Family& fam : families) {
    for (std::uint64_t seed : {1u, 7u, 23u}) {
      Rng rng(seed);
      const NetworkInstance inst = fam.make(rng);
      SolverWorkspace ws;

      EquilibriumRequest req;
      req.backend = EquilibriumBackend::kPathEqualization;
      const EquilibriumResult pe =
          solve_equilibrium(inst, {}, req, ws, nullptr, nullptr);
      ASSERT_TRUE(pe.converged) << fam.name << " seed " << seed;
      EXPECT_FALSE(pe.commodity_paths.empty());

      req.backend = EquilibriumBackend::kBush;
      const EquilibriumResult bush =
          solve_equilibrium(inst, {}, req, ws, nullptr, nullptr);
      ASSERT_TRUE(bush.converged)
          << fam.name << " seed " << seed << " gap " << bush.rel_gap;

      const double c_pe = cost(inst, pe.edge_flow);
      const double c_bush = cost(inst, bush.edge_flow);
      EXPECT_LE(rel_diff(c_pe, c_bush), 1e-6)
          << fam.name << " seed " << seed << ": pe " << c_pe << " bush "
          << c_bush;
      SCOPED_TRACE(std::string(fam.name) + " seed " + std::to_string(seed));
      expect_certified(inst, {}, FlowObjective::kBeckmann, pe.edge_flow);
      expect_certified(inst, {}, FlowObjective::kBeckmann, bush.edge_flow);
    }
  }
}

TEST(BackendEquivalence, OptimumCostAgreesOnGrid) {
  Rng rng(5);
  const NetworkInstance inst = grid_city(rng, 4, 4, 2.5);
  const auto pe = assign_traffic(inst, FlowObjective::kTotalCost);
  ASSERT_TRUE(pe.converged);
  const BushResult bush = solve_bush(inst, FlowObjective::kTotalCost);
  ASSERT_TRUE(bush.converged);
  EXPECT_LE(rel_diff(cost(inst, pe.edge_flow), cost(inst, bush.edge_flow)),
            1e-6);
  expect_certified(inst, {}, FlowObjective::kTotalCost, pe.edge_flow);
  expect_certified(inst, {}, FlowObjective::kTotalCost, bush.edge_flow);
}

// With a Leader preload both backends solve the followers' program on the
// shifted latencies; they agree, and the certificate checks each flow at
// the preloaded costs.
TEST(BackendEquivalence, PreloadedNashAgreesOnFig7) {
  NetworkInstance inst = fig7_instance(0.05);
  inst.commodities[0].demand = 0.4;
  const std::vector<double> preload = {0.3, 0.3, 0.0, 0.3, 0.3};
  const auto pe = assign_traffic(inst, FlowObjective::kBeckmann, preload);
  ASSERT_TRUE(pe.converged);
  const BushResult bush = solve_bush(inst, FlowObjective::kBeckmann, preload);
  ASSERT_TRUE(bush.converged);
  EXPECT_LE(max_abs_diff(pe.edge_flow, bush.edge_flow), 1e-6);
  expect_certified(inst, preload, FlowObjective::kBeckmann, pe.edge_flow);
  expect_certified(inst, preload, FlowObjective::kBeckmann, bush.edge_flow);
}

// The certificate itself must not be vacuous: a feasible but
// non-equilibrium flow (Braess, all flow on the two outer routes) shows a
// clearly positive gap.
TEST(EquilibriumCertificate, DetectsNonEquilibriumFlow) {
  const NetworkInstance inst = braess_classic();
  const BushResult nash = solve_bush(inst, FlowObjective::kBeckmann);
  ASSERT_TRUE(nash.converged);
  const EquilibriumCertificate good =
      certify_equilibrium(inst, {}, FlowObjective::kBeckmann, nash.edge_flow);
  EXPECT_LE(good.rel_gap, 1e-10);
  // The system optimum is feasible but not a Wardrop flow.
  const BushResult opt = solve_bush(inst, FlowObjective::kTotalCost);
  ASSERT_TRUE(opt.converged);
  const EquilibriumCertificate bad =
      certify_equilibrium(inst, {}, FlowObjective::kBeckmann, opt.edge_flow);
  EXPECT_GT(bad.rel_gap, 1e-3);
  EXPECT_LE(bad.conservation, 1e-12);
  // A flow that drops demand fails conservation.
  std::vector<double> short_flow = nash.edge_flow;
  for (double& f : short_flow) f *= 0.5;
  EXPECT_GT(certify_equilibrium(inst, {}, FlowObjective::kBeckmann, short_flow)
                .conservation,
            0.1);
}

TEST(Bush, WarmMatchesColdAcrossDemandScale) {
  Rng rng(17);
  const NetworkInstance base = grid_city_multicommodity(rng, 4, 5, 5, 0.5, 2.0);

  SolverWorkspace ws;
  BushWarmState warm;
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);

  const BushResult first = solve_bush(base, FlowObjective::kBeckmann, {}, {},
                                      ws, nullptr, &warm);
  ASSERT_TRUE(first.converged);
  ASSERT_FALSE(warm.empty());

  NetworkInstance scaled = base;
  for (Commodity& com : scaled.commodities) com.demand *= 1.15;

  const std::uint64_t hits_before = sink.warm_hits;
  const BushResult warm_run = solve_bush(scaled, FlowObjective::kBeckmann, {},
                                         {}, ws, &warm, &warm);
  ASSERT_TRUE(warm_run.converged);
  EXPECT_EQ(sink.warm_hits, hits_before + 1) << "warm payload not accepted";

  SolverWorkspace ws_cold;
  const BushResult cold_run =
      solve_bush(scaled, FlowObjective::kBeckmann, {}, {}, ws_cold);
  ASSERT_TRUE(cold_run.converged);
  EXPECT_LE(rel_diff(cost(scaled, warm_run.edge_flow),
                     cost(scaled, cold_run.edge_flow)),
            1e-8);
}

TEST(Bush, MismatchedWarmPayloadFallsBackCold) {
  Rng rng(29);
  const NetworkInstance a = grid_city(rng, 4, 4, 2.0);
  Rng rng2(31);
  NetworkInstance b = grid_city(rng2, 4, 4, 2.0);
  b.commodities[0].sink = b.commodities[0].sink - 1;  // different endpoints

  SolverWorkspace ws;
  BushWarmState warm;
  ASSERT_TRUE(
      solve_bush(a, FlowObjective::kBeckmann, {}, {}, ws, nullptr, &warm)
          .converged);

  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  const BushResult r =
      solve_bush(b, FlowObjective::kBeckmann, {}, {}, ws, &warm, nullptr);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(sink.warm_attempts, 1u);
  EXPECT_EQ(sink.warm_hits, 0u);
}

TEST(Bush, HonestIterLimitStatus) {
  Rng rng(3);
  const NetworkInstance inst = grid_city(rng, 4, 4, 3.0);
  BushOptions opts;
  opts.max_iters = 1;
  opts.rel_gap_tol = 0.0;
  const BushResult r = solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.status, SolveStatus::kIterLimit);
  EXPECT_GT(r.rel_gap, 0.0);
  EXPECT_TRUE(std::isfinite(r.rel_gap));
}

TEST(Bush, BudgetDeadlineReportsDeadlineExceeded) {
  Rng rng(3);
  const NetworkInstance inst = grid_city(rng, 5, 5, 3.0);
  BushOptions opts;
  opts.rel_gap_tol = 0.0;  // never converges; only the budget can stop it
  opts.budget.deadline_ms = 1e-3;
  const BushResult r = solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.status, SolveStatus::kDeadlineExceeded);
}

TEST(Bush, CountersReportShiftsAndRebuilds) {
  Rng rng(47);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 4, 4, 0.5, 2.0);
  obs::SolveCounters sink;
  {
    obs::CountersScope scope(sink);
    const BushResult r = solve_bush(inst, FlowObjective::kBeckmann);
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.counters.bush_shifts, 0u);
    EXPECT_GT(r.counters.dijkstra_calls, 0u);
  }
  EXPECT_GT(sink.bush_shifts, 0u);
  EXPECT_GT(sink.gap_checks, 0u);
}

TEST(BackendWarmState, SwitchingBackendsDropsPayloads) {
  Rng rng(11);
  const NetworkInstance inst = grid_city(rng, 3, 3, 1.5);
  SolverWorkspace ws;
  EquilibriumWarmState warm;

  EquilibriumRequest req;
  req.backend = EquilibriumBackend::kPathEqualization;
  ASSERT_TRUE(solve_equilibrium(inst, {}, req, ws, &warm, &warm).converged);
  EXPECT_EQ(warm.backend, EquilibriumBackend::kPathEqualization);
  EXPECT_FALSE(warm.paths.empty());

  req.backend = EquilibriumBackend::kBush;
  ASSERT_TRUE(solve_equilibrium(inst, {}, req, ws, &warm, &warm).converged);
  EXPECT_EQ(warm.backend, EquilibriumBackend::kBush);
  EXPECT_TRUE(warm.paths.empty()) << "pe payload must not survive a switch";
  EXPECT_FALSE(warm.bush.empty());

  req.backend = EquilibriumBackend::kPathEqualization;
  ASSERT_TRUE(solve_equilibrium(inst, {}, req, ws, &warm, &warm).converged);
  EXPECT_EQ(warm.backend, EquilibriumBackend::kPathEqualization);
  EXPECT_TRUE(warm.bush.empty()) << "bush payload must not survive a switch";
  EXPECT_FALSE(warm.paths.empty());
}

// Sweep-table level: a bush-backed demand sweep exports byte-identical
// tables at 1 and N threads (the same contract the golden pe tables
// hold), every row converged.
TEST(BackendSweep, BushTableBitwiseInvariantAcrossThreadCounts) {
  sweep::ScenarioSpec spec;
  spec.name = "bush-threads";
  spec.grid.add_linspace("demand", 0.5, 2.0, 6);
  spec.factory =
      sweep::generated_instance_source(gen::sized_spec("grid-bpr", 4), 11);
  spec.metrics = {sweep::metric_nash_cost()};
  spec.warm_axis = "demand";
  spec.backend = EquilibriumBackend::kBush;

  const auto run_at = [&](int threads) {
    set_max_threads(threads);
    sweep::SweepResult result = sweep::SweepRunner(sweep::SweepOptions{}).run(spec);
    set_max_threads(0);
    return result;
  };
  const sweep::SweepResult serial = run_at(1);
  const sweep::SweepResult parallel = run_at(4);
  EXPECT_EQ(serial.num_failed(), 0u);
  EXPECT_EQ(serial.num_degraded(), 0u);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
}

}  // namespace
}  // namespace stackroute
