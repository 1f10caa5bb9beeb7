// Cross-backend equivalence: the two equilibrium backends (path
// equalization, bush) minimize the same convex programs, so they must
// agree on the equilibrium cost to their gap tolerances — not bitwise —
// across generator families and seeds, and each must pass the
// solver-independent certificate of support/equilibrium_certificate.h.
// Plus the bush solver's own contracts: warm-vs-cold agreement, honest
// degraded statuses, and results that are bitwise identical at any
// set_max_threads cap, both for single solves and for a bush sweep table,
// and whether a warm payload is swapped into the solver (it aliases
// warm_out) or copied.
#include "stackroute/solver/backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "stackroute/equilibrium/network.h"
#include "stackroute/gen/registry.h"
#include "stackroute/network/generators.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/bush.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenario.h"
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
  EXPECT_TRUE(solve_ok(nash.status));
  EXPECT_EQ(nash.status, SolveStatus::kConverged);
  EXPECT_NEAR(nash.edge_flow[0], 1.0, 1e-8);
  EXPECT_NEAR(nash.edge_flow[1], 0.0, 1e-8);

  const BushResult opt = solve_bush(inst, FlowObjective::kTotalCost);
  EXPECT_TRUE(solve_ok(opt.status));
  EXPECT_NEAR(opt.edge_flow[0], 0.5, 1e-6);
  EXPECT_NEAR(opt.edge_flow[1], 0.5, 1e-6);
}

TEST(Bush, BraessNashMatchesClosedForm) {
  const NetworkInstance inst = braess_classic();
  const BushResult r = solve_bush(inst, FlowObjective::kBeckmann);
  ASSERT_TRUE(solve_ok(r.status));
  // All flow takes s→v→w→t at Nash; C(N) = 2.
  EXPECT_NEAR(cost(inst, r.edge_flow), 2.0, 1e-7);
}

TEST(Bush, ReachesTightGapOnMulticommodityGrid) {
  Rng rng(91);
  const NetworkInstance inst = grid_city_multicommodity(rng, 5, 5, 6, 0.5, 2.0);
  BushOptions opts;
  opts.rel_gap_tol = 1e-10;
  const BushResult r = solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
  EXPECT_TRUE(solve_ok(r.status)) << "gap " << r.rel_gap << " status "
                           << to_string(r.status);
  EXPECT_LE(r.rel_gap, 1e-10);
}

// Beckmann passes stop at a share of the outer gap (bush.h, "Inner
// stopping rule"); that threshold shrinks with the gap, so cold solves on
// the shipped city networks still close a 1e-12 gap, and the certificate
// sees the same gap from scratch.
TEST(Bush, BeckmannConvergesAtTightGapOnCityNetworks) {
  const std::string dir =
      std::string(STACKROUTE_SOURCE_DIR) + "/examples/instances/";
  NetworkInstance sioux = std::get<NetworkInstance>(
      sweep::load_instance_file(dir + "SiouxFalls_net.tntp"));
  for (NodeId s : {0, 6, 12}) {
    for (NodeId t : {19, 9, 23}) {
      if (s != t) sioux.commodities.push_back(Commodity{s, t, 2500.0});
    }
  }
  const std::vector<std::pair<std::string, NetworkInstance>> cases = {
      {"siouxfalls", sioux},
      {"anaheim", std::get<NetworkInstance>(
                      sweep::load_instance_file(dir + "Anaheim_net.tntp"))}};
  BushOptions opts;
  opts.rel_gap_tol = 1e-12;
  for (const auto& [name, inst] : cases) {
    SCOPED_TRACE(name);
    const BushResult r = solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
    ASSERT_EQ(r.status, SolveStatus::kConverged)
        << "gap " << r.rel_gap << " after " << r.iterations;
    EXPECT_LE(r.rel_gap, 1e-12);
    expect_certified(inst, {}, FlowObjective::kBeckmann, r.edge_flow);
    EXPECT_LE(certify_equilibrium(inst, {}, FlowObjective::kBeckmann,
                                  r.edge_flow)
                  .rel_gap,
              1e-11);
  }
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
      ASSERT_TRUE(solve_ok(pe.status)) << fam.name << " seed " << seed;
      EXPECT_FALSE(pe.commodity_paths.empty());

      req.backend = EquilibriumBackend::kBush;
      const EquilibriumResult bush =
          solve_equilibrium(inst, {}, req, ws, nullptr, nullptr);
      ASSERT_TRUE(solve_ok(bush.status))
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
  ASSERT_TRUE(solve_ok(pe.status));
  const BushResult bush = solve_bush(inst, FlowObjective::kTotalCost);
  ASSERT_TRUE(solve_ok(bush.status));
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
  ASSERT_TRUE(solve_ok(pe.status));
  const BushResult bush = solve_bush(inst, FlowObjective::kBeckmann, preload);
  ASSERT_TRUE(solve_ok(bush.status));
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
  ASSERT_TRUE(solve_ok(nash.status));
  const EquilibriumCertificate good =
      certify_equilibrium(inst, {}, FlowObjective::kBeckmann, nash.edge_flow);
  EXPECT_LE(good.rel_gap, 1e-10);
  // The system optimum is feasible but not a Wardrop flow.
  const BushResult opt = solve_bush(inst, FlowObjective::kTotalCost);
  ASSERT_TRUE(solve_ok(opt.status));
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
  EquilibriumWarmState warm;
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);

  const BushResult first = solve_bush(base, FlowObjective::kBeckmann, {}, {},
                                      ws, nullptr, &warm);
  ASSERT_TRUE(solve_ok(first.status));
  ASSERT_FALSE(warm.empty());

  NetworkInstance scaled = base;
  for (Commodity& com : scaled.commodities) com.demand *= 1.15;

  const std::uint64_t hits_before = sink.warm_hits;
  const BushResult warm_run = solve_bush(scaled, FlowObjective::kBeckmann, {},
                                         {}, ws, &warm, &warm);
  ASSERT_TRUE(solve_ok(warm_run.status));
  EXPECT_EQ(sink.warm_hits, hits_before + 1) << "warm payload not accepted";

  SolverWorkspace ws_cold;
  const BushResult cold_run =
      solve_bush(scaled, FlowObjective::kBeckmann, {}, {}, ws_cold);
  ASSERT_TRUE(solve_ok(cold_run.status));
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
  EquilibriumWarmState warm;
  ASSERT_TRUE(solve_ok(
      solve_bush(a, FlowObjective::kBeckmann, {}, {}, ws, nullptr, &warm)
          .status));

  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  const BushResult r =
      solve_bush(b, FlowObjective::kBeckmann, {}, {}, ws, &warm, nullptr);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_EQ(sink.warm_attempts, 1u);
  EXPECT_EQ(sink.warm_hits, 0u);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Everything a bush solve reports, for bitwise comparison across thread
/// counts: the result, its counters, and the warm payload it hands on.
struct BushRun {
  BushResult result;
  EquilibriumWarmState warm_out;
};

void expect_same_run(const BushRun& want, const BushRun& got,
                     const std::string& where) {
  const BushResult& a = want.result;
  const BushResult& b = got.result;
  EXPECT_TRUE(bitwise_equal(a.edge_flow, b.edge_flow)) << where;
  EXPECT_EQ(std::memcmp(&a.rel_gap, &b.rel_gap, sizeof(double)), 0) << where;
  EXPECT_EQ(a.iterations, b.iterations) << where;
  EXPECT_EQ(a.status, b.status) << where;
  EXPECT_EQ(a.counters.dijkstra_calls, b.counters.dijkstra_calls) << where;
  EXPECT_EQ(a.counters.dijkstra_settled, b.counters.dijkstra_settled) << where;
  EXPECT_EQ(a.counters.bush_shifts, b.counters.bush_shifts) << where;
  EXPECT_EQ(a.counters.bush_rebuilds, b.counters.bush_rebuilds) << where;
  ASSERT_EQ(want.warm_out.bushes.size(), got.warm_out.bushes.size()) << where;
  for (std::size_t i = 0; i < want.warm_out.bushes.size(); ++i) {
    const OriginBush& x = want.warm_out.bushes[i];
    const OriginBush& y = got.warm_out.bushes[i];
    EXPECT_EQ(x.origin, y.origin) << where << " bush " << i;
    EXPECT_EQ(x.order, y.order) << where << " bush " << i;
    EXPECT_EQ(x.in_bush, y.in_bush) << where << " bush " << i;
    EXPECT_TRUE(bitwise_equal(x.flow, y.flow)) << where << " bush " << i;
  }
}

/// A cold solve of `inst`, then a solve of `scaled` seeded with its warm
/// payload, at the given thread cap. With `aliased` the second solve reads
/// and republishes one payload object, as sweep chains and engine sessions
/// do (the payload is swapped into the solver); otherwise it reads its own
/// copy.
std::pair<BushRun, BushRun> cold_then_warm(const NetworkInstance& inst,
                                           const NetworkInstance& scaled,
                                           const BushOptions& opts,
                                           int threads, bool aliased = false) {
  set_max_threads(threads);
  SolverWorkspace ws;
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  std::pair<BushRun, BushRun> runs;
  runs.first.result = solve_bush(inst, FlowObjective::kBeckmann, {}, opts,
                                 ws, nullptr, &runs.first.warm_out);
  if (aliased) {
    EquilibriumWarmState chain = runs.first.warm_out;
    runs.second.result = solve_bush(scaled, FlowObjective::kBeckmann, {},
                                    opts, ws, &chain, &chain);
    runs.second.warm_out = std::move(chain);
  } else {
    runs.second.result =
        solve_bush(scaled, FlowObjective::kBeckmann, {}, opts, ws,
                   &runs.first.warm_out, &runs.second.warm_out);
  }
  set_max_threads(0);
  return runs;
}

TEST(Bush, EdgeFlowBitwiseInvariantAcrossThreadCounts) {
  // Anaheim's 38 origins, the multi-commodity grid's 23 and the generated
  // grid-bpr instance's one, under thread caps from 1 to 4: nothing a bush
  // solve computes may depend on the cap. Each warm solve also runs with
  // its payload aliasing warm_out.
  struct Case {
    std::string name;
    sweep::Instance instance;
    double rel_gap_tol;
  };
  Rng rng(43);
  const std::vector<Case> cases = {
      {"anaheim",
       sweep::load_instance_file(std::string(STACKROUTE_SOURCE_DIR) +
                                 "/examples/instances/Anaheim_net.tntp"),
       1e-10},
      {"grid-multi", grid_city_multicommodity(rng, 20, 20, 24, 0.5, 2.0),
       1e-6},
      {"grid-bpr", gen::generate_sized("grid-bpr", 5, 1.0, 11), 1e-10}};
  for (const auto& [name, base, tol] : cases) {
    BushOptions opts;
    opts.rel_gap_tol = tol;
    sweep::Instance scaled = base;
    sweep::scale_demand(scaled, 1.2);
    const NetworkInstance& inst = std::get<NetworkInstance>(base);
    const NetworkInstance& next = std::get<NetworkInstance>(scaled);

    const auto serial = cold_then_warm(inst, next, opts, 1);
    ASSERT_TRUE(solve_ok(serial.first.result.status)) << name;
    ASSERT_TRUE(solve_ok(serial.second.result.status)) << name;
    ASSERT_EQ(serial.second.result.counters.warm_hits, 1u) << name;
    ASSERT_GT(serial.first.result.counters.dijkstra_calls, 0u) << name;
    for (const int threads : {2, 3, 4}) {
      const auto parallel = cold_then_warm(inst, next, opts, threads);
      const std::string where = name + " @" + std::to_string(threads);
      expect_same_run(serial.first, parallel.first, where + " cold");
      expect_same_run(serial.second, parallel.second, where + " warm");
    }
    // A payload that aliases warm_out is swapped into the solver instead
    // of copied; the solve must not be able to tell the difference.
    for (const int threads : {1, 4}) {
      const auto swapped = cold_then_warm(inst, next, opts, threads, true);
      const std::string where = name + " swapped @" + std::to_string(threads);
      ASSERT_EQ(swapped.second.result.counters.warm_hits, 1u) << where;
      expect_same_run(serial.first, swapped.first, where + " cold");
      expect_same_run(serial.second, swapped.second, where + " warm");
    }
  }
}

TEST(Bush, CyclicWarmPayloadFallsBackColdAliasedOrNot) {
  // Anaheim has two-way links (the generated grids are acyclic).
  const NetworkInstance base = std::get<NetworkInstance>(
      sweep::load_instance_file(std::string(STACKROUTE_SOURCE_DIR) +
                                "/examples/instances/Anaheim_net.tntp"));
  NetworkInstance scaled = base;
  for (Commodity& com : scaled.commodities) com.demand *= 1.15;
  const Graph& g = base.graph;

  // One solve of `scaled` on a fresh workspace, reading `warm` (null =
  // cold) and publishing into run.warm_out.
  const auto solve_into = [&](BushRun& run, const EquilibriumWarmState* warm) {
    SolverWorkspace ws;
    obs::SolveCounters sink;
    obs::CountersScope scope(sink);
    run.result = solve_bush(scaled, FlowObjective::kBeckmann, {}, {}, ws, warm,
                            &run.warm_out);
    EXPECT_EQ(sink.warm_attempts, warm != nullptr ? 1u : 0u);
    EXPECT_EQ(sink.warm_hits, 0u);
  };

  // Flip one bit of the *last* bush, so every bush before it has already
  // passed validation when the bad one is found: the reverse of a bush edge
  // joins the bush and closes a two-edge cycle.
  EquilibriumWarmState bad;
  {
    SolverWorkspace ws;
    ASSERT_TRUE(solve_ok(solve_bush(base, FlowObjective::kBeckmann, {}, {}, ws,
                                    nullptr, &bad)
                             .status));
  }
  ASSERT_GT(bad.bushes.size(), 1u);
  OriginBush& last = bad.bushes.back();
  EdgeId reverse = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges() && reverse == kInvalidEdge; ++e) {
    if (!last.in_bush[static_cast<std::size_t>(e)]) continue;
    for (EdgeId r : g.out_edges(g.edge(e).head)) {
      if (g.edge(r).head == g.edge(e).tail) reverse = r;
    }
  }
  ASSERT_NE(reverse, kInvalidEdge);
  ASSERT_FALSE(last.in_bush[static_cast<std::size_t>(reverse)]);
  last.in_bush[static_cast<std::size_t>(reverse)] = 1;

  BushRun cold;
  solve_into(cold, nullptr);
  ASSERT_TRUE(solve_ok(cold.result.status));
  BushRun copied;
  solve_into(copied, &bad);
  BushRun swapped;
  swapped.warm_out = bad;
  solve_into(swapped, &swapped.warm_out);
  expect_same_run(cold, copied, "copied");
  expect_same_run(cold, swapped, "aliased");
}

TEST(Bush, HonestIterLimitStatus) {
  Rng rng(3);
  const NetworkInstance inst = grid_city(rng, 4, 4, 3.0);
  BushOptions opts;
  opts.max_iters = 1;
  opts.rel_gap_tol = 0.0;
  const BushResult r = solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
  EXPECT_FALSE(solve_ok(r.status));
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
  EXPECT_FALSE(solve_ok(r.status));
  EXPECT_EQ(r.status, SolveStatus::kDeadlineExceeded);
}

TEST(Bush, CountersReportShiftsAndRebuilds) {
  Rng rng(47);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 4, 4, 0.5, 2.0);
  obs::SolveCounters sink;
  {
    obs::CountersScope scope(sink);
    const BushResult r = solve_bush(inst, FlowObjective::kBeckmann);
    ASSERT_TRUE(solve_ok(r.status));
    EXPECT_GT(r.counters.bush_shifts, 0u);
    EXPECT_GT(r.counters.dijkstra_calls, 0u);
  }
  EXPECT_GT(sink.bush_shifts, 0u);
  EXPECT_GT(sink.gap_checks, 0u);
}

TEST(BackendWarmState, PathEqualizationNeitherReadsNorPublishes) {
  // The warm state is the bush payload alone: a pe solve handed one does
  // not count a warm attempt, answers exactly as a cold pe solve, and
  // clears it so it never reads as the pe solve's own per-origin split.
  Rng rng(11);
  const NetworkInstance inst = grid_city(rng, 3, 3, 1.5);
  SolverWorkspace ws;
  EquilibriumWarmState warm;
  EquilibriumRequest req;
  ASSERT_TRUE(solve_ok(solve_equilibrium(inst, {}, req, ws, &warm, &warm).status));
  ASSERT_FALSE(warm.empty());

  req.backend = EquilibriumBackend::kPathEqualization;
  obs::SolveCounters sink;
  EquilibriumResult seeded;
  {
    obs::CountersScope scope(sink);
    seeded = solve_equilibrium(inst, {}, req, ws, &warm, &warm);
  }
  EXPECT_EQ(sink.warm_attempts, 0u);
  EXPECT_TRUE(warm.empty()) << "a pe solve must not leave a bush payload";
  const EquilibriumResult cold =
      solve_equilibrium(inst, {}, req, ws, nullptr, nullptr);
  EXPECT_TRUE(bitwise_equal(seeded.edge_flow, cold.edge_flow));
  EXPECT_FALSE(seeded.commodity_paths.empty());
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
