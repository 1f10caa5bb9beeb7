// Engine behavior (engine/engine.h): sessions and warm reuse, the
// compiled-table cache, batch determinism at any thread count, budget
// degradation, workspace byte accounting, and the never-throws error
// contract of solve().
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stackroute/engine/engine.h"
#include "stackroute/engine/footprint.h"
#include "stackroute/gen/registry.h"
#include "stackroute/latency/families.h"
#include "stackroute/solver/bush.h"
#include "stackroute/util/parallel.h"

namespace stackroute::engine {
namespace {

Instance grid_instance(double demand) {
  return Instance(gen::generate_sized("grid-bpr", 0, demand, 3));
}

Instance links_instance(double demand) {
  ParallelLinks m;
  m.links = {make_affine(1.0, 0.0), make_affine(2.0, 0.5), make_mm1(6.0)};
  m.demand = demand;
  return Instance(m);
}

/// Two commodities (0->2 and 1->2) sharing the congested 1->2 edges, so
/// the equilibrium genuinely depends on how the total demand splits
/// between them — the shape that exposes a stale warm seed.
Instance two_commodity_instance(double d0, double d1) {
  NetworkInstance net;
  net.graph = Graph(3);
  net.graph.add_edge(0, 2, make_affine(1.0, 1.0));
  net.graph.add_edge(0, 1, make_affine(0.5, 0.2));
  net.graph.add_edge(1, 2, make_affine(1.0, 0.1));
  net.graph.add_edge(1, 2, make_affine(0.5, 1.0));
  net.commodities.push_back({0, 2, d0});
  net.commodities.push_back({1, 2, d1});
  return Instance(std::move(net));
}

SolveRequest request(RequestKind kind, Instance inst,
                     std::uint64_t session = 0) {
  SolveRequest req;
  req.kind = kind;
  req.instance = std::move(inst);
  req.session = session;
  return req;
}

TEST(EngineTest, SessionLifecycle) {
  Engine eng;
  EXPECT_EQ(eng.num_sessions(), 0u);
  const std::uint64_t s = eng.open_session();
  EXPECT_NE(s, 0u);
  EXPECT_EQ(eng.num_sessions(), 1u);
  EXPECT_NE(eng.session(s), nullptr);
  EXPECT_EQ(eng.session(s + 999), nullptr);
  EXPECT_TRUE(eng.close_session(s));
  EXPECT_FALSE(eng.close_session(s));
  EXPECT_EQ(eng.num_sessions(), 0u);
  EXPECT_EQ(eng.stats().sessions_opened, 1u);
  EXPECT_EQ(eng.stats().sessions_closed, 1u);
}

TEST(EngineTest, SessionlessSolveWorks) {
  Engine eng;
  const SolveResponse r =
      eng.solve(request(RequestKind::kMop, links_instance(1.5)));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.kind, RequestKind::kMop);
  EXPECT_EQ(r.status, SolveStatus::kConverged);
  EXPECT_TRUE(std::isfinite(r.cost));
  EXPECT_TRUE(std::isfinite(r.beta));
  EXPECT_GE(r.beta, 0.0);
  EXPECT_LE(r.beta, 1.0);
  EXPECT_FALSE(r.warm);
}

TEST(EngineTest, UnknownSessionIsAnErrorResponse) {
  Engine eng;
  const SolveResponse r =
      eng.solve(request(RequestKind::kMop, links_instance(1.0), 42));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("session"), std::string::npos);
  EXPECT_EQ(eng.stats().errors, 1u);
}

TEST(EngineTest, SessionRampWarmStarts) {
  Engine eng;
  const std::uint64_t s = eng.open_session();
  SolveResponse cold =
      eng.solve(request(RequestKind::kMop, grid_instance(1.0), s));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.warm);
  SolveResponse warm =
      eng.solve(request(RequestKind::kMop, grid_instance(1.2), s));
  ASSERT_TRUE(warm.ok) << warm.error;
  // The instances are freshly built per request, so only value-based
  // compatibility can carry the warm state — and it must.
  EXPECT_TRUE(warm.warm);
  const EngineStats stats = eng.stats();
  EXPECT_EQ(stats.warm_attempts, 1u);
  EXPECT_EQ(stats.warm_hits, 1u);
}

TEST(EngineTest, TopologyChangeResetsWarmState) {
  Engine eng;
  const std::uint64_t s = eng.open_session();
  ASSERT_TRUE(eng.solve(request(RequestKind::kMop, grid_instance(1.0), s)).ok);
  const SolveResponse r =
      eng.solve(request(RequestKind::kMop, links_instance(1.0), s));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.warm);
  EXPECT_EQ(eng.stats().warm_hits, 0u);
}

TEST(EngineTest, WarmAndColdAgreeToTolerance) {
  Engine eng;
  const std::uint64_t s = eng.open_session();
  ASSERT_TRUE(eng.solve(request(RequestKind::kMop, grid_instance(1.0), s)).ok);
  const SolveResponse warm =
      eng.solve(request(RequestKind::kMop, grid_instance(1.3), s));
  const SolveResponse cold =
      eng.solve(request(RequestKind::kMop, grid_instance(1.3)));
  ASSERT_TRUE(warm.ok && cold.ok);
  EXPECT_TRUE(warm.warm);
  EXPECT_FALSE(cold.warm);
  EXPECT_NEAR(warm.cost, cold.cost,
              1e-6 * std::fmax(1.0, std::fabs(cold.cost)));
}

TEST(EngineTest, TableCacheServesValueEqualInstances) {
  Engine eng;
  // Two different sessions, value-equal instances: the second session's
  // workspace adopts the cached compiled table instead of recompiling.
  const std::uint64_t s1 = eng.open_session();
  const std::uint64_t s2 = eng.open_session();
  const SolveResponse a =
      eng.solve(request(RequestKind::kEquilibrium, grid_instance(1.0), s1));
  const SolveResponse b =
      eng.solve(request(RequestKind::kEquilibrium, grid_instance(1.0), s2));
  ASSERT_TRUE(a.ok && b.ok);
  const EngineStats stats = eng.stats();
  EXPECT_GE(stats.table_cache_hits, 1u);
  EXPECT_GE(stats.table_cache_misses, 1u);
  // The adopted kernel computes the identical equilibrium.
  EXPECT_EQ(a.cost, b.cost);
}

TEST(EngineTest, TableCacheCapacityZeroDisables) {
  EngineOptions opts;
  opts.table_cache_capacity = 0;
  Engine eng(opts);
  ASSERT_TRUE(eng.solve(request(RequestKind::kMop, grid_instance(1.0))).ok);
  ASSERT_TRUE(eng.solve(request(RequestKind::kMop, grid_instance(1.0))).ok);
  EXPECT_EQ(eng.stats().table_cache_hits, 0u);
}

TEST(EngineTest, StrategyRequestValidatesAlpha) {
  Engine eng;
  SolveRequest req = request(RequestKind::kStrategy, links_instance(1.0));
  req.strategy = StrategyKind::kScale;
  // NaN alpha for a fraction-taking strategy is a request error.
  const SolveResponse bad = eng.solve(req);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("alpha"), std::string::npos);

  req.alpha = 0.5;
  const SolveResponse good = eng.solve(req);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_TRUE(std::isfinite(good.cost));
  EXPECT_TRUE(std::isfinite(good.optimum_cost));
  EXPECT_GE(good.ratio, 1.0 - 1e-9);  // a baseline never beats the optimum
}

TEST(EngineTest, AloofStrategyIgnoresAlpha) {
  Engine eng;
  SolveRequest req = request(RequestKind::kStrategy, links_instance(1.0));
  req.strategy = StrategyKind::kAloof;
  const SolveResponse r = eng.solve(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(r.ratio, 1.0 - 1e-9);
}

TEST(EngineTest, BudgetDegradesInsteadOfFailing) {
  Engine eng;
  SolveRequest req = request(RequestKind::kEquilibrium, grid_instance(2.0));
  req.backend = EquilibriumBackend::kBush;
  req.budget.max_iters = 1;
  const SolveResponse r = eng.solve(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(solve_ok(r.status));
  EXPECT_TRUE(std::isfinite(r.cost));  // best-so-far, honestly labeled
  EXPECT_EQ(eng.stats().degraded, 1u);
}

TEST(EngineTest, DefaultBudgetAppliesWhenRequestHasNone) {
  EngineOptions opts;
  opts.default_budget.max_iters = 1;
  Engine eng(opts);
  SolveRequest req = request(RequestKind::kEquilibrium, grid_instance(2.0));
  req.backend = EquilibriumBackend::kBush;
  const SolveResponse r = eng.solve(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(solve_ok(r.status));
}

TEST(EngineTest, CountersCollectedWhenEnabled) {
  EngineOptions opts;
  opts.collect_counters = true;
  Engine eng(opts);
  const SolveResponse r =
      eng.solve(request(RequestKind::kMop, grid_instance(1.0)));
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.counters.any());
  EXPECT_GT(r.counters.table_batch_evals, 0u);
}

std::vector<SolveRequest> mixed_batch() {
  std::vector<SolveRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    SolveRequest r = request(RequestKind::kMop, grid_instance(1.0 + 0.2 * i));
    r.id = static_cast<std::uint64_t>(i);
    reqs.push_back(std::move(r));
  }
  for (int i = 0; i < 3; ++i) {
    SolveRequest r =
        request(RequestKind::kOptimum, links_instance(1.0 + 0.5 * i));
    r.id = static_cast<std::uint64_t>(10 + i);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

TEST(EngineTest, BatchResponsesAlignWithRequests) {
  Engine eng;
  const std::vector<SolveRequest> reqs = mixed_batch();
  const std::vector<SolveResponse> resps = eng.solve_batch(reqs);
  ASSERT_EQ(resps.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(resps[i].id, reqs[i].id) << i;
    EXPECT_TRUE(resps[i].ok) << resps[i].error;
    EXPECT_EQ(resps[i].kind, reqs[i].kind);
  }
}

TEST(EngineTest, BatchBitwiseIdenticalAcrossThreadCounts) {
  // A batch with two warm sessions plus sessionless fill, solved serially
  // and in parallel: every numeric response field must match bitwise —
  // the engine-level version of the sweep determinism contract.
  const auto run = [](int threads) {
    set_max_threads(threads);
    Engine eng;
    const std::uint64_t s1 = eng.open_session();
    const std::uint64_t s2 = eng.open_session();
    std::vector<SolveRequest> reqs = mixed_batch();
    for (std::size_t i = 0; i < 4; ++i) reqs[i].session = s1;
    for (std::size_t i = 4; i < reqs.size(); ++i) reqs[i].session = s2;
    SolveRequest lone = request(RequestKind::kMop, links_instance(2.0));
    lone.id = 99;
    reqs.push_back(std::move(lone));
    std::vector<SolveResponse> out = eng.solve_batch(reqs);
    set_max_threads(0);
    return out;
  };
  const std::vector<SolveResponse> serial = run(1);
  const std::vector<SolveResponse> parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    EXPECT_EQ(serial[i].cost, parallel[i].cost) << i;
    EXPECT_EQ(serial[i].warm, parallel[i].warm) << i;
    EXPECT_EQ(serial[i].status, parallel[i].status) << i;
    const bool beta_match = (std::isnan(serial[i].beta) &&
                             std::isnan(parallel[i].beta)) ||
                            serial[i].beta == parallel[i].beta;
    EXPECT_TRUE(beta_match) << i;
  }
}

TEST(EngineTest, WorkspaceFootprintCountsBushScratch) {
  // The bush scratch lives in the caller's workspace, so a session's
  // byte charge covers it.
  const NetworkInstance net = std::get<NetworkInstance>(grid_instance(1.0));
  SolverWorkspace ws;
  ASSERT_TRUE(solve_bush(net, FlowObjective::kBeckmann, {}, {}, ws).converged);
  const auto nv = static_cast<std::size_t>(net.graph.num_nodes());
  const auto ne = static_cast<std::size_t>(net.graph.num_edges());
  // pos, indeg, depth; dmin, dmax; pmin, pmax — per node. total_flow per
  // edge.
  const std::size_t bush_floor =
      nv * (3 * sizeof(std::int32_t) + 2 * sizeof(double) +
            2 * sizeof(EdgeId)) +
      ne * sizeof(double);
  const std::size_t with_bush = footprint_bytes(ws);
  EXPECT_GE(footprint_bytes(ws.bush), bush_floor);
  ws.bush = BushWorkspace{};
  EXPECT_GE(with_bush - footprint_bytes(ws), bush_floor);
}

TEST(EngineTest, BatchSessionsWarmInSubmissionOrder) {
  Engine eng;
  const std::uint64_t s = eng.open_session();
  std::vector<SolveRequest> reqs;
  for (int i = 0; i < 3; ++i) {
    reqs.push_back(request(RequestKind::kMop, grid_instance(1.0 + 0.1 * i), s));
  }
  const std::vector<SolveResponse> resps = eng.solve_batch(reqs);
  ASSERT_EQ(resps.size(), 3u);
  EXPECT_FALSE(resps[0].warm);
  EXPECT_TRUE(resps[1].warm);
  EXPECT_TRUE(resps[2].warm);
}

TEST(EngineTest, BushSeedRejectedAfterDemandSplitChange) {
  // Regression: the bush warm seed's proportional-split precondition must
  // be checked against the demands the seed actually routed, not against
  // the session's last-seen instance. Converge bush at split (1,1), slide
  // the split to (1.5,0.5) through a non-equilibrium request (total demand
  // unchanged — it overwrites the warm anchor but not the seed), then
  // solve bush at (1.5,0.5): against the anchor the ratio is exactly 1, so
  // a stale seed would be accepted even though it routes the wrong split.
  // The solve must fall back to a cold start and match a cold reference
  // bit for bit.
  Engine eng;
  const std::uint64_t s = eng.open_session();
  SolveRequest eq1 =
      request(RequestKind::kEquilibrium, two_commodity_instance(1.0, 1.0), s);
  eq1.backend = EquilibriumBackend::kBush;
  ASSERT_TRUE(eng.solve(eq1).ok);
  ASSERT_TRUE(
      eng.solve(
             request(RequestKind::kOptimum, two_commodity_instance(1.5, 0.5), s))
          .ok);
  SolveRequest eq2 =
      request(RequestKind::kEquilibrium, two_commodity_instance(1.5, 0.5), s);
  eq2.backend = EquilibriumBackend::kBush;
  const SolveResponse chained = eng.solve(eq2);
  ASSERT_TRUE(chained.ok) << chained.error;

  SolveRequest cold = eq2;
  cold.session = 0;
  const SolveResponse reference = eng.solve(cold);
  ASSERT_TRUE(reference.ok) << reference.error;
  EXPECT_EQ(chained.cost, reference.cost);
}

TEST(EngineTest, BushSeedAcceptedOnProportionalRescale) {
  // The complement: a genuinely proportional demand change through a
  // non-equilibrium request keeps the seed usable, and the warm solve
  // still lands on the cold answer to tolerance.
  Engine eng;
  const std::uint64_t s = eng.open_session();
  SolveRequest eq1 =
      request(RequestKind::kEquilibrium, two_commodity_instance(1.0, 1.0), s);
  eq1.backend = EquilibriumBackend::kBush;
  ASSERT_TRUE(eng.solve(eq1).ok);
  ASSERT_TRUE(
      eng.solve(
             request(RequestKind::kOptimum, two_commodity_instance(1.2, 1.2), s))
          .ok);
  SolveRequest eq2 =
      request(RequestKind::kEquilibrium, two_commodity_instance(1.2, 1.2), s);
  eq2.backend = EquilibriumBackend::kBush;
  const SolveResponse warm = eng.solve(eq2);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.warm);
  SolveRequest cold = eq2;
  cold.session = 0;
  const SolveResponse reference = eng.solve(cold);
  ASSERT_TRUE(reference.ok) << reference.error;
  EXPECT_NEAR(warm.cost, reference.cost,
              1e-6 * std::fmax(1.0, std::fabs(reference.cost)));
}

TEST(EngineTest, SessionlessRequestsNeverWarmStart) {
  // Pooled workspaces persist across sessionless requests, warm payloads
  // must not: which pooled session a request borrows is scheduling-
  // dependent, so surviving warm state would break determinism (and the
  // documented sessionless contract).
  Engine eng;
  ASSERT_TRUE(eng.solve(request(RequestKind::kMop, grid_instance(1.0))).ok);
  const SolveResponse second =
      eng.solve(request(RequestKind::kMop, grid_instance(1.2)));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_FALSE(second.warm);
  EXPECT_EQ(eng.stats().warm_attempts, 0u);
}

TEST(EngineTest, FailedSolveResetsSessionWarmState) {
  Engine eng;
  const std::uint64_t s = eng.open_session();
  ASSERT_TRUE(eng.solve(request(RequestKind::kMop, grid_instance(1.0), s)).ok);
  // An invalid strategy request fails; the session must restart cold.
  SolveRequest bad = request(RequestKind::kStrategy, grid_instance(1.1), s);
  bad.strategy = StrategyKind::kLlf;
  bad.alpha = 7.0;  // out of [0, 1]
  EXPECT_FALSE(eng.solve(bad).ok);
  const SolveResponse next =
      eng.solve(request(RequestKind::kMop, grid_instance(1.2), s));
  ASSERT_TRUE(next.ok) << next.error;
  EXPECT_FALSE(next.warm);
}

}  // namespace
}  // namespace stackroute::engine
