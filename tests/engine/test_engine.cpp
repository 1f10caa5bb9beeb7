// Engine behavior (engine/engine.h): sessions and warm reuse, the
// compiled-table cache, batch determinism at any thread count, budget
// degradation, workspace byte accounting, and the never-throws error
// contract of solve().
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "stackroute/engine/engine.h"
#include "stackroute/engine/eval.h"
#include "stackroute/engine/footprint.h"
#include "stackroute/gen/registry.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/solver/bush.h"
#include "stackroute/sweep/scenario.h"
#include "stackroute/util/error.h"
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

TEST(EngineTest, BetaAndLlfWarmChainsMatchColdSolves) {
  // A session walking one grid-bpr (size 10) instance up 16 demand levels
  // answers MOP's β and the LLF baseline as cold, sessionless solves of
  // the same requests do, to 1e-8: on one commodity the bush optimum —
  // hence its per-origin flow and LLF's path order — is unique up to the
  // solver tolerance.
  Engine eng;
  const std::uint64_t mop_session = eng.open_session();
  const std::uint64_t llf_session = eng.open_session();
  const auto grid = [](double demand) {
    return Instance(gen::generate_sized("grid-bpr", 10, demand, 1000));
  };
  const auto llf = [&](double demand, std::uint64_t session) {
    SolveRequest req = request(RequestKind::kStrategy, grid(demand), session);
    req.strategy = StrategyKind::kLlf;
    req.alpha = 0.3;
    return req;
  };
  for (int level = 0; level < 16; ++level) {
    const double demand = 1.0 + 0.05 * level;
    const SolveResponse warm_mop =
        eng.solve(request(RequestKind::kMop, grid(demand), mop_session));
    const SolveResponse cold_mop =
        eng.solve(request(RequestKind::kMop, grid(demand)));
    ASSERT_TRUE(warm_mop.ok && cold_mop.ok) << warm_mop.error;
    EXPECT_EQ(warm_mop.warm, level > 0);
    EXPECT_NEAR(warm_mop.beta, cold_mop.beta, 1e-8) << "level " << level;
    const SolveResponse warm_llf = eng.solve(llf(demand, llf_session));
    const SolveResponse cold_llf = eng.solve(llf(demand, 0));
    ASSERT_TRUE(warm_llf.ok && cold_llf.ok) << warm_llf.error;
    EXPECT_NEAR(warm_llf.cost, cold_llf.cost, 1e-8 * cold_llf.cost)
        << "level " << level;
  }
}

TEST(EngineTest, SessionFootprintCountsMopAndStrategyPayloads) {
  // Every warm slot holds a bush payload after the evaluation below; the
  // session's byte charge must include each, and shedding must give every
  // byte back.
  SolveSession session;
  const Instance inst = grid_instance(1.0);
  Evaluation eval(inst, &session);
  (void)eval.network_nash();
  (void)eval.beta();
  (void)eval.strategy_cost(StrategyKind::kScale, 0.3);
  (void)eval.strategy_cost(StrategyKind::kLlf, 0.3);
  const std::size_t full = footprint_bytes(session);
  std::size_t payloads = 0;
  for (const WarmEntry& entry : session.warm) {
    payloads += entry.payload.footprint_bytes();
  }
  EXPECT_GE(full, footprint_bytes(session.ws) + payloads +
                      footprint_bytes(session.optop));
  for (std::size_t i = 0; i < kWarmSlots; ++i) {
    EquilibriumWarmState& payload =
        session.slot(static_cast<WarmSlot>(i)).payload;
    ASSERT_FALSE(payload.empty()) << "slot " << i;
    EquilibriumWarmState taken;
    std::swap(taken, payload);
    const std::size_t without = footprint_bytes(session);
    EXPECT_GE(full - without, taken.footprint_bytes()) << "slot " << i;
    std::swap(taken, payload);
    EXPECT_EQ(footprint_bytes(session), full) << "slot " << i;
  }
  session.shed_memory();
  EXPECT_EQ(footprint_bytes(session), footprint_bytes(SolveSession{}));
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
  // The bush scratch and the Dijkstra buffers the solve runs on live in
  // the caller's workspace, so a session's byte charge covers them: the
  // whole bush scratch, and each piece on its own — dropping any one of
  // ws.dijkstra, the cold build's depth scratch or the in-arc lists cuts
  // the charge by at least its size.
  const NetworkInstance net = std::get<NetworkInstance>(
      sweep::load_instance_file(std::string(STACKROUTE_SOURCE_DIR) +
                                "/examples/instances/Anaheim_net.tntp"));
  SolverWorkspace ws;
  const BushResult r = solve_bush(net, FlowObjective::kBeckmann, {}, {}, ws);
  ASSERT_TRUE(r.converged);
  const auto nv = static_cast<std::size_t>(net.graph.num_nodes());
  const auto ne = static_cast<std::size_t>(net.graph.num_edges());
  // pos, depth, indeg; dmin, dmax; pmin, pmax — per node. total_flow, tail
  // and head per edge. Each origin: its live bush (order over the nodes it
  // reaches, per-edge in_bush and flow) and its in-arc list, with an
  // offset per node it reaches (+1) and at least one in-arc per such node
  // besides the origin itself.
  ASSERT_EQ(ws.bush.state.size(), 38u);
  std::size_t origins_floor = 0;
  std::size_t arcs_floor = 0;
  for (const OriginBush& b : ws.bush.state) {
    origins_floor += b.order.size() * sizeof(NodeId) +
                     ne * (sizeof(char) + sizeof(double));
    arcs_floor += (b.order.size() + 1) * sizeof(std::int32_t) +
                  (b.order.size() - 1) * sizeof(CsrAdjacency::Arc);
  }
  const std::size_t bush_floor =
      nv * (3 * sizeof(std::int32_t) + 2 * sizeof(double) +
            2 * sizeof(EdgeId)) +
      ne * (sizeof(double) + 2 * sizeof(NodeId)) + origins_floor + arcs_floor;
  EXPECT_GE(footprint_bytes(ws.bush), bush_floor);

  const auto charge_of = [&](const auto& drop) {
    const std::size_t before = footprint_bytes(ws);
    drop();
    return before - footprint_bytes(ws);
  };
  // The cold start's full Dijkstras fill dist and parent_edge per node.
  EXPECT_GE(charge_of([&] { ws.dijkstra = DijkstraWorkspace{}; }),
            nv * (sizeof(double) + sizeof(EdgeId)));
  EXPECT_GE(charge_of([&] { ws.bush.depth = std::vector<std::int32_t>(); }),
            nv * sizeof(std::int32_t));
  EXPECT_GE(charge_of([&] { ws.bush.in_arcs = std::vector<CsrAdjacency>(); }),
            arcs_floor);
  EXPECT_GE(charge_of([&] { ws.bush = BushWorkspace{}; }),
            bush_floor - nv * sizeof(std::int32_t) - arcs_floor);
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

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every headline value of one evaluation plus the solver work it did.
struct Reading {
  std::vector<double> values;
  obs::SolveCounters counters;
};

Reading read_evaluation(const Instance& inst, SolveSession* session,
                        EquilibriumBackend backend) {
  Reading out;
  obs::CountersScope scope(out.counters);
  Evaluation eval(inst, session);
  eval.set_backend(backend);
  out.values = {eval.nash_cost(), eval.optimum_cost(), eval.beta(),
                eval.strategy_cost(StrategyKind::kScale, 0.4),
                eval.strategy_cost(StrategyKind::kLlf, 0.4)};
  return out;
}

TEST(EngineTest, SessionlessEvaluationEqualsOneOnAFreshSession) {
  // A sessionless Evaluation runs on a private session, so it must match
  // one on a fresh SolveSession bit for bit, work counters included.
  const std::pair<Instance, EquilibriumBackend> cases[] = {
      {grid_instance(1.0), EquilibriumBackend::kBush},
      {grid_instance(1.0), EquilibriumBackend::kPathEqualization},
      {Instance(fig4_instance()), EquilibriumBackend::kBush},
  };
  for (const auto& [inst, backend] : cases) {
    SolveSession fresh;
    const Reading own = read_evaluation(inst, nullptr, backend);
    const Reading held = read_evaluation(inst, &fresh, backend);
    ASSERT_EQ(own.values.size(), held.values.size());
    for (std::size_t i = 0; i < own.values.size(); ++i) {
      EXPECT_TRUE(same_bits(own.values[i], held.values[i]))
          << to_string(backend) << " value " << i;
    }
    for (const obs::SolveCounters::FieldInfo& f :
         obs::SolveCounters::fields()) {
      EXPECT_EQ(own.counters.*f.member, held.counters.*f.member)
          << to_string(backend) << " " << f.name;
    }
  }
}

TEST(EngineTest, StrategyCostRejectsASecondAlpha) {
  // One α per kind and evaluation: the same α (bitwise) returns the
  // cache, another α is an error naming both, Aloof ignores α.
  for (const Instance& inst : {grid_instance(1.0), links_instance(2.0)}) {
    Evaluation eval(inst, nullptr);
    const double scale = eval.strategy_cost(StrategyKind::kScale, 0.4);
    EXPECT_TRUE(
        same_bits(eval.strategy_cost(StrategyKind::kScale, 0.4), scale));
    try {
      (void)eval.strategy_cost(StrategyKind::kScale, 0.6);
      ADD_FAILURE() << "a second alpha must throw";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("0.4"), std::string::npos) << what;
      EXPECT_NE(what.find("0.6"), std::string::npos) << what;
    }
    const double next = std::nextafter(0.4, 1.0);  // one ulp away
    EXPECT_THROW((void)eval.strategy_cost(StrategyKind::kScale, next), Error);
    // Each baseline keeps its own α.
    (void)eval.strategy_cost(StrategyKind::kLlf, 0.6);
    EXPECT_TRUE(same_bits(eval.strategy_cost(StrategyKind::kAloof, 0.1),
                          eval.strategy_cost(StrategyKind::kAloof, 0.9)));
  }
}

TEST(EngineTest, PeSessionSolvesEveryRequestCold) {
  // Path equalization is a cold reference solver: a pe session walking a
  // 4-level demand ramp answers every request bit for bit as a sessionless
  // pe solve does, and offers none of its solves a warm payload.
  EngineOptions opts;
  opts.collect_counters = true;
  Engine eng(opts);
  const std::uint64_t s = eng.open_session();
  for (int level = 0; level < 4; ++level) {
    for (RequestKind kind : {RequestKind::kEquilibrium, RequestKind::kMop}) {
      SolveRequest req = request(kind, grid_instance(1.0 + 0.25 * level), s);
      req.backend = EquilibriumBackend::kPathEqualization;
      const SolveResponse chained = eng.solve(req);
      req.session = 0;
      const SolveResponse cold = eng.solve(req);
      ASSERT_TRUE(chained.ok && cold.ok) << chained.error << cold.error;
      EXPECT_EQ(chained.warm, level > 0 || kind == RequestKind::kMop);
      EXPECT_TRUE(same_bits(chained.cost, cold.cost)) << "level " << level;
      EXPECT_TRUE(same_bits(chained.beta, cold.beta)) << "level " << level;
      EXPECT_TRUE(same_bits(chained.optimum_cost, cold.optimum_cost));
      EXPECT_EQ(chained.status, cold.status);
      EXPECT_EQ(chained.counters.warm_attempts, 0u) << "level " << level;
      for (const obs::SolveCounters::FieldInfo& f :
           obs::SolveCounters::fields()) {
        EXPECT_EQ(chained.counters.*f.member, cold.counters.*f.member)
            << f.name << " at level " << level;
      }
    }
  }
}

TEST(EngineTest, PeMopBetweenBushMopsRunsOnItsOwnSplit) {
  // One session, one two-origin instance: bush MOP, pe MOP, bush MOP. The
  // pe run must not read the first run's bushes as its per-origin split,
  // and leaves no payload behind, so the last bush run starts cold.
  Engine eng;
  const std::uint64_t s = eng.open_session();
  const auto mop_on = [&](EquilibriumBackend backend, std::uint64_t session) {
    SolveRequest req =
        request(RequestKind::kMop, two_commodity_instance(1.0, 0.6), session);
    req.backend = backend;
    const SolveResponse resp = eng.solve(req);
    EXPECT_TRUE(resp.ok) << resp.error;
    return resp;
  };
  const SolveResponse bush_first = mop_on(EquilibriumBackend::kBush, s);
  const auto payload = [&](WarmSlot slot) -> const EquilibriumWarmState& {
    return eng.session(s)->slot(slot).payload;
  };
  ASSERT_FALSE(payload(WarmSlot::kOptimum).empty());
  ASSERT_FALSE(payload(WarmSlot::kMopInduced).empty());
  const SolveResponse pe = mop_on(EquilibriumBackend::kPathEqualization, s);
  EXPECT_TRUE(payload(WarmSlot::kOptimum).empty());
  EXPECT_TRUE(payload(WarmSlot::kMopInduced).empty());
  const SolveResponse bush_last = mop_on(EquilibriumBackend::kBush, s);
  EXPECT_TRUE(
      same_bits(pe.beta,
                mop_on(EquilibriumBackend::kPathEqualization, 0).beta));
  EXPECT_TRUE(same_bits(bush_last.beta, bush_first.beta));
  EXPECT_TRUE(same_bits(bush_last.cost, bush_first.cost));
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
