// Engine request-replay latency: a canned demand-ramp request stream
// served through engine::Engine twice.
//
//   Cold — no cross-request reuse at all: a fresh session per request,
//     closed immediately, with the compiled-table cache disabled. This is
//     what every request cost before the engine existed (workspace
//     allocation + table compile + cold solve), and what a service built
//     on per-request processes would still pay.
//   Warm — one persistent session for the whole stream: the compiled
//     table, workspace buffers and the previous request's converged
//     solver state all carry forward.
//
// (The engine's default sessionless path sits between the two: pooled
// workspaces and the table cache apply, only the solver warm start does
// not.) The tracked figures are per-request latency quantiles
// (p50_us/p99_us counters, from SolveResponse::millis) and throughput
// (rps); the Warm/Cold pairs in BENCH_engine.json are the headline — CI
// gates each warm counter against its own cold counterpart, so the warm
// speedup must not shrink by more than 25% machine-independently.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_main.h"
#include "stackroute/engine/engine.h"
#include "stackroute/gen/registry.h"
#include "stackroute/network/generators.h"
#include "stackroute/obs/profile.h"
#include "stackroute/sweep/scenario.h"

namespace {

using namespace stackroute;

/// A demand ramp over one prototype instance — the request shape a client
/// streaming a β curve (or a load ramp) sends the service.
std::vector<engine::SolveRequest> ramp_requests(const engine::Instance& proto,
                                                engine::RequestKind kind,
                                                int n, double lo, double hi) {
  std::vector<engine::SolveRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    engine::SolveRequest req;
    req.kind = kind;
    req.instance = proto;
    sweep::override_demand(req.instance,
                           lo + (hi - lo) * i / static_cast<double>(n - 1));
    req.id = static_cast<std::uint64_t>(i);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

void replay(benchmark::State& state,
            const std::vector<engine::SolveRequest>& stream, bool warm) {
  engine::EngineOptions opts;
  if (!warm) opts.table_cache_capacity = 0;  // no reuse of any kind
  engine::Engine eng(opts);
  std::vector<double> latency_ms;
  std::size_t served = 0;
  for (auto _ : state) {
    // Warm: a fresh session per stream iteration — every iteration replays
    // the whole ramp, cold first request included, like one client
    // connection. Cold: a fresh session per *request*.
    std::uint64_t session = warm ? eng.open_session() : 0;
    for (const engine::SolveRequest& req : stream) {
      if (!warm) session = eng.open_session();
      engine::SolveRequest r = req;
      r.session = session;
      const engine::SolveResponse resp = eng.solve(r);
      if (!resp.ok) state.SkipWithError(resp.error.c_str());
      latency_ms.push_back(resp.millis);
      ++served;
      if (!warm) eng.close_session(session);
    }
    if (warm) eng.close_session(session);
    benchmark::DoNotOptimize(served);
  }
  const obs::QuantileSummary q = obs::QuantileSummary::of(latency_ms);
  state.counters["p50_us"] = q.p50 * 1000.0;
  state.counters["p99_us"] = q.p99 * 1000.0;
  state.counters["rps"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
  state.counters["requests"] = static_cast<double>(stream.size());
}

// M/M/1 parallel links (the β-curve shape of bench_mm1_beta at 4x link
// count): MOP requests over a 32-point demand ramp. Warm chains reuse the
// previous point's water-filling levels.
const std::vector<engine::SolveRequest>& mm1_stream() {
  static const auto stream = ramp_requests(
      engine::Instance(mm1_two_groups(12, 1.0, 28, 8.0 / 28.0, 11.0)),
      engine::RequestKind::kMop, 32, 11.0, 17.0);
  return stream;
}

void BM_EngineReplayMm1Cold(benchmark::State& state) {
  replay(state, mm1_stream(), false);
}
BENCHMARK(BM_EngineReplayMm1Cold)->Unit(benchmark::kMillisecond);

void BM_EngineReplayMm1Warm(benchmark::State& state) {
  replay(state, mm1_stream(), true);
}
BENCHMARK(BM_EngineReplayMm1Warm)->Unit(benchmark::kMillisecond);

// A generated grid-bpr network: MOP requests over a 24-point demand ramp.
// Warm chains reuse the converged path decomposition and Stackelberg
// state; cold requests still share the engine's compiled-table cache, so
// the pair isolates exactly the solver warm-start payoff a session buys.
const std::vector<engine::SolveRequest>& grid_stream() {
  static const auto stream = ramp_requests(
      engine::Instance(gen::generate_sized("grid-bpr", 10, 1.0, 7)),
      engine::RequestKind::kMop, 24, 0.5, 3.0);
  return stream;
}

void BM_EngineReplayGridBprCold(benchmark::State& state) {
  replay(state, grid_stream(), false);
}
BENCHMARK(BM_EngineReplayGridBprCold)->Unit(benchmark::kMillisecond);

void BM_EngineReplayGridBprWarm(benchmark::State& state) {
  replay(state, grid_stream(), true);
}
BENCHMARK(BM_EngineReplayGridBprWarm)->Unit(benchmark::kMillisecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
