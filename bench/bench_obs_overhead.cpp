// Observability overhead guard: the same solves with no counter sink,
// with a counter sink installed, and with full span+convergence tracing.
//
// The zero-overhead contract of obs/counters.h is that the *CountersOff
// rows cost the same as the uninstrumented library did: every call site
// is a thread-local load and an untaken branch. CI gates the off rows
// against the committed BENCH_obs.json, calibrated by each case's own
// counters-on row — i.e. what is gated is the off/on ratio, which a
// clock-speed difference between runners cannot move. The on and traced
// rows document what opting in costs (small, but not zero: the bush
// solver's tracing path recomputes the objective per iteration).
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/solver/bush.h"
#include "stackroute/solver/traffic_assignment.h"
#include "stackroute/solver/water_filling.h"
#include "stackroute/util/rng.h"

namespace {

using namespace stackroute;

NetworkInstance bench_grid() {
  Rng rng(8);
  return grid_city(rng, 10, 10, 2.0);
}

AssignmentOptions equilibration_opts() {
  AssignmentOptions opts;
  opts.tol = 1e-8;
  return opts;
}

BushOptions bush_opts() {
  BushOptions opts;
  opts.max_iters = 20;
  opts.rel_gap_tol = 0.0;  // fixed budget: identical work in every mode
  return opts;
}

// ---- Path equilibration --------------------------------------------------

void BM_PathEquilibrationCountersOff(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const AssignmentOptions opts = equilibration_opts();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assign_traffic(inst, FlowObjective::kBeckmann, {}, opts));
  }
}
BENCHMARK(BM_PathEquilibrationCountersOff)->Unit(benchmark::kMillisecond);

void BM_PathEquilibrationCountersOn(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const AssignmentOptions opts = equilibration_opts();
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assign_traffic(inst, FlowObjective::kBeckmann, {}, opts));
  }
}
BENCHMARK(BM_PathEquilibrationCountersOn)->Unit(benchmark::kMillisecond);

void BM_PathEquilibrationTraced(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const AssignmentOptions opts = equilibration_opts();
  obs::SolveCounters sink;
  obs::TraceSession session;
  obs::ConvergenceTrace convergence;
  obs::CountersScope counters(sink);
  obs::TraceScope trace(session);
  obs::ConvergenceScope conv(convergence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assign_traffic(inst, FlowObjective::kBeckmann, {}, opts));
  }
}
BENCHMARK(BM_PathEquilibrationTraced)->Unit(benchmark::kMillisecond);

// ---- Bush ----------------------------------------------------------------

void BM_BushCountersOff(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const BushOptions opts = bush_opts();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_bush(inst, FlowObjective::kBeckmann, {}, opts));
  }
}
BENCHMARK(BM_BushCountersOff)->Unit(benchmark::kMillisecond);

void BM_BushCountersOn(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const BushOptions opts = bush_opts();
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_bush(inst, FlowObjective::kBeckmann, {}, opts));
  }
}
BENCHMARK(BM_BushCountersOn)->Unit(benchmark::kMillisecond);

void BM_BushTraced(benchmark::State& state) {
  const NetworkInstance inst = bench_grid();
  const BushOptions opts = bush_opts();
  obs::SolveCounters sink;
  obs::TraceSession session;
  obs::ConvergenceTrace convergence;
  obs::CountersScope counters(sink);
  obs::TraceScope trace(session);
  obs::ConvergenceScope conv(convergence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_bush(inst, FlowObjective::kBeckmann, {}, opts));
  }
}
BENCHMARK(BM_BushTraced)->Unit(benchmark::kMillisecond);

// ---- Water filling -------------------------------------------------------
// The finest-grained solver: per-solve cost is microseconds, so the
// per-call-site cost of the disabled instrumentation shows up here first
// if it shows up anywhere.

std::vector<LatencyPtr> bench_links(int m) {
  Rng rng(1);
  std::vector<LatencyPtr> links;
  for (int i = 0; i < m; ++i) {
    links.push_back(make_affine(rng.uniform(0.3, 3.0), rng.uniform(0.0, 1.5)));
  }
  return links;
}

void BM_WaterFillCountersOff(benchmark::State& state) {
  const auto links = bench_links(1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(water_fill(links, 50.0, LevelKind::kLatency));
  }
}
BENCHMARK(BM_WaterFillCountersOff)->Unit(benchmark::kMicrosecond);

void BM_WaterFillCountersOn(benchmark::State& state) {
  const auto links = bench_links(1000);
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  for (auto _ : state) {
    benchmark::DoNotOptimize(water_fill(links, 50.0, LevelKind::kLatency));
  }
}
BENCHMARK(BM_WaterFillCountersOn)->Unit(benchmark::kMicrosecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
