// Solver time vs. generated network size, on the gen/ families — the
// scaling leg of the BENCH trajectory (BENCH_gen.json at the repo root,
// regenerated by CI's bench-perf job). Instances are built outside the
// timed loop from fixed (spec, seed) pairs, so every run measures the
// solvers on bitwise-identical networks.
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "stackroute/core/mop.h"
#include "stackroute/equilibrium/network.h"
#include "stackroute/gen/generators.h"
#include "stackroute/solver/bush.h"

namespace {

using namespace stackroute;

NetworkInstance grid_instance(int size) {
  gen::GridSpec spec;
  spec.rows = spec.cols = size;
  spec.demand = 1.0;
  return gen::make_grid(spec, 7);
}

void annotate(benchmark::State& state, const NetworkInstance& inst) {
  state.counters["nodes"] = inst.graph.num_nodes();
  state.counters["edges"] = inst.graph.num_edges();
}

void BM_GridNashEquilibration(benchmark::State& state) {
  const NetworkInstance inst = grid_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(solve_nash(inst));
  annotate(state, inst);
}
BENCHMARK(BM_GridNashEquilibration)->Arg(4)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_GridBushOptimum(benchmark::State& state) {
  const NetworkInstance inst = grid_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_bush(inst, FlowObjective::kTotalCost));
  }
  annotate(state, inst);
}
BENCHMARK(BM_GridBushOptimum)->Arg(4)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_GridMop(benchmark::State& state) {
  const NetworkInstance inst = grid_instance(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(mop(inst));
  annotate(state, inst);
}
BENCHMARK(BM_GridMop)->Arg(4)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_TorusMop(benchmark::State& state) {
  gen::GridSpec spec;
  spec.rows = spec.cols = static_cast<int>(state.range(0));
  spec.torus = true;
  spec.demand = 1.0;
  const NetworkInstance inst = gen::make_grid(spec, 7);
  for (auto _ : state) benchmark::DoNotOptimize(mop(inst));
  annotate(state, inst);
}
BENCHMARK(BM_TorusMop)->Arg(4)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_RandomDagMop(benchmark::State& state) {
  gen::DagSpec spec;
  spec.nodes = static_cast<int>(state.range(0));
  spec.edge_prob = 0.1;
  const NetworkInstance inst = gen::make_random_dag(spec, 11);
  for (auto _ : state) benchmark::DoNotOptimize(mop(inst));
  annotate(state, inst);
}
BENCHMARK(BM_RandomDagMop)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_SeriesParallelMop(benchmark::State& state) {
  gen::SeriesParallelSpec spec;
  spec.depth = static_cast<int>(state.range(0));
  const NetworkInstance inst = gen::make_series_parallel(spec, 5);
  for (auto _ : state) benchmark::DoNotOptimize(mop(inst));
  annotate(state, inst);
}
BENCHMARK(BM_SeriesParallelMop)->Arg(3)->Arg(5)->Arg(7)
    ->Unit(benchmark::kMillisecond);

void BM_BraessLadderMop(benchmark::State& state) {
  gen::BraessLadderSpec spec;
  spec.rungs = static_cast<int>(state.range(0));
  const NetworkInstance inst = gen::make_braess_ladder(spec, 1);
  for (auto _ : state) benchmark::DoNotOptimize(mop(inst));
  annotate(state, inst);
}
BENCHMARK(BM_BraessLadderMop)->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
