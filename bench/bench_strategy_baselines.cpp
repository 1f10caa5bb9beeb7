// Stackelberg baselines (ISSUE 5): cold vs warm wall-clock over the
// ratio-vs-α sweeps the paper's headline comparison needs — a
// parallel-links α chain (water-filling induced solves with level hints)
// and a generated grid-bpr α chain (path-equilibration induced solves
// seeded from the previous α's follower decomposition) — plus the raw LLF
// fill on a large system. One thread throughout; the Warm/Cold row pairs
// in BENCH_strategies.json are the tracked headline (CI fails the
// bench-perf job on >25% regression of the warm counters relative to
// their cold counterparts).
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_main.h"
#include "stackroute/core/strategy.h"
#include "stackroute/gen/registry.h"
#include "stackroute/network/generators.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenarios.h"
#include "stackroute/util/parallel.h"

namespace {

using namespace stackroute;

sweep::ScenarioSpec parallel_alpha_spec(int points) {
  sweep::ScenarioSpec spec;
  spec.name = "strategy-alpha-parallel";
  spec.grid.add_linspace("alpha", 0.0, 1.0, points);
  Rng rng(9);
  auto prototype = std::make_shared<sweep::Instance>(
      random_polynomial_links(rng, 32, 8.0));
  spec.factory = [prototype](const sweep::ParamPoint&,
                             Rng&) -> sweep::Instance { return *prototype; };
  spec.metrics = sweep::strategy_metrics();
  spec.warm_axis = "alpha";
  return spec;
}

sweep::ScenarioSpec grid_alpha_spec(int points) {
  sweep::ScenarioSpec spec;
  spec.name = "strategy-alpha-grid";
  spec.grid.add_linspace("alpha", 0.0, 1.0, points);
  auto prototype = std::make_shared<sweep::Instance>(
      gen::generate(gen::sized_spec("grid-bpr", 8), 7));
  spec.factory = [prototype](const sweep::ParamPoint&,
                             Rng&) -> sweep::Instance { return *prototype; };
  spec.metrics = sweep::strategy_metrics();
  spec.warm_axis = "alpha";
  return spec;
}

void run_sweep(benchmark::State& state, const sweep::ScenarioSpec& spec,
               bool warm) {
  set_max_threads(1);
  sweep::SweepOptions opts;
  opts.warm_start = warm;
  std::size_t failed = 0;
  for (auto _ : state) {
    const sweep::SweepResult r = sweep::SweepRunner(opts).run(spec);
    failed += r.num_failed();
    benchmark::DoNotOptimize(failed);
  }
  set_max_threads(0);
  state.counters["tasks"] = static_cast<double>(spec.grid.size());
  state.counters["failed"] = static_cast<double>(failed);
}

void BM_StrategyAlphaSweepParallelCold(benchmark::State& state) {
  const sweep::ScenarioSpec spec = parallel_alpha_spec(64);
  run_sweep(state, spec, false);
}
BENCHMARK(BM_StrategyAlphaSweepParallelCold)->Unit(benchmark::kMillisecond);

void BM_StrategyAlphaSweepParallelWarm(benchmark::State& state) {
  const sweep::ScenarioSpec spec = parallel_alpha_spec(64);
  run_sweep(state, spec, true);
}
BENCHMARK(BM_StrategyAlphaSweepParallelWarm)->Unit(benchmark::kMillisecond);

void BM_StrategyAlphaSweepGridCold(benchmark::State& state) {
  const sweep::ScenarioSpec spec = grid_alpha_spec(32);
  run_sweep(state, spec, false);
}
BENCHMARK(BM_StrategyAlphaSweepGridCold)->Unit(benchmark::kMillisecond);

void BM_StrategyAlphaSweepGridWarm(benchmark::State& state) {
  const sweep::ScenarioSpec spec = grid_alpha_spec(32);
  run_sweep(state, spec, true);
}
BENCHMARK(BM_StrategyAlphaSweepGridWarm)->Unit(benchmark::kMillisecond);

// The raw LLF fill (sort + greedy budget walk) on a large parallel system:
// pure strategy construction, no equilibrium solves.
void BM_LlfFillLargeParallel(benchmark::State& state) {
  const auto links = static_cast<int>(state.range(0));
  Rng rng(11);
  const ParallelLinks m = random_affine_links(rng, links, 1000.0);
  const LinkAssignment opt = solve_optimum(m);
  for (auto _ : state) {
    const std::vector<double> s = llf_strategy(m, 0.6, opt.flows);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * links);
}
BENCHMARK(BM_LlfFillLargeParallel)->Arg(1000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
