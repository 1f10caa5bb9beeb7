// Warm-start solve chains (ISSUE 4): cold vs warm wall-clock over the two
// demand-axis sweeps that dominate the paper's β curves — an M/M/1
// parallel-links system (OpTop water-filling chains) and a generated
// grid-bpr network (MOP / path-equilibration chains). Everything runs at
// one thread, matching the acceptance criterion; the Warm/Cold row pairs
// in BENCH_warm.json are the tracked headline (CI fails the bench-perf job
// on >25% regression of the warm counters).
#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "stackroute/gen/registry.h"
#include "stackroute/network/generators.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenarios.h"
#include "stackroute/util/parallel.h"

namespace {

using namespace stackroute;

// The bench_mm1_beta two-groups shape at 4x the builtin link count (total
// capacity still 20), swept over a dense demand axis — the shape the β
// curves need, big enough that the water-filling solves dominate the
// per-task fixed costs.
sweep::ScenarioSpec mm1_demand_spec(int points) {
  sweep::ScenarioSpec spec;
  spec.name = "mm1-beta-demand";
  spec.grid.add_linspace("demand", 11.0, 17.0, points);
  auto prototype = std::make_shared<sweep::Instance>(
      mm1_two_groups(12, 1.0, 28, 8.0 / 28.0, 11.0));
  spec.factory = [prototype](const sweep::ParamPoint& p,
                             Rng&) -> sweep::Instance {
    sweep::Instance inst = *prototype;
    sweep::override_demand(inst, p.get("demand"));
    return inst;
  };
  spec.metrics = sweep::default_metrics();
  spec.metrics.push_back(sweep::metric_optop_rounds());
  spec.warm_axis = "demand";
  return spec;
}

sweep::ScenarioSpec grid_bpr_demand_spec(int points) {
  sweep::ScenarioSpec spec;
  spec.name = "grid-bpr-demand";
  spec.grid.add_linspace("demand", 0.5, 3.0, points);
  spec.factory =
      sweep::generated_instance_source(gen::sized_spec("grid-bpr", 10), 7);
  spec.metrics = sweep::default_metrics();
  spec.warm_axis = "demand";
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

void BM_Mm1BetaDemandSweepCold(benchmark::State& state) {
  const sweep::ScenarioSpec spec = mm1_demand_spec(64);
  run_sweep(state, spec, false);
}
BENCHMARK(BM_Mm1BetaDemandSweepCold)->Unit(benchmark::kMillisecond);

void BM_Mm1BetaDemandSweepWarm(benchmark::State& state) {
  const sweep::ScenarioSpec spec = mm1_demand_spec(64);
  run_sweep(state, spec, true);
}
BENCHMARK(BM_Mm1BetaDemandSweepWarm)->Unit(benchmark::kMillisecond);

void BM_GridBprDemandSweepCold(benchmark::State& state) {
  const sweep::ScenarioSpec spec = grid_bpr_demand_spec(48);
  run_sweep(state, spec, false);
}
BENCHMARK(BM_GridBprDemandSweepCold)->Unit(benchmark::kMillisecond);

void BM_GridBprDemandSweepWarm(benchmark::State& state) {
  const sweep::ScenarioSpec spec = grid_bpr_demand_spec(48);
  run_sweep(state, spec, true);
}
BENCHMARK(BM_GridBprDemandSweepWarm)->Unit(benchmark::kMillisecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
