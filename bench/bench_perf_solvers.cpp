// E10c — solver ablations called out in DESIGN.md:
//  * water-filling with closed-form vs generic numeric latency inverses
//    (the same affine function expressed as AffineLatency vs Polynomial),
//  * path equilibration to a tight tolerance, small and large instances,
//  * the free-flow max-flow step of MOP.
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "stackroute/core/mop.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/dijkstra.h"
#include "stackroute/network/generators.h"
#include "stackroute/network/maxflow.h"
#include "stackroute/solver/traffic_assignment.h"
#include "stackroute/solver/water_filling.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace {

using namespace stackroute;

std::vector<LatencyPtr> affine_links_closed(int m, Rng& rng) {
  std::vector<LatencyPtr> links;
  for (int i = 0; i < m; ++i) {
    links.push_back(make_affine(rng.uniform(0.3, 3.0), rng.uniform(0.0, 1.5)));
  }
  return links;
}

std::vector<LatencyPtr> affine_links_numeric(int m, Rng& rng) {
  // Same functions, but as 2-term polynomials: no closed-form inverse, so
  // water-filling pays the safeguarded-Newton price per response call.
  std::vector<LatencyPtr> links;
  for (int i = 0; i < m; ++i) {
    links.push_back(
        make_polynomial({rng.uniform(0.0, 1.5), rng.uniform(0.3, 3.0)}));
  }
  return links;
}

void BM_WaterFillClosedFormInverse(benchmark::State& state) {
  Rng rng(1);
  const auto links = affine_links_closed(static_cast<int>(state.range(0)), rng);
  const double demand = 0.05 * state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(water_fill(links, demand, LevelKind::kLatency));
  }
}
BENCHMARK(BM_WaterFillClosedFormInverse)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_WaterFillNumericInverse(benchmark::State& state) {
  Rng rng(1);
  const auto links =
      affine_links_numeric(static_cast<int>(state.range(0)), rng);
  const double demand = 0.05 * state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(water_fill(links, demand, LevelKind::kLatency));
  }
}
BENCHMARK(BM_WaterFillNumericInverse)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_PathEquilibrationToTightTol(benchmark::State& state) {
  Rng rng(2);
  const NetworkInstance inst = grid_city(rng, 5, 5, 2.0);
  AssignmentOptions opts;
  opts.tol = 1e-10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assign_traffic(inst, FlowObjective::kBeckmann, {}, opts));
  }
}
BENCHMARK(BM_PathEquilibrationToTightTol)->Unit(benchmark::kMillisecond);

// ---- Large-instance hot-path cases -------------------------------------
// The kernel/workspace acceptance targets: the largest path-equilibration
// cases in this suite. Fixed tolerances keep the measured work identical
// across implementations. The layered DAG is affine (dispatch-bound:
// virtual-call and allocation overhead dominates), the grid is BPR
// (pow-bound).

void BM_PathEquilibrationLayeredLarge(benchmark::State& state) {
  Rng rng(7);
  const NetworkInstance inst = random_layered_dag(rng, 20, 10, 0.35, 4.0);
  AssignmentOptions opts;
  opts.tol = 1e-7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assign_traffic(inst, FlowObjective::kBeckmann, {}, opts));
  }
}
BENCHMARK(BM_PathEquilibrationLayeredLarge)->Unit(benchmark::kMillisecond);

void BM_PathEquilibrationGridLarge(benchmark::State& state) {
  Rng rng(8);
  const NetworkInstance inst = grid_city_multicommodity(rng, 10, 10, 8, 0.5, 1.5);
  AssignmentOptions opts;
  opts.tol = 1e-8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assign_traffic(inst, FlowObjective::kBeckmann, {}, opts));
  }
}
BENCHMARK(BM_PathEquilibrationGridLarge)->Unit(benchmark::kMillisecond);

// The largest path-equilibration case: a 30×30 BPR grid (1740 edges).
// Per-step cost here is dominated by edge-cost evaluation (BPR = pow), so
// it isolates the incremental-cost-update win: only the two moved paths'
// edges are re-evaluated per step instead of all m.
void BM_PathEquilibrationGridXL(benchmark::State& state) {
  Rng rng(9);
  const NetworkInstance inst = grid_city(rng, 30, 30, 3.0);
  AssignmentOptions opts;
  opts.tol = 1e-7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assign_traffic(inst, FlowObjective::kBeckmann, {}, opts));
  }
}
BENCHMARK(BM_PathEquilibrationGridXL)->Unit(benchmark::kMillisecond);

void BM_DijkstraGrid(benchmark::State& state) {
  Rng rng(3);
  const int n = static_cast<int>(state.range(0));
  const NetworkInstance inst = grid_city(rng, n, n, 1.0);
  std::vector<double> costs(static_cast<std::size_t>(inst.graph.num_edges()));
  for (auto& c : costs) c = rng.uniform(0.1, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(inst.graph, 0, costs));
  }
}
BENCHMARK(BM_DijkstraGrid)->Arg(10)->Arg(30)->Unit(benchmark::kMicrosecond);

void BM_MaxFlowGrid(benchmark::State& state) {
  Rng rng(4);
  const int n = static_cast<int>(state.range(0));
  const NetworkInstance inst = grid_city(rng, n, n, 1.0);
  std::vector<double> caps(static_cast<std::size_t>(inst.graph.num_edges()));
  for (auto& c : caps) c = rng.uniform(0.1, 2.0);
  const NodeId t = static_cast<NodeId>(inst.graph.num_nodes() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_flow(inst.graph, 0, t, caps, kInf));
  }
}
BENCHMARK(BM_MaxFlowGrid)->Arg(10)->Arg(30)->Unit(benchmark::kMicrosecond);

// Ablation: MOP's free-flow step via exact Dinic vs greedy widest-path
// peeling. Greedy is faster but over-estimates beta whenever the tight
// capacities are unbalanced (see GreedyPeel tests for the correctness
// gap); this measures the speed side of that trade.
void BM_MopFreeFlowMaxFlow(benchmark::State& state) {
  Rng rng(5);
  const NetworkInstance inst = grid_city(rng, 6, 6, 2.0);
  MopOptions opts;
  opts.verify_induced = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mop(inst, opts));
  }
}
BENCHMARK(BM_MopFreeFlowMaxFlow)->Unit(benchmark::kMillisecond);

void BM_MopFreeFlowGreedyPeel(benchmark::State& state) {
  Rng rng(5);
  const NetworkInstance inst = grid_city(rng, 6, 6, 2.0);
  MopOptions opts;
  opts.verify_induced = false;
  opts.free_flow_method = FreeFlowMethod::kGreedyPeel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mop(inst, opts));
  }
}
BENCHMARK(BM_MopFreeFlowGreedyPeel)->Unit(benchmark::kMillisecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
