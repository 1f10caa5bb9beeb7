// Equilibrium assignment benchmark: the origin-based bush solver's
// time-to-gap on the synthetic Anaheim-class TNTP instance (416 nodes /
// 914 links / 38 zones / 380 OD pairs, see tools/make_synthetic_anaheim.py)
// and a generated grid-bpr network.
//
// The headline is time-to-gap: the bush solver reaches a 1e-10 relative
// gap on Anaheim in tens of milliseconds (see EXPERIMENTS.md for the
// convergence tables). Each instance also has a fixed-work row — one
// free-flow shortest-path tree per origin, the Dijkstras a cold start
// runs — which is the machine-speed calibration for gating the bush rows
// in BENCH_assignment.json: what CI checks is "bush time per set of
// free-flow trees", clock-free. The grid has one origin, so its row
// repeats the set 64 times: a single 3 µs tree would leave the gated
// ratio to timer noise. Every row runs on one thread. The bush
// rows report the solve's gap checks and the nodes its Dijkstra work
// settled: the gap checks read each origin's distances off its bush and
// repair only what an arc beats, so the settled count stays far below
// one full Dijkstra per origin per check.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <variant>
#include <vector>

#include "bench_main.h"
#include "stackroute/gen/registry.h"
#include "stackroute/network/dijkstra.h"
#include "stackroute/network/instance.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/bush.h"
#include "stackroute/sweep/scenario.h"

namespace {

using namespace stackroute;

const NetworkInstance& anaheim() {
  static const NetworkInstance inst = std::get<NetworkInstance>(
      sweep::load_instance_file(sweep::locate_data_file(
          "examples/instances/Anaheim_net.tntp")));
  return inst;
}

const NetworkInstance& grid() {
  static const NetworkInstance inst =
      std::get<NetworkInstance>(gen::generate_sized("grid-bpr", 10, 2.0, 7));
  return inst;
}

void free_flow_trees(benchmark::State& state, const NetworkInstance& inst,
                     int repeats) {
  const auto ne = static_cast<std::size_t>(inst.graph.num_edges());
  std::vector<double> costs(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    costs[e] = inst.graph.edge(static_cast<EdgeId>(e)).latency->value(0.0);
  }
  std::vector<NodeId> origins;
  for (const Commodity& com : inst.commodities) origins.push_back(com.source);
  std::sort(origins.begin(), origins.end());
  origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
  DijkstraWorkspace ws;
  for (auto _ : state) {
    for (int r = 0; r < repeats; ++r) {
      for (NodeId origin : origins) {
        benchmark::DoNotOptimize(dijkstra(inst.graph, origin, costs, ws).dist);
      }
    }
  }
  state.counters["origins"] = static_cast<double>(origins.size());
  state.counters["trees"] = static_cast<double>(origins.size()) * repeats;
}

void bush_to_gap(benchmark::State& state, const NetworkInstance& inst,
                 double tol) {
  BushOptions opts;
  opts.rel_gap_tol = tol;
  for (auto _ : state) {
    const BushResult r = solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
    if (!solve_ok(r.status)) state.SkipWithError("bush failed to converge");
    benchmark::DoNotOptimize(r.objective);
  }
  // One more solve, counted, outside the timed loop: the work counters are
  // a pure function of the instance.
  obs::SolveCounters sink;
  const obs::CountersScope scope(sink);
  const BushResult r = solve_bush(inst, FlowObjective::kBeckmann, {}, opts);
  state.counters["rel_gap"] = r.rel_gap;
  state.counters["iters"] = r.iterations;
  state.counters["gap_checks"] = static_cast<double>(r.counters.gap_checks);
  state.counters["dijkstra_settled"] =
      static_cast<double>(r.counters.dijkstra_settled);
}

// ---- synthetic Anaheim (416 nodes / 914 links / 380 OD pairs) ----------

void BM_AssignAnaheimFreeFlowTrees(benchmark::State& state) {
  free_flow_trees(state, anaheim(), 1);
}
BENCHMARK(BM_AssignAnaheimFreeFlowTrees)->Unit(benchmark::kMillisecond);

void BM_AssignAnaheimBushGap6(benchmark::State& state) {
  bush_to_gap(state, anaheim(), 1e-6);
}
BENCHMARK(BM_AssignAnaheimBushGap6)->Unit(benchmark::kMillisecond);

void BM_AssignAnaheimBushGap10(benchmark::State& state) {
  bush_to_gap(state, anaheim(), 1e-10);
}
BENCHMARK(BM_AssignAnaheimBushGap10)->Unit(benchmark::kMillisecond);

// ---- generated grid-bpr (multicommodity grid) --------------------------

void BM_AssignGridFreeFlowTrees(benchmark::State& state) {
  free_flow_trees(state, grid(), 64);
}
BENCHMARK(BM_AssignGridFreeFlowTrees)->Unit(benchmark::kMillisecond);

void BM_AssignGridBushGap10(benchmark::State& state) {
  bush_to_gap(state, grid(), 1e-10);
}
BENCHMARK(BM_AssignGridBushGap10)->Unit(benchmark::kMillisecond);

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
