// anaheim-bush-chain: a SweepRunner demand sweep over the Anaheim-class
// TNTP instance with the bush backend, one warm chain, default threads.
//
// The demand axis is fixed rather than drawn from the seed. Measured on
// the commit that introduced this benchmark, shifting the whole axis by
// 0.03x native demand turned two warm-started bush solves from ~0.2 s into
// ~1.6 s each; a seeded axis would make this workload's spread a property
// of the seed instead of the code.
#include <cmath>
#include <cstdio>
#include <memory>
#include <variant>

#include "stackroute/network/dijkstra.h"
#include "stackroute/obs/timing.h"
#include "stackroute/solver/backend.h"
#include "stackroute/solver/workspace.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenario.h"
#include "stackroute/util/parallel.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sr = stackroute;

constexpr int kPoints = 16;
constexpr int kSetups = 9;
/// Relative excess of the lowest point's cost per unit demand over the
/// free-flow cost per unit below which the network counts as uncongested.
constexpr double kCongestionFloor = 1e-6;

/// Point k of the demand axis: 0.25x, 0.35x, .. 1.75x native demand.
double axis_multiplier(int k) { return 0.25 + 0.1 * k; }

std::string reference_key(int k) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "anaheim/x%.2f/nash_cost", axis_multiplier(k));
  return buf;
}

constexpr const char* kNetPath = "examples/instances/Anaheim_net.tntp";

const sr::NetworkInstance& network_of(const sr::sweep::Instance& inst) {
  return std::get<sr::NetworkInstance>(inst);
}

sr::sweep::ScenarioSpec make_spec(
    std::shared_ptr<const sr::sweep::Instance> proto,
    std::vector<double> multipliers) {
  sr::sweep::ScenarioSpec spec;
  spec.name = "anaheim-bush-chain";
  spec.grid.add("demand_scale", std::move(multipliers));
  spec.factory = [proto](const sr::sweep::ParamPoint& point, sr::Rng&) {
    sr::sweep::Instance inst = *proto;
    sr::sweep::scale_demand(inst, point.get("demand_scale"));
    return inst;
  };
  spec.metrics = {sr::sweep::metric_nash_cost()};
  spec.backend = sr::EquilibriumBackend::kBush;
  spec.warm_axis = "demand_scale";
  return spec;
}

/// Free-flow travel time per unit of demand: every OD pair on its
/// zero-flow shortest path.
double free_flow_unit_cost(const sr::NetworkInstance& net) {
  std::vector<double> cost;
  for (const sr::LatencyPtr& l : net.graph.latencies()) {
    cost.push_back(l->value(0.0));
  }
  sr::DijkstraWorkspace ws;
  double total = 0.0;
  double demand = 0.0;
  sr::NodeId last = sr::kInvalidNode;
  for (const sr::Commodity& c : net.commodities) {
    if (c.source != last) sr::dijkstra(net.graph, c.source, cost, ws);
    last = c.source;
    total += c.demand * ws.tree.dist[c.sink];
    demand += c.demand;
  }
  return total / demand;
}

/// Checks every row of a sweep against the committed references, and the
/// lowest point against free flow.
void check_sweep(const sr::sweep::SweepResult& res, double native_demand,
                 double free_flow, const References& refs, Result& result) {
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    const sr::sweep::TaskRecord& rec = res.records[i];
    ++result.attempted;
    if (!rec.ok || rec.status != sr::SolveStatus::kConverged) {
      result.fail("anaheim point " + std::to_string(i) + ": " +
                  (rec.ok ? sr::to_string(rec.status) : rec.error));
      continue;
    }
    refs.check(reference_key(static_cast<int>(i)), rec.metrics[0], result);
  }
  const double lowest = axis_multiplier(0) * native_demand;
  const double per_unit = res.records.front().metrics[0] / lowest;
  if (!(per_unit > free_flow * (1.0 + kCongestionFloor))) {
    result.fail("congestion guard: cost per unit demand at the lowest point "
                "equals free-flow time");
  }
}

}  // namespace

std::vector<double> anaheim_multipliers() {
  std::vector<double> m;
  for (int k = 0; k < kPoints; ++k) m.push_back(axis_multiplier(k));
  return m;
}

Pass anaheim_pass(const Options& opts, double seconds,
                  obs::TraceSession* lane, Result& result) {
  const References refs(opts.references_dir + "/anaheim.json");
  const std::vector<double> multipliers = anaheim_multipliers();
  sr::set_max_threads(0);

  Pass pass;
  std::vector<double> setups;
  std::shared_ptr<const sr::sweep::Instance> proto;
  sr::sweep::ScenarioSpec spec;
  const sr::sweep::SweepRunner runner;
  for (int rep = 0; rep < kSetups; ++rep) {
    Span span(lane, "setup");
    const std::int64_t t0 = obs::now_ns();
    {
      Span load(lane, "sweep.load_instance_file");
      proto = std::make_shared<const sr::sweep::Instance>(
          sr::sweep::load_instance_file(kNetPath));
    }
    spec = make_spec(proto, multipliers);
    // Warm-up: the lowest point alone, so thread-pool start-up and first-
    // touch allocation are paid here rather than in the first timed sweep.
    sr::sweep::ScenarioSpec warmup = make_spec(proto, {multipliers.front()});
    {
      Span run(lane, "sweep.run");
      const sr::sweep::SweepResult res = runner.run(warmup);
      ++result.attempted;
      if (res.num_failed() != 0) result.fail("anaheim warm-up failed");
    }
    setups.push_back(seconds_since(t0));
  }
  pass.setup_s = median(setups);
  pass.setup_samples = setups.size();

  const double native = network_of(*proto).total_demand();
  const double free_flow = free_flow_unit_cost(network_of(*proto));
  // Each sweep is one part of the run: the rate is the median over the
  // calm sweeps (calm_half: least hypervisor steal per second), and each
  // point's latency is its median over the same sweeps.
  std::vector<double> rates;
  std::vector<std::int64_t> steal;
  std::vector<std::vector<double>> point_ms(multipliers.size());
  const std::int64_t deadline =
      obs::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    const std::int64_t t0 = obs::now_ns();
    const std::int64_t steal0 = steal_ticks();
    sr::sweep::SweepResult res;
    {
      Span run(lane, "sweep.run");
      res = runner.run(spec);
    }
    const double wall = seconds_since(t0);
    const std::int64_t steal1 = steal_ticks();
    rates.push_back(static_cast<double>(res.num_tasks()) / wall);
    steal.push_back(steal0 < 0 || steal1 < 0
                        ? -1
                        : static_cast<std::int64_t>(
                              static_cast<double>(steal1 - steal0) * 1e3 /
                              wall));
    for (std::size_t i = 0; i < res.records.size(); ++i) {
      point_ms[i].push_back(res.records[i].millis);
    }
    check_sweep(res, native, free_flow, refs, result);
  } while (obs::now_ns() < deadline || rates.size() < 3);
  const std::vector<std::size_t> calm = calm_half(steal);
  std::vector<double> calm_rates;
  for (std::size_t s : calm) calm_rates.push_back(rates[s]);
  std::vector<double> medians;
  for (const std::vector<double>& ms : point_ms) {
    std::vector<double> calm_ms;
    for (std::size_t s : calm) calm_ms.push_back(ms[s]);
    medians.push_back(median(calm_ms));
  }
  const obs::QuantileSummary q = obs::QuantileSummary::of(medians);
  pass.ops_per_s = median(calm_rates);
  pass.op_ms_p50 = q.p50;
  pass.op_ms_p90 = q.p90;
  pass.samples = calm.size() * multipliers.size();
  return pass;
}

obs::SolveCounters anaheim_probes(obs::TraceSession* lane, Result& result) {
  const std::vector<double> multipliers = anaheim_multipliers();

  std::vector<double> load_ms;
  std::shared_ptr<const sr::sweep::Instance> proto;
  for (int rep = 0; rep < 5; ++rep) {
    Span span(lane, "io.load_instance_file");
    const std::int64_t t0 = obs::now_ns();
    proto = std::make_shared<const sr::sweep::Instance>(
        sr::sweep::load_instance_file(kNetPath));
    load_ms.push_back(seconds_since(t0) * 1e3);
  }
  result.add("io.load_instance_ms", median(load_ms), "ms", load_ms.size());
  const sr::NetworkInstance& net = network_of(*proto);

  // Dijkstra from every zone origin on free-flow costs.
  std::vector<double> cost;
  for (const sr::LatencyPtr& l : net.graph.latencies()) {
    cost.push_back(l->value(0.0));
  }
  std::vector<sr::NodeId> origins;
  for (const sr::Commodity& c : net.commodities) {
    if (origins.empty() || origins.back() != c.source) {
      origins.push_back(c.source);
    }
  }
  std::vector<double> dijkstra_us;
  sr::DijkstraWorkspace dws;
  for (int rep = 0; rep < 5; ++rep) {
    for (sr::NodeId o : origins) {
      Span span(lane, "network.dijkstra");
      const std::int64_t t0 = obs::now_ns();
      sr::dijkstra(net.graph, o, cost, dws);
      dijkstra_us.push_back(seconds_since(t0) * 1e6);
    }
  }
  result.add("network.dijkstra_us_p50",
             obs::QuantileSummary::of(dijkstra_us).p50, "us",
             dijkstra_us.size());

  // solve_equilibrium per point, warm chain in sweep order.
  sr::SolverWorkspace ws;
  sr::EquilibriumWarmState warm;
  sr::EquilibriumRequest req;
  req.backend = sr::EquilibriumBackend::kBush;
  std::vector<double> solve_ms;
  for (double m : multipliers) {
    sr::sweep::Instance inst = *proto;
    sr::sweep::scale_demand(inst, m);
    Span span(lane, "solver.solve_equilibrium");
    const std::int64_t t0 = obs::now_ns();
    const sr::EquilibriumResult res =
        sr::solve_equilibrium(network_of(inst), {}, req, ws, &warm, &warm);
    solve_ms.push_back(seconds_since(t0) * 1e3);
    ++result.attempted;
    if (res.status != sr::SolveStatus::kConverged) {
      result.fail("solve_equilibrium probe did not converge");
    }
  }
  const obs::QuantileSummary sq = obs::QuantileSummary::of(solve_ms);
  result.add("solver.solve_ms_p50", sq.p50, "ms", sq.count);
  result.add("solver.solve_ms_max", sq.max, "ms", sq.count);

  // Sweeps at one thread and at the default thread count; the latter also
  // gives the task timings and, counted, the exact solver counters.
  const sr::sweep::ScenarioSpec spec = make_spec(proto, multipliers);
  const auto timed_sweep = [&](int threads, std::vector<double>* task_ms,
                               std::vector<double>* overhead_ms) {
    sr::set_max_threads(threads);
    Span span(lane, "sweep.run");
    const std::int64_t t0 = obs::now_ns();
    const sr::sweep::SweepResult res = sr::sweep::SweepRunner().run(spec);
    const double wall_ms = seconds_since(t0) * 1e3;
    double task_sum = 0.0;
    for (const sr::sweep::TaskRecord& rec : res.records) {
      if (task_ms != nullptr) task_ms->push_back(rec.millis);
      task_sum += rec.millis;
    }
    if (overhead_ms != nullptr) overhead_ms->push_back(wall_ms - task_sum);
    return wall_ms;
  };
  std::vector<double> wall_1;
  std::vector<double> wall_n;
  std::vector<double> task_ms;
  std::vector<double> overhead_ms;
  for (int rep = 0; rep < 2; ++rep) {
    wall_1.push_back(timed_sweep(1, nullptr, nullptr));
    wall_n.push_back(timed_sweep(0, &task_ms, &overhead_ms));
  }
  sr::set_max_threads(0);
  const obs::QuantileSummary tq = obs::QuantileSummary::of(task_ms);
  result.add("sweep.task_ms_p50", tq.p50, "ms", tq.count);
  result.add("sweep.task_ms_max", tq.max, "ms", tq.count);
  result.add("sweep.overhead_ms", median(overhead_ms), "ms",
             overhead_ms.size());
  result.add("sweep.speedup_1_to_n", median(wall_1) / median(wall_n), "ratio",
             wall_n.size());

  sr::sweep::SweepOptions counted;
  counted.collect_counters = true;
  Span span(lane, "sweep.run");
  return sr::sweep::SweepRunner(counted).run(spec).total_counters();
}

void anaheim_references(std::map<std::string, double>& out) {
  // Cold path-equalization solves: a different backend from the
  // workload's, so the check is also a cross-backend agreement test.
  const sr::sweep::Instance proto =
      sr::sweep::load_instance_file(kNetPath);
  sr::SolverWorkspace ws;
  sr::EquilibriumRequest req;
  req.backend = sr::EquilibriumBackend::kPathEqualization;
  for (int k = 0; k < kPoints; ++k) {
    sr::sweep::Instance inst = proto;
    sr::sweep::scale_demand(inst, axis_multiplier(k));
    const sr::NetworkInstance& net = network_of(inst);
    const sr::EquilibriumResult res =
        sr::solve_equilibrium(net, {}, req, ws, nullptr, nullptr);
    if (res.status != sr::SolveStatus::kConverged) {
      throw std::runtime_error("reference solve did not converge: " +
                               reference_key(k));
    }
    out[reference_key(k)] = sr::cost(net, res.edge_flow);
  }
}

}  // namespace perfbench
