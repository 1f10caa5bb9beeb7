#include "stackroute/equilibrium/parallel.h"

#include <cmath>

#include "stackroute/latency/families.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

namespace {

LinkAssignment from_water_fill(WaterFillingResult&& wf) {
  LinkAssignment out;
  out.flows = std::move(wf.flows);
  out.level = wf.level;
  out.constant_plateau = wf.constant_plateau;
  out.status = wf.status;
  out.supply_gap = wf.supply_gap;
  return out;
}

std::vector<LatencyPtr> shifted_links(const ParallelLinks& m,
                                      std::span<const double> preload) {
  SR_REQUIRE(preload.size() == m.size(),
             "preload vector must have one entry per link");
  std::vector<LatencyPtr> links;
  links.reserve(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    SR_REQUIRE(preload[i] >= -1e-12, "preload must be non-negative");
    links.push_back(preload[i] > 0.0
                        ? make_shifted(m.links[i], preload[i])
                        : m.links[i]);
  }
  return links;
}

}  // namespace

LinkAssignment solve_nash(const ParallelLinks& m, double tol) {
  SolverWorkspace ws;
  return solve_nash(m, tol, ws);
}

LinkAssignment solve_optimum(const ParallelLinks& m, double tol) {
  SolverWorkspace ws;
  return solve_optimum(m, tol, ws);
}

LinkAssignment solve_induced(const ParallelLinks& m,
                             std::span<const double> preload, double tol) {
  SolverWorkspace ws;
  return solve_induced(m, preload, tol, ws);
}

LinkAssignment solve_nash(const ParallelLinks& m, double tol,
                          SolverWorkspace& ws, double level_hint,
                          const SolveBudget& budget) {
  m.validate();
  return from_water_fill(water_fill(m.links, m.demand, LevelKind::kLatency,
                                    tol, ws, level_hint, budget));
}

LinkAssignment solve_optimum(const ParallelLinks& m, double tol,
                             SolverWorkspace& ws, double level_hint,
                             const SolveBudget& budget) {
  m.validate();
  return from_water_fill(water_fill(m.links, m.demand,
                                    LevelKind::kMarginalCost, tol, ws,
                                    level_hint, budget));
}

LinkAssignment solve_induced(const ParallelLinks& m,
                             std::span<const double> preload, double tol,
                             SolverWorkspace& ws, double level_hint,
                             const SolveBudget& budget) {
  m.validate();
  const std::vector<LatencyPtr> links = shifted_links(m, preload);
  const double controlled = sum(preload);
  SR_REQUIRE(controlled <= m.demand + 1e-9 * std::fmax(1.0, m.demand),
             "Leader preload exceeds total demand");
  const double rest = std::fmax(0.0, m.demand - controlled);
  return from_water_fill(
      water_fill(links, rest, LevelKind::kLatency, tol, ws, level_hint,
                 budget));
}

double cost(const ParallelLinks& m, std::span<const double> flows) {
  SR_REQUIRE(flows.size() == m.size(), "flow vector size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    total += flows[i] * m.links[i]->value(flows[i]);
  }
  return total;
}

double stackelberg_cost(const ParallelLinks& m, std::span<const double> preload,
                        std::span<const double> induced) {
  SR_REQUIRE(preload.size() == m.size() && induced.size() == m.size(),
             "flow vector size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double x = preload[i] + induced[i];
    total += x * m.links[i]->value(x);
  }
  return total;
}

namespace {

// Common checker: loaded links share `eval` value; empty links >= it.
template <typename Eval>
bool common_level(const ParallelLinks& m, std::span<const double> flows,
                  Eval eval, double tol) {
  if (flows.size() != m.size()) return false;
  double level = -kInf;
  bool any_loaded = false;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (flows[i] < -tol) return false;
    if (flows[i] > tol) {
      const double v = eval(i, flows[i]);
      if (!any_loaded) {
        level = v;
        any_loaded = true;
      } else if (std::fabs(v - level) > tol * std::fmax(1.0, std::fabs(level))) {
        return false;
      }
    }
  }
  if (!any_loaded) return true;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (flows[i] <= tol &&
        eval(i, 0.0) < level - tol * std::fmax(1.0, std::fabs(level))) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool satisfies_wardrop(const ParallelLinks& m, std::span<const double> flows,
                       double tol) {
  return common_level(
      m, flows,
      [&](std::size_t i, double x) { return m.links[i]->value(x); }, tol);
}

bool satisfies_wardrop_induced(const ParallelLinks& m,
                               std::span<const double> preload,
                               std::span<const double> induced, double tol) {
  if (preload.size() != m.size() || induced.size() != m.size()) return false;
  return common_level(
      m, induced,
      [&](std::size_t i, double x) { return m.links[i]->value(x + preload[i]); },
      tol);
}

bool satisfies_optimality(const ParallelLinks& m, std::span<const double> flows,
                          double tol) {
  return common_level(
      m, flows,
      [&](std::size_t i, double x) { return m.links[i]->marginal(x); }, tol);
}

double price_of_anarchy(const ParallelLinks& m) {
  const LinkAssignment n = solve_nash(m);
  const LinkAssignment o = solve_optimum(m);
  const double co = cost(m, o.flows);
  SR_REQUIRE(co > 0.0, "optimum cost is zero; PoA undefined");
  return cost(m, n.flows) / co;
}

}  // namespace stackroute
