#include "stackroute/core/optop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "stackroute/equilibrium/parallel.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

OpTopResult op_top(const ParallelLinks& m, const OpTopOptions& opts) {
  // One workspace across the optimum solve, every round's Nash solve and
  // the induced solve: the water-filling kernels recompile the (shrinking)
  // subsystem into the same flat table each round without reallocating.
  SolverWorkspace ws;
  return op_top(m, opts, ws, nullptr);
}

OpTopResult op_top(const ParallelLinks& m, const OpTopOptions& opts,
                   SolverWorkspace& ws, OpTopWarmStart* warm) {
  m.validate();
  const double r0 = m.demand;
  const double tol = opts.freeze_tol * std::fmax(1.0, r0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto hint = [&](double OpTopWarmStart::* field) {
    return warm != nullptr ? warm->*field : nan;
  };
  const auto round_hint = [&](std::size_t round) {
    return warm != nullptr && round < warm->round_levels.size()
               ? warm->round_levels[round]
               : nan;
  };
  // Collected locally: the hints stay readable until the run ends.
  OpTopWarmStart levels;

  // One armed budget shared by every internal water-filling solve, so the
  // whole pipeline draws on a single deadline.
  const SolveBudget budget = opts.budget.armed();

  OpTopResult result;
  const auto absorb = [&result](const LinkAssignment& a) {
    result.status = worst_status(result.status, a.status);
    result.supply_gap = std::fmax(result.supply_gap, std::fabs(a.supply_gap));
  };
  {
    const LinkAssignment opt =
        solve_optimum(m, opts.solve_tol, ws,
                      hint(&OpTopWarmStart::optimum_level), budget);
    absorb(opt);
    result.optimum = opt.flows;
    levels.optimum_level = opt.level;
    const LinkAssignment nash = solve_nash(
        m, opts.solve_tol, ws, hint(&OpTopWarmStart::nash_level), budget);
    absorb(nash);
    result.nash = nash.flows;
    levels.nash_level = nash.level;
  }
  result.optimum_cost = cost(m, result.optimum);
  result.nash_cost = cost(m, result.nash);
  result.strategy.assign(m.size(), 0.0);
  result.induced.assign(m.size(), 0.0);

  // Active subsystem, tracked by original link index.
  std::vector<int> active(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) active[i] = static_cast<int>(i);
  double remaining = r0;

  for (int round = 0; round < static_cast<int>(m.size()) && !active.empty();
       ++round) {
    const ParallelLinks sub = subsystem(m, active, remaining);
    LinkAssignment nash;
    if (remaining > tol) {
      nash = solve_nash(sub, opts.solve_tol, ws,
                        round_hint(static_cast<std::size_t>(round)), budget);
      absorb(nash);
      levels.round_levels.push_back(nash.level);
    } else {
      nash.flows.assign(active.size(), 0.0);
      levels.round_levels.push_back(nan);
    }

    OpTopRound trace;
    trace.flow_before = remaining;
    trace.nash_level = nash.level;
    std::vector<int> still_active;
    for (std::size_t pos = 0; pos < active.size(); ++pos) {
      const int link = active[pos];
      const double o = result.optimum[static_cast<std::size_t>(link)];
      if (o > nash.flows[pos] + tol) {
        // Under-loaded: freeze at its optimum load and discard.
        trace.frozen.push_back(link);
        result.strategy[static_cast<std::size_t>(link)] = o;
        remaining -= o;
      } else {
        still_active.push_back(link);
      }
    }
    if (trace.frozen.empty()) break;  // step (3): M' empty -> terminate
    result.rounds.push_back(std::move(trace));
    active = std::move(still_active);
  }

  SR_ASSERT(remaining >= -tol, "OpTop drove the remaining flow negative");
  remaining = std::fmax(remaining, 0.0);
  result.beta = (r0 - remaining) / r0;

  // The followers now self-assign the remaining flow on the unfrozen links;
  // by construction this reproduces the optimum there.
  if (!active.empty() && remaining > tol) {
    const ParallelLinks sub = subsystem(m, active, remaining);
    const LinkAssignment induced =
        solve_nash(sub, opts.solve_tol, ws,
                   hint(&OpTopWarmStart::induced_level), budget);
    absorb(induced);
    levels.induced_level = induced.level;
    for (std::size_t pos = 0; pos < active.size(); ++pos) {
      result.induced[static_cast<std::size_t>(active[pos])] =
          induced.flows[pos];
    }
  }
  result.induced_cost =
      stackelberg_cost(m, result.strategy, result.induced);
  if (warm != nullptr) *warm = std::move(levels);
  return result;
}

double price_of_optimum(const ParallelLinks& m) { return op_top(m).beta; }

}  // namespace stackroute
