// Shared pieces of the two convex routing programs ([41, Fact 2.4.9]):
//
//   Nash (Wardrop):  min Σ_e ∫₀^{f_e} λ_e(u) du     (Beckmann potential)
//   System optimum:  min Σ_e f_e·λ_e(f_e)            (total cost)
//
// where λ_e is the edge latency, shifted by the Leader's preload s_e when a
// Stackelberg strategy is in place (λ_e(x) = ℓ_e(x + s_e), §4). Both
// objectives are convex for standard latencies, and both are minimized by
// flows equalizing a per-edge "cost": λ_e itself for Nash, the marginal
// social cost for the optimum. The solvers below only ever interact with
// the programs through this little vocabulary.
//
// The solvers evaluate through a compiled LatencyTable (allocation-free and
// devirtualized). total_cost also takes the LatencyPtr span directly for
// callers holding no table; both forms produce bit-identical numbers.
#pragma once

#include <span>
#include <vector>

#include "stackroute/latency/latency.h"
#include "stackroute/latency/table.h"
#include "stackroute/network/graph.h"

namespace stackroute {

enum class FlowObjective {
  kBeckmann,   // minimizer = Nash/Wardrop equilibrium
  kTotalCost,  // minimizer = system optimum
};

/// Effective latencies: the graph's latencies wrapped with make_shifted by
/// `preload` (empty preload = no wrapping). Throws on size mismatch.
std::vector<LatencyPtr> effective_latencies(const Graph& g,
                                            std::span<const double> preload);

/// Per-edge cost used in shortest-path / equilibration steps:
/// λ_e(f_e) for kBeckmann, λ_e(f_e) + f_e·λ_e'(f_e) for kTotalCost. `out`
/// must match the latency count.
void edge_costs(const LatencyTable& lat, std::span<const double> flow,
                FlowObjective objective, std::span<double> out);

/// One edge's cost at load x — the scalar the line searches evaluate.
[[nodiscard]] inline double edge_cost_at(const LatencyTable& lat,
                                         std::size_t e, double x,
                                         FlowObjective objective) {
  return objective == FlowObjective::kBeckmann ? lat.value(e, x)
                                               : lat.marginal(e, x);
}

/// Objective value at the given edge flows.
double objective_value(const LatencyTable& lat, std::span<const double> flow,
                       FlowObjective objective);

/// Total system cost Σ_e f_e·λ_e(f_e) regardless of objective (what the
/// paper calls C(f)).
double total_cost(std::span<const LatencyPtr> lat,
                  std::span<const double> flow);

/// Compiled-kernel form.
double total_cost(const LatencyTable& lat, std::span<const double> flow);

}  // namespace stackroute
