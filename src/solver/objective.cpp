#include "stackroute/solver/objective.h"

#include "stackroute/latency/families.h"
#include "stackroute/obs/counters.h"
#include "stackroute/util/error.h"
#include "stackroute/util/fault.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

std::vector<LatencyPtr> effective_latencies(const Graph& g,
                                            std::span<const double> preload) {
  std::vector<LatencyPtr> lat = g.latencies();
  if (preload.empty()) return lat;
  SR_REQUIRE(preload.size() == lat.size(),
             "preload vector must have one entry per edge");
  for (std::size_t e = 0; e < lat.size(); ++e) {
    SR_REQUIRE(preload[e] >= -1e-12, "preload must be non-negative");
    if (preload[e] > 0.0) {
      lat[e] = make_shifted(std::move(lat[e]), preload[e]);
    }
  }
  return lat;
}

void edge_costs(const LatencyTable& lat, std::span<const double> flow,
                FlowObjective objective, std::span<double> out) {
  SR_REQUIRE(lat.size() == flow.size() && out.size() == lat.size(),
             "edge cost size mismatch");
  obs::count(&obs::SolveCounters::table_batch_evals);
  for (std::size_t e = 0; e < lat.size(); ++e) {
    out[e] = edge_cost_at(lat, e, flow[e], objective);
  }
  // Fault-injection seam: each batch evaluation is one event, corrupted
  // after the loop. One thread-local load and branch when no plan is
  // armed.
  if (fault::armed()) {
    double bad;
    if (fault::next_eval_faulted(bad) && !out.empty()) {
      out[(out.size() - 1) / 2] = bad;
    }
  }
}

double objective_value(const LatencyTable& lat, std::span<const double> flow,
                       FlowObjective objective) {
  SR_REQUIRE(lat.size() == flow.size(), "objective size mismatch");
  obs::count(&obs::SolveCounters::table_batch_evals);
  double total = 0.0;
  for (std::size_t e = 0; e < lat.size(); ++e) {
    total += objective == FlowObjective::kBeckmann
                 ? lat.integral(e, flow[e])
                 : flow[e] * lat.value(e, flow[e]);
  }
  return total;
}

double total_cost(std::span<const LatencyPtr> lat,
                  std::span<const double> flow) {
  SR_REQUIRE(lat.size() == flow.size(), "objective size mismatch");
  double total = 0.0;
  for (std::size_t e = 0; e < lat.size(); ++e) {
    total += flow[e] * lat[e]->value(flow[e]);
  }
  return total;
}

double total_cost(const LatencyTable& lat, std::span<const double> flow) {
  return objective_value(lat, flow, FlowObjective::kTotalCost);
}

}  // namespace stackroute
