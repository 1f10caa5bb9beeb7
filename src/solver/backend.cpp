#include "stackroute/solver/backend.h"

#include <string>

#include "stackroute/util/error.h"

namespace stackroute {

namespace {

constexpr EquilibriumBackend kBackends[] = {
    EquilibriumBackend::kPathEqualization,
    EquilibriumBackend::kBush,
};

}  // namespace

const char* to_string(EquilibriumBackend backend) noexcept {
  switch (backend) {
    case EquilibriumBackend::kPathEqualization:
      return "pe";
    case EquilibriumBackend::kBush:
      return "bush";
  }
  return "pe";  // unreachable for in-range values
}

std::span<const EquilibriumBackend> equilibrium_backends() noexcept {
  return kBackends;
}

const char* equilibrium_backend_names() noexcept { return "pe or bush"; }

EquilibriumBackend parse_equilibrium_backend(std::string_view name) {
  if (name == "pe") return EquilibriumBackend::kPathEqualization;
  if (name == "bush") return EquilibriumBackend::kBush;
  throw Error("unknown backend '" + std::string(name) + "' (expected " +
              equilibrium_backend_names() + ")");
}

EquilibriumResult solve_equilibrium(const NetworkInstance& inst,
                                    std::span<const double> preload,
                                    const EquilibriumRequest& req,
                                    SolverWorkspace& ws,
                                    const EquilibriumWarmState* warm_in,
                                    EquilibriumWarmState* warm_out) {
  EquilibriumResult out;
  switch (req.backend) {
    case EquilibriumBackend::kPathEqualization: {
      AssignmentOptions opts = req.assignment;
      if (req.budget.active()) opts.budget = req.budget;
      AssignmentResult r =
          assign_traffic(inst, req.objective, preload, opts, ws);
      out.edge_flow = std::move(r.edge_flow);
      out.commodity_paths = std::move(r.commodity_paths);
      out.objective = r.objective;
      out.spread = r.spread;
      out.iterations = r.sweeps;
      out.converged = r.converged;
      out.status = r.status;
      out.counters = r.counters;
      if (warm_out != nullptr) warm_out->clear();
      break;
    }
    case EquilibriumBackend::kBush: {
      BushOptions opts = req.bush;
      if (req.budget.active()) opts.budget = req.budget;
      BushResult r =
          solve_bush(inst, req.objective, preload, opts, ws, warm_in, warm_out);
      out.edge_flow = std::move(r.edge_flow);
      out.objective = r.objective;
      out.rel_gap = r.rel_gap;
      out.iterations = r.iterations;
      out.converged = r.converged;
      out.status = r.status;
      out.counters = r.counters;
      break;
    }
  }
  return out;
}

namespace {

/// The solve's per-origin flows for `out`'s origins: its paths summed per
/// origin, or else its bush payload's flows; false when neither matches
/// the instance.
bool split_solve(const NetworkInstance& inst,
                 std::span<const std::vector<PathFlow>> commodity_paths,
                 const EquilibriumWarmState& warm, std::vector<OriginFlow>& out,
                 std::vector<std::vector<double>>& storage) {
  const auto ne = static_cast<std::size_t>(inst.graph.num_edges());
  const std::size_t k = inst.commodities.size();
  if (commodity_paths.size() == k) {
    storage.assign(out.size(), std::vector<double>(ne, 0.0));
    for (std::size_t o = 0; o < out.size(); ++o) {
      for (std::size_t i : out[o].commodities) {
        for (const PathFlow& pf : commodity_paths[i]) {
          for (EdgeId e : pf.path) {
            storage[o][static_cast<std::size_t>(e)] += pf.flow;
          }
        }
      }
      out[o].edge_flow = storage[o];
    }
    return true;
  }
  if (warm.commodities.size() != k || warm.bushes.size() != out.size()) {
    return false;
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (warm.commodities[i].source != inst.commodities[i].source ||
        warm.commodities[i].sink != inst.commodities[i].sink) {
      return false;
    }
  }
  for (std::size_t o = 0; o < out.size(); ++o) {
    const OriginBush& bush = warm.bushes[o];
    if (bush.origin != out[o].origin || bush.flow.size() != ne) return false;
    out[o].edge_flow = bush.flow;
  }
  return true;
}

}  // namespace

std::vector<OriginFlow> origin_flows(
    const NetworkInstance& inst, std::span<const double> edge_flow,
    std::span<const std::vector<PathFlow>> commodity_paths,
    const EquilibriumWarmState& warm,
    std::vector<std::vector<double>>& storage) {
  std::vector<OriginFlow> out;
  for (OriginGroup& group : group_by_origin(inst)) {
    out.push_back(OriginFlow{group.origin, std::move(group.commodities), {}});
  }
  if (split_solve(inst, commodity_paths, warm, out, storage)) return out;
  if (out.size() == 1) {
    out[0].edge_flow = edge_flow;
    return out;
  }
  return {};
}

}  // namespace stackroute
