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

void EquilibriumWarmState::clear() {
  paths.commodity_paths.clear();
  paths.demands.clear();
  bush.clear();
}

void EquilibriumWarmState::prepare(EquilibriumBackend next) {
  if (backend != next) clear();
  backend = next;
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
      const AssignmentWarmStart cold;
      const AssignmentWarmStart& seed =
          warm_in != nullptr &&
                  warm_in->backend == EquilibriumBackend::kPathEqualization
              ? warm_in->paths
              : cold;
      AssignmentResult r =
          assign_traffic(inst, req.objective, preload, opts, ws, seed);
      out.edge_flow = std::move(r.edge_flow);
      out.commodity_paths = std::move(r.commodity_paths);
      out.objective = r.objective;
      out.spread = r.spread;
      out.iterations = r.sweeps;
      out.converged = r.converged;
      out.status = r.status;
      out.counters = r.counters;
      if (warm_out != nullptr) {
        warm_out->prepare(EquilibriumBackend::kPathEqualization);
        warm_out->paths.commodity_paths = out.commodity_paths;
        warm_out->paths.demands.clear();
        warm_out->paths.demands.reserve(inst.commodities.size());
        for (const Commodity& com : inst.commodities) {
          warm_out->paths.demands.push_back(com.demand);
        }
      }
      break;
    }
    case EquilibriumBackend::kBush: {
      BushOptions opts = req.bush;
      if (req.budget.active()) opts.budget = req.budget;
      const BushWarmState* seed = nullptr;
      if (warm_in != nullptr && warm_in->backend == EquilibriumBackend::kBush) {
        seed = &warm_in->bush;
      }
      BushWarmState* publish = nullptr;
      if (warm_out != nullptr) {
        // Retag before the solve: when warm_in aliases warm_out and the tag
        // already matches, prepare() keeps the payload the solve reads.
        warm_out->prepare(EquilibriumBackend::kBush);
        publish = &warm_out->bush;
      }
      BushResult r =
          solve_bush(inst, req.objective, preload, opts, ws, seed, publish);
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

/// The payload's per-origin flows for `out`'s origins; false when the
/// payload does not match the instance.
bool split_from_payload(const NetworkInstance& inst,
                        const EquilibriumWarmState& warm,
                        std::vector<OriginFlow>& out,
                        std::vector<std::vector<double>>& storage) {
  const auto ne = static_cast<std::size_t>(inst.graph.num_edges());
  const std::size_t k = inst.commodities.size();
  if (warm.backend == EquilibriumBackend::kBush) {
    const BushWarmState& b = warm.bush;
    if (b.commodities.size() != k || b.bushes.size() != out.size()) {
      return false;
    }
    for (std::size_t i = 0; i < k; ++i) {
      if (b.commodities[i].source != inst.commodities[i].source ||
          b.commodities[i].sink != inst.commodities[i].sink) {
        return false;
      }
    }
    for (std::size_t o = 0; o < out.size(); ++o) {
      const OriginBush& bush = b.bushes[o];
      if (bush.origin != out[o].origin || bush.flow.size() != ne) return false;
      out[o].edge_flow = bush.flow;
    }
    return true;
  }
  const auto& paths = warm.paths.commodity_paths;
  if (paths.size() != k) return false;
  storage.assign(out.size(), std::vector<double>(ne, 0.0));
  for (std::size_t o = 0; o < out.size(); ++o) {
    for (std::size_t i : out[o].commodities) {
      for (const PathFlow& pf : paths[i]) {
        for (EdgeId e : pf.path) {
          storage[o][static_cast<std::size_t>(e)] += pf.flow;
        }
      }
    }
    out[o].edge_flow = storage[o];
  }
  return true;
}

}  // namespace

std::vector<OriginFlow> origin_flows(
    const NetworkInstance& inst, std::span<const double> edge_flow,
    const EquilibriumWarmState& warm,
    std::vector<std::vector<double>>& storage) {
  std::vector<OriginFlow> out;
  for (OriginGroup& group : group_by_origin(inst)) {
    out.push_back(OriginFlow{group.origin, std::move(group.commodities), {}});
  }
  if (split_from_payload(inst, warm, out, storage)) return out;
  if (out.size() == 1) {
    out[0].edge_flow = edge_flow;
    return out;
  }
  return {};
}

}  // namespace stackroute
