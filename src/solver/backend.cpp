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
      const AssignmentWarmStart* seed = nullptr;
      if (warm_in != nullptr &&
          warm_in->backend == EquilibriumBackend::kPathEqualization) {
        seed = &warm_in->paths;
      }
      AssignmentResult r =
          seed != nullptr
              ? assign_traffic(inst, req.objective, preload, opts, ws, *seed)
              : assign_traffic(inst, req.objective, preload, opts, ws,
                               AssignmentWarmStart{});
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
      static thread_local BushWorkspace tl_bush_ws;  // scratch only; sized on
                                                     // use, carries no state
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
      BushResult r = solve_bush(inst, req.objective, preload, opts, ws,
                                tl_bush_ws, seed, publish);
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

}  // namespace stackroute
