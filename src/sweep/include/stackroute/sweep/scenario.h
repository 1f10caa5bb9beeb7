// Declarative sweep scenarios: an instance source crossed with a
// parameter grid and a list of metric extractors.
//
// The instance source is any callable (ParamPoint, Rng&) -> Instance:
// paper examples (generators.h / hard_instances.h), randomized families
// drawn from the per-task Rng, or files via io/serialize (see
// file_instance_source). The Rng handed to the factory is seeded with
// mix_seed(base_seed, task_index), so a scenario's results are a pure
// function of (spec, grid index) — independent of thread count and
// execution order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stackroute/gen/registry.h"
#include "stackroute/sweep/grid.h"
#include "stackroute/sweep/metrics.h"
#include "stackroute/util/rng.h"

namespace stackroute::sweep {

using InstanceFactory = std::function<Instance(const ParamPoint&, Rng&)>;

struct ScenarioSpec {
  std::string name;
  std::string description;
  ParamGrid grid;
  InstanceFactory factory;
  std::vector<Metric> metrics;
  /// Root of the per-task seed derivation (see header comment).
  std::uint64_t base_seed = 1;
  /// Backend every network solve of every task dispatches through — Nash,
  /// optimum, MOP and the baselines (see solver/backend.h; the CLI's
  /// --backend flag sets it). Bush by default — golden tables are frozen
  /// on it.
  EquilibriumBackend backend = EquilibriumBackend::kBush;
  /// Grid axis along which adjacent tasks form warm-start chains (see
  /// runner.h); typically "demand". Empty — or naming an axis the grid
  /// lacks — means every task is its own cold chain. Declaring a warm axis
  /// is always safe: tasks whose instances are not chain_compatible (e.g.
  /// a fresh random topology per point) simply solve cold within their
  /// chain, and the result table stays bitwise thread-count independent
  /// either way.
  std::string warm_axis;
};

/// Parses a serialized instance, auto-detecting the header keyword
/// (`parallel_links` vs `network`, see io/serialize.h).
Instance load_instance_text(const std::string& text);

/// load_instance_text over a file's contents; throws on unreadable paths.
/// A TNTP `X_net.tntp` gets the OD matrix of its trips_sibling() when one
/// exists, else a unit commodity from the first node to the last.
Instance load_instance_file(const std::string& path);

/// The existing `X_trips.tntp` next to a `X_net.tntp` path, or "" when the
/// path is not a `_net.tntp` file or has no such sibling.
std::string trips_sibling(const std::string& path);

/// Resolves a repo-relative data file (e.g. the shipped SiouxFalls TNTP)
/// for builtin scenarios, trying in order: the relative path itself from
/// the working directory, the STACKROUTE_DATA_DIR environment directory
/// (deployment override for installed builds with no source tree), then
/// the source tree the library was configured from. Throws
/// stackroute::Error naming every candidate when none resolves.
std::string locate_data_file(const std::string& relative_path);

/// Factory serving the given instance file at every grid point. If the
/// grid has a "demand" axis, the point's demand replaces the file's: set
/// directly on parallel links, and scaled proportionally across
/// commodities on networks (so multicommodity splits are preserved).
InstanceFactory file_instance_source(std::string path);

/// The same demand override, exposed for custom factories.
void override_demand(Instance& instance, double demand);

/// Multiplies the instance's demand by `factor` (> 0, finite) — parallel
/// links scale their single demand, networks scale every commodity, so
/// multicommodity splits are preserved. The seam fault-injected demand
/// perturbations apply through (see util/fault.h).
void scale_demand(Instance& instance, double factor);

/// Factory serving gen::generate(spec, seed) at every grid point — one
/// fixed generated instance (like file_instance_source, but from the
/// generator subsystem instead of disk), with the same demand-axis
/// override. Behind `stackroute-sweep --generate`.
InstanceFactory generated_instance_source(gen::GeneratorSpec spec,
                                          std::uint64_t seed);

}  // namespace stackroute::sweep
