// SolveSession: the persistent per-client solver state of the engine —
// the generalization of the sweep layer's old ChainContext (which is now
// an alias of this type). A session owns one SolverWorkspace (compiled
// latency table, Dijkstra/path buffers) plus the converged warm-start
// payloads of the last request it served, and hands them to the next
// request whenever the instances are chain-compatible. Confined to one
// request at a time, hence one thread — the engine serializes a session's
// requests and shards only across sessions.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "stackroute/core/mop.h"
#include "stackroute/core/optop.h"
#include "stackroute/engine/instance.h"
#include "stackroute/solver/backend.h"
#include "stackroute/solver/workspace.h"

namespace stackroute::engine {

/// Converged baseline-strategy solver state carried along an α-sweep
/// chain: the induced solves' bush payloads on networks, the induced
/// water-filling levels on parallel links.
struct StrategyWarmState {
  EquilibriumWarmState scale_induced;  // network follower payloads
  EquilibriumWarmState llf_induced;
  double scale_level = std::numeric_limits<double>::quiet_NaN();
  double llf_level = std::numeric_limits<double>::quiet_NaN();
};

struct SolveSession {
  SolverWorkspace ws;
  bool has_prev = false;
  /// The previous request's instance — kept alive so chain_compatible's
  /// pointer-identity test is sound (and warm_compatible has an anchor).
  Instance prev_instance;
  /// The last Nash solve's per-origin bushes (see solver/backend.h). A pe
  /// solve reads none of these payloads and leaves the one it would
  /// have filled empty, so after a pe request the next bush request on
  /// that slot starts cold.
  EquilibriumWarmState equilibrium;
  MopWarmStart mop;          // optimum + induced bushes (the .optimum
                             // half also feeds plain optimum solves and
                             // holds the per-origin flows LLF reads)
  OpTopWarmStart optop;      // parallel-links water-filling levels
  StrategyWarmState strategy;  // per-baseline induced payloads (α chains)
  /// Water-filling levels of the last plain parallel-links Nash/optimum
  /// solves — the warm seeds of chained equilibrium/optimum requests
  /// (OpTop keeps its own levels in `optop`).
  double nash_level = std::numeric_limits<double>::quiet_NaN();
  double opt_level = std::numeric_limits<double>::quiet_NaN();

  /// Drops the warm payloads (workspace capacity is kept): called when a
  /// task fails or an incompatible instance breaks the chain, so stale
  /// state can never leak across the break.
  void reset_warm();

  /// reset_warm() plus actually releasing the memory: the workspace
  /// (compiled table included) and the anchor instance are swapped with
  /// empty objects, so the session's footprint drops to a few hundred
  /// bytes. The engine calls this on idle sessions when the session byte
  /// budget is exceeded — the session stays open and correct, its next
  /// request just starts cold and re-grows the buffers.
  void shed_memory();
};

}  // namespace stackroute::engine
