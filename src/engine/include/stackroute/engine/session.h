// SolveSession: the persistent per-client solver state of the engine. A
// session owns one SolverWorkspace (compiled latency table, Dijkstra/path
// buffers) plus the converged warm-start payloads of the last request it
// served, and hands them to the next request whenever the instances are
// chain-compatible. Sweep chains and engine clients both run on sessions,
// and an Evaluation without one owns a private session. Confined to one
// request at a time, hence one thread — the engine serializes a session's
// requests and shards only across sessions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "stackroute/core/optop.h"
#include "stackroute/engine/instance.h"
#include "stackroute/solver/backend.h"
#include "stackroute/solver/workspace.h"

namespace stackroute::engine {

/// The solves whose converged state a session carries to its next
/// request, one slot each (an internal index, not a setting).
enum class WarmSlot : std::uint8_t {
  kNash,        // plain Nash
  kOptimum,     // the optimum, MOP's included: its bushes are the
                // per-origin flows MOP and LLF read
  kMopInduced,  // MOP's induced verification solve
  kScale,       // SCALE's induced solve along an α chain
  kLlf,         // LLF's induced solve along an α chain
  kCount,       // number of slots, not a slot
};
inline constexpr std::size_t kWarmSlots =
    static_cast<std::size_t>(WarmSlot::kCount);

/// One slot's converged state: the bush payload of a network solve and
/// the water-filling level of a parallel-links one (NaN = cold).
struct WarmEntry {
  EquilibriumWarmState payload;
  double level = std::numeric_limits<double>::quiet_NaN();
};

struct SolveSession {
  SolverWorkspace ws;
  bool has_prev = false;
  /// The previous request's instance — kept alive so chain_compatible's
  /// pointer-identity test is sound (and warm_compatible has an anchor).
  Instance prev_instance;
  /// Warm state by WarmSlot. A pe solve reads none of these payloads and
  /// leaves the one it passes through empty, so after a pe request the
  /// next bush request on that slot starts cold.
  std::array<WarmEntry, kWarmSlots> warm;
  /// OpTop's own water-filling levels (never shared with the kNash or
  /// kOptimum levels: a session mixing request kinds must not seed one
  /// solve from another's state).
  OpTopWarmStart optop;

  [[nodiscard]] WarmEntry& slot(WarmSlot s) {
    return warm[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const WarmEntry& slot(WarmSlot s) const {
    return warm[static_cast<std::size_t>(s)];
  }

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
