// Byte accounting for the engine's resident state — the figures behind
// EngineOptions::{table_cache_budget_bytes, session_budget_bytes}.
//
// Footprints are computed from container *capacities* (what the allocator
// holds, not what is momentarily in use), so a budget verdict reflects the
// process's actual memory retention. They are estimates in one respect
// only: shared latency objects are charged one pointer per reference (the
// functions themselves are owned by whoever built the instance, usually a
// prototype cache that outlives every session). Every figure is cheap —
// O(containers), no allocation — so the engine can re-account a session
// after each solve.
#pragma once

#include <cstddef>

#include "stackroute/core/mop.h"
#include "stackroute/core/optop.h"
#include "stackroute/engine/instance.h"
#include "stackroute/network/dijkstra.h"
#include "stackroute/solver/backend.h"
#include "stackroute/solver/traffic_assignment.h"
#include "stackroute/solver/workspace.h"

namespace stackroute::engine {

struct SolveSession;

std::size_t footprint_bytes(const ParallelLinks& m);
std::size_t footprint_bytes(const NetworkInstance& inst);
std::size_t footprint_bytes(const Instance& inst);

std::size_t footprint_bytes(const DijkstraWorkspace& ws);
std::size_t footprint_bytes(const BushWorkspace& bw);
std::size_t footprint_bytes(const SolverWorkspace& ws);

std::size_t footprint_bytes(const AssignmentWarmStart& warm);
std::size_t footprint_bytes(const MopWarmStart& warm);
std::size_t footprint_bytes(const OpTopWarmStart& warm);
std::size_t footprint_bytes(const EquilibriumWarmState& warm);

/// Everything a session retains between requests: workspace buffers,
/// compiled table, warm payloads and the previous instance kept as the
/// warm anchor. This is the per-session charge against
/// EngineOptions::session_budget_bytes.
std::size_t footprint_bytes(const SolveSession& session);

}  // namespace stackroute::engine
