// The engine's instance vocabulary: the sweepable instance variant (moved
// up from the sweep layer, which now aliases it), the warm-reuse
// compatibility test, and stable content hashing.
//
// Two identities matter to a resident solve service:
//
//   structure_hash — topology, latency functions (by value, recursing
//     wrapper chains) and commodity endpoints, *excluding demands*. Two
//     instances with equal structure hashes are candidates for sharing a
//     compiled LatencyTable and for warm-starting one from the other's
//     converged state (demand is exactly the knob warm starts absorb).
//   content_hash — structure plus demands: full value identity. Any field
//     perturbation (an edge endpoint, a latency parameter, a demand)
//     changes it, so stale reuse across mutated instances is impossible.
//
// Hashes are advisory fast paths, never proofs: every reuse decision pairs
// them with the full structural equality check below, so a 64-bit
// collision can cost a missed optimization but never a wrong answer.
#pragma once

#include <cstdint>
#include <variant>

#include "stackroute/latency/latency.h"
#include "stackroute/network/instance.h"
#include "stackroute/util/hash.h"

namespace stackroute::engine {

/// The two input shapes of the paper's algorithms, as one solvable type.
using Instance = std::variant<ParallelLinks, NetworkInstance>;

/// Deep value equality of two latency functions: same kind, same
/// parameters, wrapper chains compared recursively. Opaque user subclasses
/// compare by kind + params only — the honest best available through the
/// virtual interface.
bool latency_equal(const LatencyFunction& a, const LatencyFunction& b);

/// The one warm-reuse rule: true when `cur` is the same instance as `prev`
/// with at most demands changed — same shape, edge endpoints and commodity
/// endpoints, and value-equal latencies (latency_equal, which returns at
/// once on pointer-identical objects). Sweep chains and engine requests
/// both decide warm vs cold by it, so a factory that rebuilds equal
/// latencies per point chains exactly like one that shares them. A pure
/// function of the two instances, hence thread-count and order
/// independent.
bool warm_compatible(const Instance& prev, const Instance& cur);

/// Folds one latency function (wrapper chain included) into `h`.
void mix_latency(StableHash& h, const LatencyFunction& f);

/// Stable digest of one latency set — the engine's compiled-table cache
/// key half; see the header comment for the collision discipline.
std::uint64_t latency_set_hash(std::span<const LatencyPtr> lats);

std::uint64_t structure_hash(const ParallelLinks& m);
std::uint64_t structure_hash(const NetworkInstance& inst);
std::uint64_t structure_hash(const Instance& inst);

std::uint64_t content_hash(const ParallelLinks& m);
std::uint64_t content_hash(const NetworkInstance& inst);
std::uint64_t content_hash(const Instance& inst);

}  // namespace stackroute::engine
