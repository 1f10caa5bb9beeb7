// Atomic (finitely many, weighted) followers on parallel links — the
// discrete sibling of the paper's infinitesimal-followers model and the
// direction its related work points to (Fotakis, "Stackelberg strategies
// for atomic congestion games", ESA'07 — reference [12]).
//
// Each player p routes an indivisible weight w_p on one link; a pure Nash
// equilibrium is an assignment where no player can lower their latency by
// switching. Best-response dynamics converge for unit weights on
// arbitrary latencies (Rosenthal's potential) and for weighted players on
// affine latencies; the solver plays deterministic rounds with a guard
// and reports convergence.
//
// The Stackelberg layer mirrors the paper: the Leader owns a *set of
// players* (rather than a flow portion) and pre-places them against the
// fractional optimum of the underlying continuous instance; the remaining
// players then best-respond. As player granularity refines, the atomic
// game approaches the paper's continuous one — bench E13 measures exactly
// that convergence.
#pragma once

#include <span>
#include <vector>

#include "stackroute/network/instance.h"

namespace stackroute {

struct AtomicInstance {
  std::vector<LatencyPtr> links;
  std::vector<double> weights;  // one entry per player, > 0

  [[nodiscard]] std::size_t num_links() const { return links.size(); }
  [[nodiscard]] std::size_t num_players() const { return weights.size(); }
  [[nodiscard]] double total_weight() const;
  /// The continuous relaxation: same links, demand = total weight.
  [[nodiscard]] ParallelLinks continuous() const;
  void validate() const;
};

/// n unit-weight players (weight total/n each) on a copy of `m`'s links.
AtomicInstance atomize(const ParallelLinks& m, int players);

struct BestResponseResult {
  std::vector<int> choice;   // player -> link index
  std::vector<double> load;  // per link
  double cost = 0.0;         // Σ load·ℓ(load) = Σ_p w_p·ℓ(their link)
  int rounds = 0;            // full round-robin passes played
  bool converged = false;    // pure Nash reached
};

/// Round-robin best-response dynamics from `initial` (player -> link;
/// empty = everyone starts on link 0). Deterministic.
BestResponseResult best_response_dynamics(
    const AtomicInstance& game, std::vector<int> initial = {});

/// Is the assignment a pure Nash equilibrium (within tol)?
bool is_pure_nash(const AtomicInstance& game, std::span<const int> choice,
                  double tol = 1e-9);

struct AtomicStackelbergResult {
  std::vector<int> choice;       // all players (leaders fixed, followers BR)
  std::vector<char> is_leader;   // per player
  double leader_weight = 0.0;    // total weight the Leader owns
  double cost = 0.0;             // atomic C(S+T)
  double continuous_optimum = 0.0;  // C(O) of the continuous relaxation
  bool converged = false;
};

/// Stackelberg play: the `leader_players` (indices) are pre-placed against
/// the continuous optimum — heaviest player first onto the link whose
/// optimum share is least filled (an atomic LLF) — then frozen while the
/// rest best-respond.
AtomicStackelbergResult atomic_stackelberg(
    const AtomicInstance& game, std::span<const std::size_t> leader_players);

/// Convenience: Leader owns the heaviest players up to `share` of the
/// total weight.
AtomicStackelbergResult atomic_stackelberg_share(const AtomicInstance& game,
                                                 double share);

}  // namespace stackroute
