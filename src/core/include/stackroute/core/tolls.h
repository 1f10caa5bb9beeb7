// Marginal-cost (Pigouvian) tolls — the classical *alternative* to
// Stackelberg control that the paper's introduction lists among the ways
// to fight selfish inefficiency ("pricing policies [4]").
//
// Charging each edge the externality τ_e = o_e·ℓ'_e(o_e) of its optimum
// load makes the optimum an equilibrium of the tolled game: selfish users
// minimizing ℓ_e(x) + τ_e equalize the marginal social cost, i.e. route
// optimally. This module computes the tolls, verifies the induced tolled
// equilibrium, and reports the comparison currency: how much *revenue*
// the pricing approach extracts vs how much *flow* (β) the Stackelberg
// Leader must own for the same outcome. Both induce exactly C(O); they
// differ in the instrument.
#pragma once

#include <span>
#include <vector>

#include "stackroute/equilibrium/network.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/network/instance.h"

namespace stackroute {

struct TollResult {
  /// τ_e = o_e·ℓ'_e(o_e) per edge/link.
  std::vector<double> tolls;
  /// Equilibrium flows of the tolled game (should equal the optimum).
  std::vector<double> tolled_equilibrium;
  double untolled_nash_cost = 0.0;  // C(N): latency cost without tolls
  double optimum_cost = 0.0;        // C(O)
  double tolled_latency_cost = 0.0; // latency-only cost at the tolled eq.
  /// Revenue Σ f_e·τ_e collected at the tolled equilibrium — the "price"
  /// users pay so that selfishness becomes optimal.
  double revenue = 0.0;
  /// max |tolled equilibrium − optimum| (verification residual).
  double residual = 0.0;
};

/// Marginal-cost tolls on parallel links.
TollResult marginal_cost_tolls(const ParallelLinks& m);

/// Marginal-cost tolls on a (multicommodity) network, every solve on the
/// backend `req` names.
TollResult marginal_cost_tolls(const NetworkInstance& inst,
                               const EquilibriumRequest& req = {});

/// Builds the tolled variant of an instance (each latency wrapped with
/// make_offset by the given toll vector). Exposed for tests and benches.
ParallelLinks with_tolls(const ParallelLinks& m, std::span<const double> tolls);
NetworkInstance with_tolls(const NetworkInstance& inst,
                           std::span<const double> tolls);

}  // namespace stackroute
