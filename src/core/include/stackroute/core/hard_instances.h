// Theorem 2.4: on hard instances (M, r, α < β_M) whose links share a
// common slope — ℓ_i(x) = a·x + b_i, a > 0 — the *optimal* Stackelberg
// strategy is computable in polynomial time, despite the weak NP-hardness
// of the general problem (Roughgarden, SICOMP 2004, Thm 6.1).
//
// Shape of the solution (§6): by Lemma 6.1 some optimal strategy splits
// the links, sorted by intercept, into a prefix M>0(i₀) that receives
// followers and a suffix M=0(i₀) that does not. For each of the ≤ m
// prefixes the Leader places ε of her αr budget on the prefix (where it
// joins the followers in a Nash assignment of (1−α)r + ε) and assigns the
// rest optimally on the suffix; the best ε minimizes the convex sum of
// the two partial costs subject to
//   (i)  every prefix link is loaded, and
//   (ii) the prefix's common latency does not exceed any suffix latency
// (otherwise followers would invade the suffix). Both feasibility
// boundaries are monotone in ε, so the feasible set is an interval and
// golden-section search finds the optimum.
//
// A grid + pattern-search brute-force oracle over the strategy simplex is
// provided for cross-checking on small instances.
#pragma once

#include <vector>

#include "stackroute/core/strategy.h"
#include "stackroute/network/instance.h"

namespace stackroute {

struct Thm24Result {
  std::vector<double> strategy;  // original link order
  std::vector<double> induced;
  double cost = 0.0;   // C(S+T)
  double ratio = 0.0;  // C(S+T)/C(O)
  /// Size of the follower-serving prefix in intercept-sorted order;
  /// m means the degenerate "useless strategy" candidate (cost C(N)).
  int prefix_size = 0;
  /// Leader flow placed on the prefix.
  double epsilon = 0.0;
};

/// Requires every link affine with one common slope a > 0 (throws
/// otherwise) and alpha in [0, 1]. Works for any alpha, but is interesting
/// for alpha < β_M where the optimum cost is unreachable.
Thm24Result optimal_strategy_common_slope(const ParallelLinks& m,
                                          double alpha);

/// Exhaustive-ish oracle: a 16-unit grid scan over the Leader simplex
/// followed by up to 60 rounds of greedy pairwise pattern search.
/// Exponential-ish in m via the grid — only for small instances in
/// tests/benches.
StackelbergOutcome brute_force_strategy(const ParallelLinks& m, double alpha);

/// The Stackelberg threshold (Sharma & Williamson [43], discussed around
/// footnote 6 of §7.2): the smallest α at which the *optimal* strategy
/// strictly improves on C(N). Exact for common-slope affine instances via
/// bisection over optimal_strategy_common_slope (the optimal cost is
/// non-increasing in α). Returns 0 when C(N) = C(O) already.
double improvement_threshold_common_slope(const ParallelLinks& m,
                                          double tol = 1e-9);

}  // namespace stackroute
