#include "stackroute/core/atomic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stackroute/equilibrium/parallel.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

double AtomicInstance::total_weight() const { return sum(weights); }

ParallelLinks AtomicInstance::continuous() const {
  return ParallelLinks{links, total_weight()};
}

void AtomicInstance::validate() const {
  SR_REQUIRE(!links.empty(), "atomic game needs >= 1 link");
  SR_REQUIRE(!weights.empty(), "atomic game needs >= 1 player");
  for (const auto& link : links) {
    SR_REQUIRE(link != nullptr, "atomic game has a null link");
  }
  for (double w : weights) {
    SR_REQUIRE(w > 0.0 && std::isfinite(w),
               "atomic player weights must be positive");
  }
  continuous().validate();  // capacity check against total weight
}

AtomicInstance atomize(const ParallelLinks& m, int players) {
  SR_REQUIRE(players >= 1, "atomize needs >= 1 player");
  AtomicInstance game;
  game.links = m.links;
  game.weights.assign(static_cast<std::size_t>(players),
                      m.demand / players);
  return game;
}

namespace {

/// Round-robin passes before best-response dynamics gives up.
constexpr int kMaxRounds = 100000;
/// A move must improve the player's latency by more than this.
constexpr double kImprovementTol = 1e-12;

std::vector<double> loads_of(const AtomicInstance& game,
                             std::span<const int> choice) {
  std::vector<double> load(game.num_links(), 0.0);
  for (std::size_t p = 0; p < game.num_players(); ++p) {
    const int l = choice[p];
    SR_REQUIRE(l >= 0 && static_cast<std::size_t>(l) < game.num_links(),
               "player choice out of range");
    load[static_cast<std::size_t>(l)] += game.weights[p];
  }
  return load;
}

double assignment_cost(const AtomicInstance& game,
                       std::span<const double> load) {
  double c = 0.0;
  for (std::size_t l = 0; l < game.num_links(); ++l) {
    c += load[l] * game.links[l]->value(load[l]);
  }
  return c;
}

// Best link for player p given the other players' loads (`load` excludes
// the player); every option, staying included, is evaluated at load + w.
int best_link_for(const AtomicInstance& game, std::span<const double> load,
                  int current, double w, double tol) {
  const auto cur = static_cast<std::size_t>(current);
  double best_latency = game.links[cur]->value(load[cur] + w);  // stay put
  int best = current;
  for (std::size_t l = 0; l < game.num_links(); ++l) {
    if (l == cur) continue;
    const double latency = game.links[l]->value(load[l] + w);
    if (latency < best_latency - tol) {
      best_latency = latency;
      best = static_cast<int>(l);
    }
  }
  return best;
}

BestResponseResult run_dynamics(const AtomicInstance& game,
                                std::vector<int> choice,
                                std::span<const char> frozen) {
  std::vector<double> load = loads_of(game, choice);
  BestResponseResult out;
  for (int round = 1; round <= kMaxRounds; ++round) {
    out.rounds = round;
    bool moved = false;
    for (std::size_t p = 0; p < game.num_players(); ++p) {
      if (!frozen.empty() && frozen[p]) continue;
      const double w = game.weights[p];
      const int from = choice[p];
      // Remove the player, pick the best link, re-insert.
      load[static_cast<std::size_t>(from)] -= w;
      const int to = best_link_for(game, load, from, w, kImprovementTol);
      load[static_cast<std::size_t>(to)] += w;
      if (to != from) {
        choice[p] = to;
        moved = true;
      }
    }
    if (!moved) {
      out.converged = true;
      break;
    }
  }
  out.choice = std::move(choice);
  out.load = loads_of(game, out.choice);  // recompute: kills drift
  out.cost = assignment_cost(game, out.load);
  return out;
}

}  // namespace

BestResponseResult best_response_dynamics(const AtomicInstance& game,
                                          std::vector<int> initial) {
  game.validate();
  if (initial.empty()) {
    initial.assign(game.num_players(), 0);
  }
  SR_REQUIRE(initial.size() == game.num_players(),
             "initial assignment size mismatch");
  return run_dynamics(game, std::move(initial), {});
}

bool is_pure_nash(const AtomicInstance& game, std::span<const int> choice,
                  double tol) {
  if (choice.size() != game.num_players()) return false;
  std::vector<double> load = loads_of(game, choice);
  for (std::size_t p = 0; p < game.num_players(); ++p) {
    const double w = game.weights[p];
    const auto cur = static_cast<std::size_t>(choice[p]);
    const double mine = game.links[cur]->value(load[cur]);
    for (std::size_t l = 0; l < game.num_links(); ++l) {
      if (l == cur) continue;
      if (game.links[l]->value(load[l] - 0.0 + w) < mine - tol) return false;
    }
  }
  return true;
}

AtomicStackelbergResult atomic_stackelberg(
    const AtomicInstance& game, std::span<const std::size_t> leader_players) {
  game.validate();
  AtomicStackelbergResult result;
  result.is_leader.assign(game.num_players(), 0);
  for (std::size_t p : leader_players) {
    SR_REQUIRE(p < game.num_players(), "leader player index out of range");
    SR_REQUIRE(!result.is_leader[p], "duplicate leader player index");
    result.is_leader[p] = 1;
    result.leader_weight += game.weights[p];
  }

  // The target: the continuous optimum of the full instance. Leaders are
  // packed heaviest-first onto the link with the largest remaining
  // optimum share (atomic LLF).
  const ParallelLinks relaxed = game.continuous();
  const LinkAssignment opt = solve_optimum(relaxed);
  result.continuous_optimum = cost(relaxed, opt.flows);

  std::vector<std::size_t> leaders(leader_players.begin(),
                                   leader_players.end());
  std::stable_sort(leaders.begin(), leaders.end(),
                   [&](std::size_t a, std::size_t b) {
                     return game.weights[a] > game.weights[b];
                   });
  // LLF-style packing: fill the links followers like least — decreasing
  // optimum latency ℓ_l(o_l) — each up to its optimum share, heaviest
  // players first (the atomic analogue of freezing under-loaded links).
  std::vector<std::size_t> link_order(game.num_links());
  std::iota(link_order.begin(), link_order.end(), std::size_t{0});
  std::stable_sort(link_order.begin(), link_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return game.links[a]->value(opt.flows[a]) >
                            game.links[b]->value(opt.flows[b]);
                   });
  std::vector<double> remaining = opt.flows;
  std::vector<int> choice(game.num_players(), 0);
  for (std::size_t p : leaders) {
    std::size_t target = game.num_links();
    for (std::size_t l : link_order) {
      if (remaining[l] > 1e-12) {
        target = l;
        break;
      }
    }
    if (target == game.num_links()) {
      // Every share is spent: overshoot where it hurts least.
      target = static_cast<std::size_t>(std::distance(
          remaining.begin(),
          std::max_element(remaining.begin(), remaining.end())));
    }
    choice[p] = static_cast<int>(target);
    remaining[target] -= game.weights[p];
  }

  // Followers best-respond to convergence with the leaders frozen.
  const std::vector<char> frozen(result.is_leader.begin(),
                                 result.is_leader.end());
  const BestResponseResult dynamics =
      run_dynamics(game, std::move(choice), frozen);
  result.choice = dynamics.choice;
  result.cost = dynamics.cost;
  result.converged = dynamics.converged;
  return result;
}

AtomicStackelbergResult atomic_stackelberg_share(const AtomicInstance& game,
                                                 double share) {
  SR_REQUIRE(share >= 0.0 && share <= 1.0, "share must lie in [0, 1]");
  game.validate();
  // Heaviest players first until the share is covered.
  std::vector<std::size_t> order(game.num_players());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return game.weights[a] > game.weights[b];
                   });
  std::vector<std::size_t> leaders;
  double budget = share * game.total_weight();
  for (std::size_t p : order) {
    if (budget <= 1e-15) break;
    if (game.weights[p] <= budget + 1e-12) {
      leaders.push_back(p);
      budget -= game.weights[p];
    }
  }
  return atomic_stackelberg(game, leaders);
}

}  // namespace stackroute
