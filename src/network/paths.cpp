#include "stackroute/network/paths.h"

#include <algorithm>
#include <cmath>

#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

double path_cost(std::span<const double> edge_cost, const Path& path) {
  KahanSum s;
  for (EdgeId e : path) {
    SR_REQUIRE(e >= 0 && static_cast<std::size_t>(e) < edge_cost.size(),
               "path edge id out of range");
    s.add(edge_cost[static_cast<std::size_t>(e)]);
  }
  return s.value();
}

bool is_path(const Graph& g, NodeId s, NodeId t, const Path& path) {
  NodeId at = s;
  for (EdgeId e : path) {
    if (e < 0 || e >= g.num_edges()) return false;
    if (g.edge(e).tail != at) return false;
    at = g.edge(e).head;
  }
  return at == t;
}

namespace {
void dfs_paths(const Graph& g, NodeId v, NodeId t, std::vector<char>& on_stack,
               Path& current, std::vector<Path>& out,
               std::size_t max_paths) {
  if (v == t) {
    SR_REQUIRE(out.size() < max_paths,
               "enumerate_paths: more than max_paths simple paths");
    out.push_back(current);
    return;
  }
  on_stack[static_cast<std::size_t>(v)] = 1;
  for (EdgeId e : g.out_edges(v)) {
    const NodeId w = g.edge(e).head;
    if (on_stack[static_cast<std::size_t>(w)]) continue;
    current.push_back(e);
    dfs_paths(g, w, t, on_stack, current, out, max_paths);
    current.pop_back();
  }
  on_stack[static_cast<std::size_t>(v)] = 0;
}
}  // namespace

std::vector<Path> enumerate_paths(const Graph& g, NodeId s, NodeId t,
                                  std::size_t max_paths) {
  std::vector<Path> out;
  std::vector<char> on_stack(static_cast<std::size_t>(g.num_nodes()), 0);
  Path current;
  dfs_paths(g, s, t, on_stack, current, out, max_paths);
  return out;
}

std::vector<PathFlow> decompose_flow(const Graph& g, NodeId s, NodeId t,
                                     std::span<const double> edge_flow,
                                     double tol) {
  SR_REQUIRE(edge_flow.size() == static_cast<std::size_t>(g.num_edges()),
             "edge flow vector size mismatch");
  std::vector<double> residual(edge_flow.begin(), edge_flow.end());
  for (double f : residual) {
    SR_REQUIRE(f >= -tol, "decompose_flow needs non-negative edge flow");
  }

  std::vector<PathFlow> out;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  // Walk from s along max-residual edges; cancel any cycle encountered.
  for (int guard = 0; guard < 4 * g.num_edges() + 16; ++guard) {
    // Find the first usable edge out of s.
    Path walk;
    std::vector<EdgeId> at_edge(n, kInvalidEdge);  // edge used to *leave* node
    std::vector<int> visit_pos(n, -1);
    NodeId v = s;
    visit_pos[static_cast<std::size_t>(v)] = 0;
    bool restart = false;
    while (v != t) {
      EdgeId best = kInvalidEdge;
      double best_flow = tol;
      for (EdgeId e : g.out_edges(v)) {
        const double f = residual[static_cast<std::size_t>(e)];
        if (f > best_flow) {
          best_flow = f;
          best = e;
        }
      }
      if (best == kInvalidEdge) {
        // No residual leaves v. At the source this means we are done;
        // anywhere else the input flow violates conservation.
        SR_REQUIRE(v == s,
                   "decompose_flow: edge flow violates conservation");
        restart = true;
        break;
      }
      const NodeId w = g.edge(best).head;
      if (visit_pos[static_cast<std::size_t>(w)] >= 0) {
        // Cycle: cancel it (subtract its bottleneck) and restart the walk.
        const int start = visit_pos[static_cast<std::size_t>(w)];
        double bottleneck = best_flow;
        for (std::size_t i = static_cast<std::size_t>(start); i < walk.size();
             ++i) {
          bottleneck =
              std::fmin(bottleneck, residual[static_cast<std::size_t>(walk[i])]);
        }
        residual[static_cast<std::size_t>(best)] -= bottleneck;
        for (std::size_t i = static_cast<std::size_t>(start); i < walk.size();
             ++i) {
          residual[static_cast<std::size_t>(walk[i])] -= bottleneck;
        }
        restart = true;  // retry from scratch with the cycle removed
        break;
      }
      walk.push_back(best);
      visit_pos[static_cast<std::size_t>(w)] = static_cast<int>(walk.size());
      v = w;
    }
    if (restart) {
      if (walk.empty() && v == s) break;  // nothing leaves s anymore
      continue;
    }
    if (walk.empty()) break;
    double bottleneck = kInf;
    for (EdgeId e : walk) {
      bottleneck = std::fmin(bottleneck, residual[static_cast<std::size_t>(e)]);
    }
    if (bottleneck <= tol) break;
    for (EdgeId e : walk) residual[static_cast<std::size_t>(e)] -= bottleneck;
    out.push_back(PathFlow{std::move(walk), bottleneck});
  }
  return out;
}

std::vector<std::vector<PathFlow>> decompose_origin_flow(
    const Graph& g, NodeId origin, std::span<const NodeId> sinks,
    std::span<const double> demands, std::span<const double> edge_flow,
    double scale) {
  const auto ne = static_cast<std::size_t>(g.num_edges());
  const auto nv = static_cast<std::size_t>(g.num_nodes());
  const std::size_t k = sinks.size();
  SR_REQUIRE(edge_flow.size() == ne, "edge flow vector size mismatch");
  SR_REQUIRE(demands.size() == k, "decompose_origin_flow: one demand per sink");
  std::vector<std::vector<PathFlow>> out(k);
  double total = 0.0;
  for (double d : demands) {
    SR_REQUIRE(d >= 0.0, "decompose_origin_flow needs non-negative demands");
    total += d;
  }
  if (!(total > 0.0)) return out;
  if (!(scale > 0.0)) scale = total;
  const double tol = 1e-12 * scale;
  const double drop_limit = 1e-6 * scale;

  std::vector<double> residual(edge_flow.begin(), edge_flow.end());
  for (double& f : residual) {
    SR_REQUIRE(f >= -tol, "decompose_origin_flow needs non-negative flow");
    f = std::fmax(f, 0.0);
  }
  std::vector<double> remaining(demands.begin(), demands.end());
  // Sink slots by node: the first slot at each node, chained by `next`.
  std::vector<int> first(nv, -1);
  std::vector<int> next(k, -1);
  for (std::size_t j = k; j-- > 0;) {
    const auto t = static_cast<std::size_t>(sinks[j]);
    SR_REQUIRE(t < nv, "decompose_origin_flow sink out of range");
    next[j] = first[t];
    first[t] = static_cast<int>(j);
  }

  std::vector<int> visit_pos(nv, -1);
  Path walk;
  double dropped = 0.0;
  for (std::size_t guard = 0; guard < 4 * ne + 2 * k + 16; ++guard) {
    walk.clear();
    NodeId v = origin;
    visit_pos[static_cast<std::size_t>(v)] = 0;
    int absorb = -1;
    bool cycle = false;
    for (;;) {
      if (v != origin) {
        for (int j = first[static_cast<std::size_t>(v)]; j >= 0;
             j = next[static_cast<std::size_t>(j)]) {
          if (remaining[static_cast<std::size_t>(j)] > tol) {
            absorb = j;
            break;
          }
        }
        if (absorb >= 0) break;
      }
      EdgeId best = kInvalidEdge;
      double best_flow = tol;
      for (EdgeId e : g.out_edges(v)) {
        if (residual[static_cast<std::size_t>(e)] > best_flow) {
          best_flow = residual[static_cast<std::size_t>(e)];
          best = e;
        }
      }
      if (best == kInvalidEdge) break;  // dead end (or done, at the origin)
      const NodeId w = g.edge(best).head;
      const int start = visit_pos[static_cast<std::size_t>(w)];
      if (start >= 0) {
        // The walk closed a cycle: cancel it and walk again.
        double bottleneck = best_flow;
        for (std::size_t i = static_cast<std::size_t>(start); i < walk.size();
             ++i) {
          bottleneck = std::fmin(bottleneck,
                                 residual[static_cast<std::size_t>(walk[i])]);
        }
        residual[static_cast<std::size_t>(best)] -= bottleneck;
        for (std::size_t i = static_cast<std::size_t>(start); i < walk.size();
             ++i) {
          residual[static_cast<std::size_t>(walk[i])] -= bottleneck;
        }
        cycle = true;
        break;
      }
      walk.push_back(best);
      visit_pos[static_cast<std::size_t>(w)] = static_cast<int>(walk.size());
      v = w;
    }
    visit_pos[static_cast<std::size_t>(origin)] = -1;
    for (EdgeId e : walk) {
      visit_pos[static_cast<std::size_t>(g.edge(e).head)] = -1;
    }
    if (cycle) continue;
    if (walk.empty()) break;  // nothing usable leaves the origin
    double bottleneck =
        absorb >= 0 ? remaining[static_cast<std::size_t>(absorb)] : kInf;
    for (EdgeId e : walk) {
      bottleneck = std::fmin(bottleneck, residual[static_cast<std::size_t>(e)]);
    }
    for (EdgeId e : walk) residual[static_cast<std::size_t>(e)] -= bottleneck;
    if (absorb >= 0) {
      remaining[static_cast<std::size_t>(absorb)] -= bottleneck;
      out[static_cast<std::size_t>(absorb)].push_back(
          PathFlow{walk, bottleneck});
    } else {
      dropped += bottleneck;
      SR_REQUIRE(dropped <= drop_limit,
                 "decompose_origin_flow: edge flow violates conservation");
    }
  }
  return out;
}

std::vector<double> path_flows_to_edge_flows(const Graph& g,
                                             std::span<const PathFlow> paths) {
  std::vector<double> out(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (const PathFlow& pf : paths) {
    for (EdgeId e : pf.path) {
      SR_REQUIRE(e >= 0 && e < g.num_edges(), "path edge id out of range");
      out[static_cast<std::size_t>(e)] += pf.flow;
    }
  }
  return out;
}

}  // namespace stackroute
