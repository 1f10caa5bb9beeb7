#include "stackroute/network/maxflow.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>

#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {

namespace {

// Residual arc: each added arc becomes a (cap, 0) pair; arc ^1 is the mate.
struct Arc {
  NodeId to;
  double residual;
  double cap;
  std::int64_t tag;  // caller's index for forward arcs, -1 for backward
};

class Dinic {
 public:
  Dinic(std::size_t num_nodes, double tol) : tol_(tol), head_(num_nodes) {}

  /// Adds tail→head with capacity `cap` (skipped when cap <= tol); `tag`
  /// is reported back by flows().
  void add_arc(NodeId tail, NodeId head, double cap, std::int64_t tag) {
    SR_REQUIRE(cap >= 0.0, "max_flow needs non-negative capacities");
    if (cap <= tol_) return;
    head_[static_cast<std::size_t>(tail)].push_back(
        static_cast<int>(arcs_.size()));
    arcs_.push_back(Arc{head, cap, cap, tag});
    head_[static_cast<std::size_t>(head)].push_back(
        static_cast<int>(arcs_.size()));
    arcs_.push_back(Arc{tail, 0.0, 0.0, -1});
  }

  /// Adds every edge of g, tagged by EdgeId.
  void add_graph(const Graph& g, std::span<const double> capacity) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      add_arc(edge.tail, edge.head, capacity[static_cast<std::size_t>(e)], e);
    }
  }

  double run(NodeId s, NodeId t, double limit) {
    double total = 0.0;
    while (total < limit && bfs(s, t)) {
      iter_.assign(head_.size(), 0);
      while (true) {
        const double pushed = dfs(s, t, limit - total);
        if (pushed <= tol_) break;
        total += pushed;
        if (total >= limit) break;
      }
    }
    return total;
  }

  /// Flow on each arc added with tag in [0, out.size()) after run():
  /// out[tag] = cap − residual. Untouched entries keep their value.
  void flows(std::span<double> out) const {
    for (std::size_t a = 0; a < arcs_.size(); a += 2) {
      const std::int64_t tag = arcs_[a].tag;
      if (tag >= 0 && static_cast<std::size_t>(tag) < out.size()) {
        out[static_cast<std::size_t>(tag)] = arcs_[a].cap - arcs_[a].residual;
      }
    }
  }

 private:
  bool bfs(NodeId s, NodeId t) {
    level_.assign(head_.size(), -1);
    std::queue<NodeId> q;
    level_[static_cast<std::size_t>(s)] = 0;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      for (int a : head_[static_cast<std::size_t>(v)]) {
        const Arc& arc = arcs_[static_cast<std::size_t>(a)];
        if (arc.residual > tol_ &&
            level_[static_cast<std::size_t>(arc.to)] < 0) {
          level_[static_cast<std::size_t>(arc.to)] =
              level_[static_cast<std::size_t>(v)] + 1;
          q.push(arc.to);
        }
      }
    }
    return level_[static_cast<std::size_t>(t)] >= 0;
  }

  double dfs(NodeId v, NodeId t, double pushed) {
    if (v == t || pushed <= tol_) return pushed;
    auto& it = iter_[static_cast<std::size_t>(v)];
    for (; it < static_cast<int>(head_[static_cast<std::size_t>(v)].size());
         ++it) {
      const int a = head_[static_cast<std::size_t>(v)][static_cast<std::size_t>(it)];
      Arc& arc = arcs_[static_cast<std::size_t>(a)];
      if (arc.residual <= tol_ ||
          level_[static_cast<std::size_t>(arc.to)] !=
              level_[static_cast<std::size_t>(v)] + 1) {
        continue;
      }
      const double d = dfs(arc.to, t, std::fmin(pushed, arc.residual));
      if (d > tol_) {
        arc.residual -= d;
        arcs_[static_cast<std::size_t>(a ^ 1)].residual += d;
        return d;
      }
    }
    return 0.0;
  }

  double tol_;
  std::vector<Arc> arcs_;
  std::vector<std::vector<int>> head_;
  std::vector<int> level_;
  std::vector<int> iter_;
};

}  // namespace

MaxFlowResult max_flow(const Graph& g, NodeId s, NodeId t,
                       std::span<const double> capacity, double limit,
                       double tol) {
  SR_REQUIRE(capacity.size() == static_cast<std::size_t>(g.num_edges()),
             "capacity vector size mismatch");
  SR_REQUIRE(s >= 0 && s < g.num_nodes() && t >= 0 && t < g.num_nodes(),
             "max_flow endpoints out of range");
  SR_REQUIRE(s != t, "max_flow needs s != t");
  SR_REQUIRE(limit >= 0.0, "max_flow needs limit >= 0");
  Dinic dinic(static_cast<std::size_t>(g.num_nodes()), tol);
  dinic.add_graph(g, capacity);
  MaxFlowResult result;
  result.value = dinic.run(s, t, limit);
  result.edge_flow.assign(capacity.size(), 0.0);
  dinic.flows(result.edge_flow);
  return result;
}

MaxFlowResult max_flow_to_sinks(const Graph& g, NodeId s,
                                std::span<const NodeId> sinks,
                                std::span<const double> limits,
                                std::span<const double> capacity, double tol) {
  SR_REQUIRE(capacity.size() == static_cast<std::size_t>(g.num_edges()),
             "capacity vector size mismatch");
  SR_REQUIRE(sinks.size() == limits.size(),
             "max_flow_to_sinks needs one limit per sink");
  SR_REQUIRE(s >= 0 && s < g.num_nodes(), "max_flow source out of range");
  const auto ne = static_cast<std::size_t>(g.num_edges());
  const NodeId super_sink = g.num_nodes();
  Dinic dinic(static_cast<std::size_t>(g.num_nodes()) + 1, tol);
  dinic.add_graph(g, capacity);
  for (std::size_t j = 0; j < sinks.size(); ++j) {
    SR_REQUIRE(sinks[j] >= 0 && sinks[j] < g.num_nodes() && sinks[j] != s,
               "max_flow_to_sinks sink out of range or equal to the source");
    SR_REQUIRE(limits[j] >= 0.0, "max_flow_to_sinks needs limits >= 0");
    dinic.add_arc(sinks[j], super_sink, limits[j],
                  static_cast<std::int64_t>(ne + j));
  }
  MaxFlowResult result;
  result.value = dinic.run(s, super_sink, kInf);
  std::vector<double> all(ne + sinks.size(), 0.0);
  dinic.flows(all);
  const auto split = all.begin() + static_cast<std::ptrdiff_t>(ne);
  result.edge_flow.assign(all.begin(), split);
  result.sink_flow.assign(split, all.end());
  return result;
}

}  // namespace stackroute
