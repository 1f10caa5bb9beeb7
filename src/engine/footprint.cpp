#include "stackroute/engine/footprint.h"

#include "stackroute/engine/session.h"

namespace stackroute::engine {

namespace {

template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::size_t footprint_bytes(const ParallelLinks& m) {
  return sizeof(m) + vec_bytes(m.links);
}

std::size_t footprint_bytes(const NetworkInstance& inst) {
  return sizeof(inst) - sizeof(Graph) + inst.graph.footprint_bytes() +
         vec_bytes(inst.commodities);
}

std::size_t footprint_bytes(const Instance& inst) {
  if (const auto* m = std::get_if<ParallelLinks>(&inst)) {
    return footprint_bytes(*m);
  }
  return footprint_bytes(std::get<NetworkInstance>(inst));
}

std::size_t footprint_bytes(const DijkstraWorkspace& ws) {
  return vec_bytes(ws.tree.dist) + vec_bytes(ws.tree.parent_edge) +
         vec_bytes(ws.heap);
}

std::size_t footprint_bytes(const BushWorkspace& bw) {
  std::size_t bytes = vec_bytes(bw.pos) + vec_bytes(bw.depth) +
                      vec_bytes(bw.dmin) + vec_bytes(bw.dmax) +
                      vec_bytes(bw.pmin) + vec_bytes(bw.pmax) +
                      vec_bytes(bw.indeg) + vec_bytes(bw.queue) +
                      vec_bytes(bw.chain) + vec_bytes(bw.total_flow) +
                      vec_bytes(bw.seg_max) + vec_bytes(bw.seg_min) +
                      vec_bytes(bw.tail) + vec_bytes(bw.head) +
                      vec_bytes(bw.state) + vec_bytes(bw.in_arcs);
  for (const OriginBush& b : bw.state) bytes += b.footprint_bytes();
  for (const CsrAdjacency& arcs : bw.in_arcs) {
    bytes += vec_bytes(arcs.offsets) + vec_bytes(arcs.arcs);
  }
  return bytes;
}

std::size_t footprint_bytes(const SolverWorkspace& ws) {
  return sizeof(ws) + ws.table.footprint_bytes() +
         footprint_bytes(ws.dijkstra) +
         vec_bytes(ws.costs) + vec_bytes(ws.dists) +
         vec_bytes(ws.path_scratch) + vec_bytes(ws.delta_mask) +
         vec_bytes(ws.weights) + footprint_bytes(ws.bush);
}

std::size_t footprint_bytes(const OpTopWarmStart& warm) {
  return vec_bytes(warm.round_levels);
}

std::size_t footprint_bytes(const SolveSession& session) {
  std::size_t bytes = sizeof(session) - sizeof(SolverWorkspace) +
                      footprint_bytes(session.ws) +
                      footprint_bytes(session.optop);
  for (const WarmEntry& entry : session.warm) {
    bytes += entry.payload.footprint_bytes();
  }
  // The anchor instance holds memory even after reset_warm flips has_prev
  // off (the payload is dropped, the buffers may not be) — count what is
  // actually retained.
  bytes += footprint_bytes(session.prev_instance);
  return bytes;
}

}  // namespace stackroute::engine
