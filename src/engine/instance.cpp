#include "stackroute/engine/instance.h"

#include "stackroute/latency/families.h"

namespace stackroute::engine {

bool latency_equal(const LatencyFunction& a, const LatencyFunction& b) {
  if (&a == &b) return true;
  if (a.kind() != b.kind()) return false;
  const std::vector<double> pa = a.params();
  const std::vector<double> pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    // Bit-pattern equality (modulo the zero fold), matching mix_double: a
    // parameter change that flips the hash must also fail this test and
    // vice versa.
    if (pa[i] != pb[i] && !(pa[i] == 0.0 && pb[i] == 0.0)) return false;
  }
  const LatencyFunction* ba = peel_wrapper(a).base;
  const LatencyFunction* bb = peel_wrapper(b).base;
  if ((ba == nullptr) != (bb == nullptr)) return false;
  return ba == nullptr || latency_equal(*ba, *bb);
}

bool warm_compatible(const Instance& prev, const Instance& cur) {
  if (prev.index() != cur.index()) return false;
  if (const auto* a = std::get_if<ParallelLinks>(&prev)) {
    const auto& b = std::get<ParallelLinks>(cur);
    if (a->links.size() != b.links.size()) return false;
    for (std::size_t i = 0; i < a->links.size(); ++i) {
      if (!latency_equal(*a->links[i], *b.links[i])) return false;
    }
    return true;
  }
  const auto& a = std::get<NetworkInstance>(prev);
  const auto& b = std::get<NetworkInstance>(cur);
  const Graph& ga = a.graph;
  const Graph& gb = b.graph;
  if (ga.num_nodes() != gb.num_nodes() || ga.num_edges() != gb.num_edges()) {
    return false;
  }
  for (EdgeId e = 0; e < ga.num_edges(); ++e) {
    const Edge& ea = ga.edge(e);
    const Edge& eb = gb.edge(e);
    if (ea.tail != eb.tail || ea.head != eb.head ||
        !latency_equal(*ea.latency, *eb.latency)) {
      return false;
    }
  }
  if (a.commodities.size() != b.commodities.size()) return false;
  for (std::size_t i = 0; i < a.commodities.size(); ++i) {
    if (a.commodities[i].source != b.commodities[i].source ||
        a.commodities[i].sink != b.commodities[i].sink) {
      return false;
    }
  }
  return true;
}

void mix_latency(StableHash& h, const LatencyFunction& f) {
  h.mix(static_cast<std::uint64_t>(f.kind()));
  const std::vector<double> params = f.params();
  h.mix(params.size());
  for (const double p : params) h.mix_double(p);
  if (const LatencyFunction* base = peel_wrapper(f).base) {
    mix_latency(h, *base);
  } else {
    // Terminator word: a wrapper chain and its flattened lookalike (e.g.
    // Shifted(Affine) vs a 3-parameter custom class reusing the kind tag)
    // end their streams differently.
    h.mix(0x746f705f6c617973ULL);
  }
}

std::uint64_t latency_set_hash(std::span<const LatencyPtr> lats) {
  StableHash h;
  h.mix(lats.size());
  for (const LatencyPtr& lat : lats) mix_latency(h, *lat);
  return h.digest();
}

namespace {

/// Everything but the demands, streamed into `h`. The variant index leads
/// so a one-commodity two-node network can never collide with the
/// parallel-links view of the same system.
void mix_structure(StableHash& h, const ParallelLinks& m) {
  h.mix(0);  // shape tag: variant alternative 0
  h.mix(m.links.size());
  for (const LatencyPtr& lat : m.links) mix_latency(h, *lat);
}

void mix_structure(StableHash& h, const NetworkInstance& inst) {
  h.mix(1);  // shape tag: variant alternative 1
  const Graph& g = inst.graph;
  h.mix(g.num_nodes());
  h.mix(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    h.mix(static_cast<std::uint64_t>(ed.tail));
    h.mix(static_cast<std::uint64_t>(ed.head));
    mix_latency(h, *ed.latency);
  }
  h.mix(inst.commodities.size());
  for (const Commodity& c : inst.commodities) {
    h.mix(static_cast<std::uint64_t>(c.source));
    h.mix(static_cast<std::uint64_t>(c.sink));
  }
}

}  // namespace

std::uint64_t structure_hash(const ParallelLinks& m) {
  StableHash h;
  mix_structure(h, m);
  return h.digest();
}

std::uint64_t structure_hash(const NetworkInstance& inst) {
  StableHash h;
  mix_structure(h, inst);
  return h.digest();
}

std::uint64_t structure_hash(const Instance& inst) {
  return std::visit([](const auto& m) { return structure_hash(m); }, inst);
}

std::uint64_t content_hash(const ParallelLinks& m) {
  StableHash h;
  mix_structure(h, m);
  h.mix_double(m.demand);
  return h.digest();
}

std::uint64_t content_hash(const NetworkInstance& inst) {
  StableHash h;
  mix_structure(h, inst);
  for (const Commodity& c : inst.commodities) h.mix_double(c.demand);
  return h.digest();
}

std::uint64_t content_hash(const Instance& inst) {
  return std::visit([](const auto& m) { return content_hash(m); }, inst);
}

}  // namespace stackroute::engine
