// Content/structure hash correctness (engine/instance.h): equal instances
// hash equal — including across serialize round-trips and generator
// re-runs — and any perturbation of topology, latency parameters or
// demand changes the content hash. The hashes are cache fast paths (the
// engine pairs them with full equality checks), so the property that
// actually matters is "equal values -> equal hashes" plus enough
// collision-freedom that perturbations are detected; these tests pin both.
#include <gtest/gtest.h>

#include <sstream>

#include "stackroute/engine/instance.h"
#include "stackroute/gen/registry.h"
#include "stackroute/io/serialize.h"
#include "stackroute/latency/families.h"
#include "stackroute/util/hash.h"

namespace stackroute::engine {
namespace {

ParallelLinks sample_links() {
  ParallelLinks m;
  m.links = {make_affine(1.0, 0.25), make_mm1(4.0),
             make_shifted(make_linear(2.0), 0.5)};
  m.demand = 1.5;
  return m;
}

NetworkInstance sample_network() {
  Graph g(4);
  g.add_edge(0, 1, make_affine(1.0, 0.0));
  g.add_edge(1, 3, make_bpr(1.0, 2.0));
  g.add_edge(0, 2, make_constant(1.0));
  g.add_edge(2, 3, make_mm1(5.0));
  NetworkInstance inst{std::move(g), {Commodity{0, 3, 2.0}}};
  inst.validate();
  return inst;
}

TEST(StableHashTest, DeterministicAndSensitive) {
  StableHash a;
  a.mix(1);
  a.mix_double(2.5);
  a.mix_string("abc");
  StableHash b;
  b.mix(1);
  b.mix_double(2.5);
  b.mix_string("abc");
  EXPECT_EQ(a.digest(), b.digest());

  StableHash c;
  c.mix(2);
  c.mix_double(2.5);
  c.mix_string("abc");
  EXPECT_NE(a.digest(), c.digest());
}

TEST(StableHashTest, NegativeZeroFoldsToPositive) {
  StableHash a;
  a.mix_double(0.0);
  StableHash b;
  b.mix_double(-0.0);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(StableHashTest, StringBoundariesMatter) {
  // "ab" + "c" must not collide with "a" + "bc": lengths are mixed.
  StableHash a;
  a.mix_string("ab");
  a.mix_string("c");
  StableHash b;
  b.mix_string("a");
  b.mix_string("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(InstanceHashTest, EqualParallelLinksHashEqual) {
  const ParallelLinks a = sample_links();
  const ParallelLinks b = sample_links();  // fresh objects, equal values
  EXPECT_EQ(content_hash(a), content_hash(b));
  EXPECT_EQ(structure_hash(a), structure_hash(b));
}

TEST(InstanceHashTest, SerializeRoundTripPreservesHash) {
  // Serializable kinds only (wrapper chains have no text form); 17-digit
  // serialization must round-trip every parameter bit, so hashes match.
  ParallelLinks a;
  a.links = {make_affine(1.0 / 3.0, 0.1), make_mm1(4.0),
             make_polynomial({0.25, 0.0, 1.0 / 7.0})};
  a.demand = 1.5;
  const ParallelLinks back =
      stackroute::parallel_links_from_string(stackroute::to_string(a));
  EXPECT_EQ(content_hash(a), content_hash(back));

  const NetworkInstance n = sample_network();
  const NetworkInstance nback =
      stackroute::network_from_string(stackroute::to_string(n));
  EXPECT_EQ(content_hash(n), content_hash(nback));
}

TEST(InstanceHashTest, GeneratorRerunHashesEqual) {
  for (const char* family : {"grid-bpr", "parallel-mm1"}) {
    const auto a = gen::generate_sized(family, 0, 1.5, 7);
    const auto b = gen::generate_sized(family, 0, 1.5, 7);
    EXPECT_EQ(content_hash(Instance(a)), content_hash(Instance(b)))
        << family;
    // A different seed draws different parameters.
    const auto c = gen::generate_sized(family, 0, 1.5, 8);
    EXPECT_NE(content_hash(Instance(a)), content_hash(Instance(c)))
        << family;
  }
}

TEST(InstanceHashTest, DemandChangesContentNotStructure) {
  ParallelLinks a = sample_links();
  ParallelLinks b = sample_links();
  b.demand = 2.0;
  EXPECT_EQ(structure_hash(a), structure_hash(b));
  EXPECT_NE(content_hash(a), content_hash(b));

  NetworkInstance n = sample_network();
  NetworkInstance m = sample_network();
  m.commodities[0].demand = 3.0;
  EXPECT_EQ(structure_hash(n), structure_hash(m));
  EXPECT_NE(content_hash(n), content_hash(m));
}

TEST(InstanceHashTest, LatencyParameterPerturbationChangesHash) {
  ParallelLinks a = sample_links();
  ParallelLinks b = sample_links();
  b.links[0] = make_affine(1.0, 0.25 + 1e-12);
  EXPECT_NE(content_hash(a), content_hash(b));
  EXPECT_NE(structure_hash(a), structure_hash(b));
}

TEST(InstanceHashTest, WrapperChainDepthMatters) {
  // shifted(linear(2), 0.5) vs scaled variants with the same params must
  // not collide: the kind tag of every chain level is mixed.
  ParallelLinks a = sample_links();
  ParallelLinks b = sample_links();
  b.links[2] = make_scaled(make_linear(2.0), 0.5);
  EXPECT_NE(content_hash(a), content_hash(b));
}

TEST(InstanceHashTest, TopologyPerturbationChangesHash) {
  const NetworkInstance n = sample_network();

  // Redirect one edge.
  NetworkInstance m = sample_network();
  Graph g(4);
  g.add_edge(0, 1, make_affine(1.0, 0.0));
  g.add_edge(1, 3, make_bpr(1.0, 2.0));
  g.add_edge(0, 2, make_constant(1.0));
  g.add_edge(2, 1, make_mm1(5.0));  // was 2 -> 3
  g.add_edge(1, 3, make_constant(0.0));
  m.graph = std::move(g);
  EXPECT_NE(structure_hash(n), structure_hash(m));
  EXPECT_NE(content_hash(n), content_hash(m));

  // Different commodity endpoints.
  NetworkInstance k = sample_network();
  k.commodities[0].source = 1;
  EXPECT_NE(structure_hash(n), structure_hash(k));
}

TEST(InstanceHashTest, ShapesNeverCollideTrivially) {
  // A one-link system and its two-node network view have different shape
  // tags, so even a contrived match of fields cannot collide by shape.
  ParallelLinks m;
  m.links = {make_affine(1.0, 0.0)};
  m.demand = 1.0;
  const NetworkInstance n = to_network(m);
  EXPECT_NE(content_hash(Instance(m)), content_hash(Instance(n)));
}

TEST(InstanceHashTest, LatencySetHashMatchesEquality) {
  const ParallelLinks a = sample_links();
  const ParallelLinks b = sample_links();
  EXPECT_EQ(latency_set_hash(a.links), latency_set_hash(b.links));
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_TRUE(latency_equal(*a.links[i], *b.links[i]));
  }
}

TEST(WarmCompatibleTest, ValueEqualityIgnoresDemand) {
  ParallelLinks a = sample_links();
  ParallelLinks b = sample_links();
  b.demand = 9.0;
  EXPECT_TRUE(warm_compatible(Instance(a), Instance(b)));

  b.links[1] = make_mm1(4.5);
  EXPECT_FALSE(warm_compatible(Instance(a), Instance(b)));
}

TEST(WarmCompatibleTest, NetworkEndpointsChecked) {
  const NetworkInstance n = sample_network();
  NetworkInstance m = sample_network();
  m.commodities[0].demand = 5.0;
  EXPECT_TRUE(warm_compatible(Instance(n), Instance(m)));
  m.commodities[0].sink = 1;
  EXPECT_FALSE(warm_compatible(Instance(n), Instance(m)));
}

}  // namespace
}  // namespace stackroute::engine
