// Property test: serialization round-trips are exact. Instances drawn
// from every gen/ family are written to text and re-read; topology and
// demands must match exactly and latency parameters bitwise (the writers
// emit 17 significant digits, which round-trips IEEE doubles exactly).
#include <gtest/gtest.h>

#include <cstring>
#include <variant>

#include "stackroute/gen/registry.h"
#include "stackroute/io/serialize.h"
#include "stackroute/util/error.h"

namespace stackroute {
namespace {

/// a == b bit for bit (works for every non-NaN double the writers emit).
bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_latency(const LatencyFunction& a, const LatencyFunction& b,
                         const std::string& context) {
  EXPECT_EQ(a.kind(), b.kind()) << context;
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size()) << context;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(bit_equal(pa[i], pb[i]))
        << context << " param " << i << ": " << pa[i] << " vs " << pb[i];
  }
}

void expect_roundtrip(const ParallelLinks& m, const std::string& context) {
  const ParallelLinks back = parallel_links_from_string(to_string(m));
  ASSERT_EQ(back.size(), m.size()) << context;
  EXPECT_TRUE(bit_equal(back.demand, m.demand)) << context;
  for (std::size_t i = 0; i < m.size(); ++i) {
    expect_same_latency(*m.links[i], *back.links[i],
                        context + " link " + std::to_string(i));
  }
}

void expect_roundtrip(const NetworkInstance& inst,
                      const std::string& context) {
  const NetworkInstance back = network_from_string(to_string(inst));
  ASSERT_EQ(back.graph.num_nodes(), inst.graph.num_nodes()) << context;
  ASSERT_EQ(back.graph.num_edges(), inst.graph.num_edges()) << context;
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const Edge& ea = inst.graph.edge(e);
    const Edge& eb = back.graph.edge(e);
    EXPECT_EQ(ea.tail, eb.tail) << context << " edge " << e;
    EXPECT_EQ(ea.head, eb.head) << context << " edge " << e;
    expect_same_latency(*ea.latency, *eb.latency,
                        context + " edge " + std::to_string(e));
  }
  ASSERT_EQ(back.commodities.size(), inst.commodities.size()) << context;
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    EXPECT_EQ(back.commodities[i].source, inst.commodities[i].source);
    EXPECT_EQ(back.commodities[i].sink, inst.commodities[i].sink);
    EXPECT_TRUE(
        bit_equal(back.commodities[i].demand, inst.commodities[i].demand))
        << context;
  }
}

TEST(SerializeRoundtrip, EveryGeneratorFamilyAtManySeeds) {
  for (const auto& info : gen::generator_registry()) {
    gen::GeneratorSpec spec;
    spec.family = info.name;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const auto context = info.name + " seed " + std::to_string(seed);
      const gen::GeneratedInstance inst = gen::generate(spec, seed);
      if (const auto* m = std::get_if<ParallelLinks>(&inst)) {
        expect_roundtrip(*m, context);
      } else {
        expect_roundtrip(std::get<NetworkInstance>(inst), context);
      }
    }
  }
}

TEST(SerializeRoundtrip, TextIsAFixedPoint) {
  // Reading a document the writer produced and writing it again gives the
  // same bytes: nothing is lost or reformatted on the way through.
  for (const auto& info : gen::generator_registry()) {
    gen::GeneratorSpec spec;
    spec.family = info.name;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const gen::GeneratedInstance inst = gen::generate(spec, seed);
      if (const auto* m = std::get_if<ParallelLinks>(&inst)) {
        const std::string text = to_string(*m);
        EXPECT_EQ(to_string(parallel_links_from_string(text)), text)
            << info.name << " seed " << seed;
      } else {
        const std::string text = to_string(std::get<NetworkInstance>(inst));
        EXPECT_EQ(to_string(network_from_string(text)), text)
            << info.name << " seed " << seed;
      }
    }
  }
}

TEST(SerializeRoundtrip, AwkwardDemandsSurvive) {
  // Denormal-adjacent and long-mantissa demands stress the 17-digit path.
  for (double demand :
       {1.0 / 3.0, 0.1, 1e-12, 12345.678901234567, 2.2250738585072014e-308}) {
    gen::GeneratorSpec spec;
    spec.family = "parallel-affine";
    spec.params["demand"] = demand;
    const auto inst = gen::generate(spec, 5);
    expect_roundtrip(std::get<ParallelLinks>(inst),
                     "demand " + std::to_string(demand));
  }
}

}  // namespace
}  // namespace stackroute
