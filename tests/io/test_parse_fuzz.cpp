// Seeded mutation fuzzing of the instance readers. Byte flips, truncations
// and line splices are applied to serialized fig4 / fig7 / grid-bpr
// instances and to the committed TNTP files, on a fixed budget. Every
// mutant must either parse into an instance that passes validate() and
// round-trips bitwise, or throw stackroute::Error whose message names a
// line of the mutant ("line N: ..."). Any other exception fails the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <variant>
#include <vector>

#include "stackroute/gen/registry.h"
#include "stackroute/io/serialize.h"
#include "stackroute/io/tntp.h"
#include "stackroute/network/generators.h"
#include "stackroute/sweep/scenario.h"
#include "stackroute/util/error.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

std::string read_example(const std::string& name) {
  std::ifstream in(std::string(STACKROUTE_SOURCE_DIR) + "/examples/instances/" +
                   name);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t eol = text.find('\n', start);
    const std::size_t end = eol == std::string::npos ? text.size() : eol + 1;
    lines.push_back(text.substr(start, end - start));
    start = end;
  }
  return lines;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Bytes a reader gives meaning to, so replacements hit the grammar.
constexpr char kInteresting[] = "0123456789-+.eE \t\n\r#~;:<>naif";

/// One to three random edits of `text`.
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int k = 0; k < edits && !out.empty(); ++k) {
    switch (rng.uniform_int(0, 5)) {
      case 0:  // flip one bit
        out[pick(rng, out.size())] ^= static_cast<char>(1 << pick(rng, 8));
        break;
      case 1:  // overwrite a byte with one the grammar reads
        out[pick(rng, out.size())] =
            kInteresting[pick(rng, sizeof kInteresting - 1)];
        break;
      case 2:  // truncate
        out.resize(pick(rng, out.size()));
        break;
      case 3:  // join a line to the next one
        if (const auto eol = out.find('\n', pick(rng, out.size()));
            eol != std::string::npos) {
          out.erase(eol, 1);
        }
        break;
      default: {  // duplicate, delete or move a whole line
        std::vector<std::string> lines = split_lines(out);
        const std::size_t from = pick(rng, lines.size());
        const std::size_t to = pick(rng, lines.size());
        const std::string line = lines[from];
        const auto kind = rng.uniform_int(0, 2);
        if (kind != 0) lines.erase(lines.begin() + static_cast<long>(from));
        if (kind != 1) {
          lines.insert(lines.begin() + static_cast<long>(
                                           std::min(to, lines.size())),
                       line);
        }
        out.clear();
        for (const std::string& l : lines) out += l;
      }
    }
  }
  return out;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same(const LatencyFunction& a, const LatencyFunction& b) {
  ASSERT_EQ(a.kind(), b.kind());
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(bit_equal(pa[i], pb[i])) << pa[i] << " vs " << pb[i];
  }
}

/// validate() passes, and writing then reading gives the same instance
/// bit for bit and the same text byte for byte.
void expect_round_trip(const ParallelLinks& m) {
  m.validate();
  const std::string text = to_string(m);
  const ParallelLinks back = parallel_links_from_string(text);
  EXPECT_TRUE(bit_equal(back.demand, m.demand));
  ASSERT_EQ(back.size(), m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    expect_same(*m.links[i], *back.links[i]);
  }
  EXPECT_EQ(to_string(back), text);
}

void expect_round_trip(const NetworkInstance& inst) {
  inst.validate();
  const std::string text = to_string(inst);
  const NetworkInstance back = network_from_string(text);
  ASSERT_EQ(back.graph.num_nodes(), inst.graph.num_nodes());
  ASSERT_EQ(back.graph.num_edges(), inst.graph.num_edges());
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    EXPECT_EQ(back.graph.edge(e).tail, inst.graph.edge(e).tail);
    EXPECT_EQ(back.graph.edge(e).head, inst.graph.edge(e).head);
    expect_same(*inst.graph.edge(e).latency, *back.graph.edge(e).latency);
  }
  ASSERT_EQ(back.commodities.size(), inst.commodities.size());
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    EXPECT_EQ(back.commodities[i].source, inst.commodities[i].source);
    EXPECT_EQ(back.commodities[i].sink, inst.commodities[i].sink);
    EXPECT_TRUE(
        bit_equal(back.commodities[i].demand, inst.commodities[i].demand));
  }
  EXPECT_EQ(to_string(back), text);
}

/// "line N: ..." with 0 <= N <= the mutant's line count.
void expect_names_a_line(const std::string& what, const std::string& mutant) {
  int line = -1;
  char colon = '\0';
  ASSERT_EQ(std::sscanf(what.c_str(), "line %d%c", &line, &colon), 2) << what;
  EXPECT_EQ(colon, ':') << what;
  const auto lines =
      std::count(mutant.begin(), mutant.end(), '\n') +
      (mutant.empty() || mutant.back() == '\n' ? 0 : 1);
  EXPECT_GE(line, 0) << what;
  EXPECT_LE(line, lines) << what;
}

struct Outcome {
  int parsed = 0;
  int rejected = 0;
};

/// Runs `parse` on `budget` mutants of `seed_text`.
Outcome fuzz(const std::string& seed_text, std::uint64_t seed, int budget,
             const std::function<void(const std::string&)>& parse) {
  Rng rng(seed);
  Outcome out;
  for (int i = 0; i < budget; ++i) {
    const std::string mutant = mutate(seed_text, rng);
    SCOPED_TRACE("mutant " + std::to_string(i) + ":\n" + mutant);
    try {
      parse(mutant);
      ++out.parsed;
    } catch (const Error& e) {
      expect_names_a_line(e.what(), mutant);
      ++out.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped " << typeid(e).name() << ": " << e.what();
    }
    if (::testing::Test::HasFailure()) break;  // one report is enough
  }
  // The budget must exercise both outcomes, or it tests nothing.
  EXPECT_GT(out.parsed, 0);
  EXPECT_GT(out.rejected, 0);
  return out;
}

/// Parses with `parse` and checks what it returns with `check`; only the
/// parse may throw stackroute::Error.
template <class Parse, class Check>
void parse_then(const Parse& parse, const Check& check) {
  const auto parsed = parse();
  try {
    check(parsed);
  } catch (const Error& e) {
    ADD_FAILURE() << "parsed, then failed its checks: " << e.what();
  }
}

void parse_instance_text(const std::string& text) {
  parse_then([&] { return sweep::load_instance_text(text); },
             [](const sweep::Instance& inst) {
               std::visit([](const auto& i) { expect_round_trip(i); }, inst);
             });
}

TEST(ParseFuzz, SerializedFig4) {
  fuzz(to_string(fig4_instance()), 1, 3000, parse_instance_text);
}

TEST(ParseFuzz, SerializedFig7) {
  fuzz(to_string(fig7_instance(0.05)), 2, 3000, parse_instance_text);
}

TEST(ParseFuzz, SerializedGridBpr) {
  const auto grid = gen::generate_sized("grid-bpr", 10, 1.0, 7);
  fuzz(to_string(std::get<NetworkInstance>(grid)), 3, 600,
       parse_instance_text);
}

/// A parsed `_net.tntp` mutant carries no demand: route one unit along
/// its first edge, which is always a valid commodity.
void parse_tntp_network(const std::string& text) {
  parse_then(
      [&] {
        std::istringstream is(text);
        return read_tntp_network(is);
      },
      [](NetworkInstance net) {
        const Edge& first = net.graph.edge(0);
        net.commodities.push_back(Commodity{first.tail, first.head, 1.0});
        expect_round_trip(net);
      });
}

TEST(ParseFuzz, SiouxFallsNet) {
  fuzz(read_example("SiouxFalls_net.tntp"), 4, 1000, parse_tntp_network);
}

TEST(ParseFuzz, AnaheimNet) {
  fuzz(read_example("Anaheim_net.tntp"), 5, 150, parse_tntp_network);
}

TEST(ParseFuzz, AnaheimTrips) {
  fuzz(read_example("Anaheim_trips.tntp"), 6, 600, [](const std::string& t) {
    TntpMetadata meta;
    parse_then(
        [&] {
          std::istringstream is(t);
          return read_tntp_trips(is, &meta);
        },
        [&](const std::vector<Commodity>& trips) {
          for (const Commodity& c : trips) {
            EXPECT_GE(c.source, 0);
            EXPECT_GE(c.sink, 0);
            EXPECT_NE(c.source, c.sink);
            EXPECT_TRUE(std::isfinite(c.demand) && c.demand > 0.0)
                << c.demand;
            if (meta.num_zones > 0) {
              EXPECT_LT(c.source, meta.num_zones);
              EXPECT_LT(c.sink, meta.num_zones);
            }
          }
        });
  });
}

}  // namespace
}  // namespace stackroute
