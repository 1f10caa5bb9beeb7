// Table formatting and instance (de)serialization round-trips.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "stackroute/equilibrium/network.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/io/serialize.h"
#include "stackroute/io/table.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(1.0), "1.0");
  EXPECT_EQ(format_double(4.0 / 3.0, 4), "1.3333");
  EXPECT_EQ(format_double(-2.25), "-2.25");
}

TEST(FormatDouble, HandlesSpecials) {
  EXPECT_EQ(format_double(kInf), "inf");
  EXPECT_EQ(format_double(-kInf), "-inf");
  EXPECT_EQ(format_double(std::nan("")), "nan");
}

TEST(Table, MarkdownLayout) {
  Table t({"link", "flow"});
  t.add_row({"M1", "0.35"});
  t.add_row({"M2", "0.2333"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| link | flow   |"), std::string::npos);
  EXPECT_NE(md.find("| M1   | 0.35   |"), std::string::npos);
  EXPECT_NE(md.find("|------|--------|"), std::string::npos);
}

TEST(Table, CsvLayout) {
  Table t({"a", "b"});
  t.add_numeric_row({1.0, 0.5});
  EXPECT_EQ(t.to_csv(), "a,b\n1.0,0.5\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Table, DuplicateHeadersThrow) {
  EXPECT_THROW(Table({"x", "y", "x"}), Error);
}

TEST(Table, JsonLayout) {
  Table t({"link", "beta"});
  t.add_row({"M1", "0.5"});
  t.add_row({"say \"hi\"", "nan"});
  const std::string json = t.to_json();
  // Numeric cells unquoted; nan and free text quoted (and escaped).
  EXPECT_NE(json.find("\"beta\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"link\": \"M1\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\": \"nan\""), std::string::npos);
  EXPECT_NE(json.find("\"say \\\"hi\\\"\""), std::string::npos);
}

TEST(Table, JsonEmptyTable) {
  EXPECT_EQ(Table({"a"}).to_json(), "[\n]\n");
}

TEST(Table, JsonOnlyEmitsStrictNumbersUnquoted) {
  // strtod accepts these, RFC 8259 does not: they must stay strings.
  Table t({"a", "b", "c", "d", "e"});
  t.add_row({"+5", ".5", "1.", "0x1A", "01"});
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"a\": \"+5\""), std::string::npos);
  EXPECT_NE(json.find("\"b\": \".5\""), std::string::npos);
  EXPECT_NE(json.find("\"c\": \"1.\""), std::string::npos);
  EXPECT_NE(json.find("\"d\": \"0x1A\""), std::string::npos);
  EXPECT_NE(json.find("\"e\": \"01\""), std::string::npos);
  // Valid JSON numbers stay bare, including exponent forms.
  Table n({"x", "y", "z"});
  n.add_row({"-2.25", "1e-9", "0.5"});
  const std::string bare = n.to_json();
  EXPECT_NE(bare.find("\"x\": -2.25"), std::string::npos);
  EXPECT_NE(bare.find("\"y\": 1e-9"), std::string::npos);
  EXPECT_NE(bare.find("\"z\": 0.5"), std::string::npos);
}

TEST(Table, JsonEscapesControlCharacters) {
  Table t({"a"});
  t.add_row({std::string("esc\x1b") + "\x01" "end"});
  const std::string json = t.to_json();
  EXPECT_NE(json.find("esc\\u001b\\u0001end"), std::string::npos);
}

TEST(Serialize, ParallelLinksFileRoundTrip) {
  // Through a real file, as sweep specs load instances from disk.
  const std::string path = "io_test_roundtrip.links";
  const ParallelLinks m = fig4_instance();
  {
    std::ofstream out(path);
    write_instance(out, m);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const ParallelLinks back = read_parallel_links(in);
  ASSERT_EQ(back.size(), m.size());
  EXPECT_DOUBLE_EQ(back.demand, m.demand);
  EXPECT_NEAR(price_of_anarchy(back), price_of_anarchy(m), 1e-12);
}

TEST(Serialize, NetworkFileRoundTrip) {
  const std::string path = "io_test_roundtrip.net";
  const NetworkInstance inst = braess_classic();
  {
    std::ofstream out(path);
    write_instance(out, inst);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const NetworkInstance back = read_network(in);
  EXPECT_EQ(back.graph.num_edges(), inst.graph.num_edges());
  const NetworkAssignment a = solve_nash(inst);
  const NetworkAssignment b = solve_nash(back);
  EXPECT_NEAR(max_abs_diff(a.edge_flow, b.edge_flow), 0.0, 1e-9);
}

TEST(Serialize, ParallelLinksRoundTrip) {
  const ParallelLinks m = fig4_instance();
  const ParallelLinks back = parallel_links_from_string(to_string(m));
  ASSERT_EQ(back.size(), m.size());
  EXPECT_DOUBLE_EQ(back.demand, m.demand);
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (double x : {0.0, 0.25, 0.7, 1.3}) {
      EXPECT_DOUBLE_EQ(back.links[i]->value(x), m.links[i]->value(x));
    }
  }
  // Equilibrium of the round-tripped instance is identical.
  const LinkAssignment a = solve_nash(m);
  const LinkAssignment b = solve_nash(back);
  EXPECT_NEAR(max_abs_diff(a.flows, b.flows), 0.0, 1e-12);
}

TEST(Serialize, NetworkRoundTrip) {
  const NetworkInstance inst = fig7_instance(0.05);
  const NetworkInstance back = network_from_string(to_string(inst));
  EXPECT_EQ(back.graph.num_nodes(), inst.graph.num_nodes());
  EXPECT_EQ(back.graph.num_edges(), inst.graph.num_edges());
  ASSERT_EQ(back.commodities.size(), 1u);
  EXPECT_DOUBLE_EQ(back.commodities[0].demand, 1.0);
  const NetworkAssignment a = solve_optimum(inst);
  const NetworkAssignment b = solve_optimum(back);
  EXPECT_NEAR(max_abs_diff(a.edge_flow, b.edge_flow), 0.0, 1e-9);
}

TEST(Serialize, MulticommodityRoundTrip) {
  Rng rng(200);
  const NetworkInstance inst = grid_city_multicommodity(rng, 3, 3, 3, 0.2, 0.6);
  const NetworkInstance back = network_from_string(to_string(inst));
  ASSERT_EQ(back.commodities.size(), inst.commodities.size());
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    EXPECT_EQ(back.commodities[i].source, inst.commodities[i].source);
    EXPECT_EQ(back.commodities[i].sink, inst.commodities[i].sink);
    EXPECT_DOUBLE_EQ(back.commodities[i].demand, inst.commodities[i].demand);
  }
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a Pigou instance\n"
      "parallel_links 1\n"
      "\n"
      "link affine 1 0\n"
      "# the slow constant link\n"
      "link constant 1\n";
  const ParallelLinks m = parallel_links_from_string(text);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_NEAR(price_of_anarchy(m), 4.0 / 3.0, 1e-9);
}

TEST(Serialize, MalformedDocumentsThrow) {
  EXPECT_THROW(parallel_links_from_string(""), Error);
  EXPECT_THROW(parallel_links_from_string("network 3\n"), Error);
  EXPECT_THROW(parallel_links_from_string("parallel_links 1\nlink bogus 1\n"),
               Error);
  EXPECT_THROW(network_from_string("network 2\nedge 0 1 affine 1\n"),
               Error);  // affine takes 2 params
  EXPECT_THROW(network_from_string("network 2\nfrobnicate\n"), Error);
  // Structurally invalid: no commodity.
  EXPECT_THROW(network_from_string("network 2\nedge 0 1 affine 1 0\n"),
               Error);
}

void expect_error_mentions(const std::function<void()>& fn,
                           std::initializer_list<const char*> fragments) {
  try {
    fn();
    FAIL() << "expected stackroute::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    for (const char* fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "missing '" << fragment << "' in: " << what;
    }
  }
}

TEST(Serialize, TrailingGarbageRejectedWithLineNumber) {
  // The old parameter loop stopped at the first non-numeric token, so
  // 'link affine 1.0 2.0 oops' parsed as a valid 2-parameter link.
  expect_error_mentions(
      [] {
        parallel_links_from_string(
            "parallel_links 1\nlink affine 1 0\nlink affine 1.0 2.0 oops\n");
      },
      {"line 3", "oops"});
  // Physical line numbers count comments and blank lines.
  expect_error_mentions(
      [] {
        parallel_links_from_string(
            "# header comment\n\nparallel_links 1\n"
            "link affine 1 0\nlink constant 1 garbage\n");
      },
      {"line 5", "garbage"});
  expect_error_mentions(
      [] { parallel_links_from_string("parallel_links 1 extra\nlink affine 1 0\n"); },
      {"line 1", "extra"});
  expect_error_mentions(
      [] {
        network_from_string(
            "network 2\nedge 0 1 affine 1 0\ncommodity 0 1 1.0 junk\n");
      },
      {"line 3", "junk"});
  expect_error_mentions(
      [] {
        network_from_string(
            "network 2\nedge 0 1 affine 1 0 stray\ncommodity 0 1 1\n");
      },
      {"line 2", "stray"});
}

TEST(Serialize, BadKindsAndCountsRejectedWithLineNumber) {
  expect_error_mentions(
      [] { parallel_links_from_string("parallel_links 1\nlink bogus 1\n"); },
      {"line 2", "bogus"});
  expect_error_mentions([] { network_from_string("network -3\n"); },
                        {"line 1", "negative node count"});
  // Out-of-range endpoints carry the line too.
  expect_error_mentions(
      [] {
        network_from_string(
            "network 2\nedge 0 5 affine 1 0\ncommodity 0 1 1\n");
      },
      {"line 2"});
  // Wrong parameter arity for the kind.
  expect_error_mentions(
      [] { network_from_string("network 2\nedge 0 1 affine 1\n"); },
      {"line 2"});
}

TEST(Serialize, NonFiniteFieldsRejectedWithLineNumber) {
  // NaN/Inf text in any numeric field dies with that line's number —
  // either stream extraction rejects the token outright or the reader's
  // isfinite() guards catch the parsed value; no non-finite number may
  // reach a returned instance either way.
  expect_error_mentions(
      [] { parallel_links_from_string("parallel_links nan\nlink constant 1\n"); },
      {"line 1"});
  expect_error_mentions(
      [] { parallel_links_from_string("parallel_links 1\nlink affine inf 0\n"); },
      {"line 2"});
  expect_error_mentions(
      [] {
        network_from_string(
            "network 2\nedge 0 1 constant nan\ncommodity 0 1 1\n");
      },
      {"line 2"});
  expect_error_mentions(
      [] {
        network_from_string(
            "network 2\nedge 0 1 affine 1 0\ncommodity 0 1 inf\n");
      },
      {"line 3"});
}

TEST(Serialize, EmptyInstancesRejectedWithLineNumber) {
  // Structurally empty documents: a header with no link/edge lines must
  // not survive to a (meaningless) instance.
  expect_error_mentions(
      [] { parallel_links_from_string("parallel_links 1\n# nothing else\n"); },
      {"no links"});
  expect_error_mentions(
      [] { network_from_string("network 2\ncommodity 0 1 1\n"); },
      {"no edge lines"});
}

// A streambuf that serves a prefix, then fails hard — a disk error or a
// pipe torn down mid-transfer. getline() sets badbit and stops exactly
// like EOF would, so LineReader must check bad() itself.
class TruncatingBuf : public std::streambuf {
 public:
  explicit TruncatingBuf(std::string prefix) : text_(std::move(prefix)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("disk error"); }

 private:
  std::string text_;
};

TEST(Serialize, BadStreamMidReadNeverYieldsPartialInstance) {
  // The prefix alone parses as a complete 2-link Pigou instance; without
  // the bad() check the reader would return it and silently drop whatever
  // the failed read lost.
  TruncatingBuf buf("parallel_links 1\nlink affine 1 0\nlink constant 1\n");
  std::istream is(&buf);
  expect_error_mentions([&] { read_parallel_links(is); },
                        {"I/O error", "line 3"});

  TruncatingBuf net_buf(
      "network 2\nedge 0 1 affine 1 0\ncommodity 0 1 1\n");
  std::istream net_is(&net_buf);
  expect_error_mentions([&] { read_network(net_is); },
                        {"I/O error", "line 3"});
}

// A numpunct facet whose decimal point is ',' — the de_DE shape — without
// depending on which locales the host has installed.
class CommaDecimal : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(Serialize, RoundTripsUnderCommaDecimalGlobalLocale) {
  const std::locale saved = std::locale::global(
      std::locale(std::locale::classic(), new CommaDecimal));
  struct RestoreLocale {
    std::locale loc;
    ~RestoreLocale() { std::locale::global(loc); }
  } restore{saved};

  ParallelLinks m;
  m.demand = 1.0 / 3.0;
  m.links = {make_affine(0.1, 2.5), make_bpr(1.5, 2.25, 0.15, 4.0),
             make_mm1(12345.678)};
  const std::string text = to_string(m);
  // The writer must ignore the global locale: no comma decimals, no
  // thousands grouping.
  EXPECT_EQ(text.find(','), std::string::npos) << text;
  const ParallelLinks back = parallel_links_from_string(text);
  ASSERT_EQ(back.size(), m.size());
  EXPECT_EQ(back.demand, m.demand);  // exact, not approximate
  for (std::size_t i = 0; i < m.size(); ++i) {
    const auto pa = m.links[i]->params();
    const auto pb = back.links[i]->params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t j = 0; j < pa.size(); ++j) EXPECT_EQ(pa[j], pb[j]);
  }

  const NetworkInstance inst = fig7_instance(0.05);
  const NetworkInstance net_back = network_from_string(to_string(inst));
  EXPECT_EQ(net_back.graph.num_edges(), inst.graph.num_edges());
  EXPECT_EQ(net_back.commodities[0].demand, inst.commodities[0].demand);
}

TEST(Serialize, WriterRestoresCallerStreamFormatting) {
  std::ostringstream os;
  const std::locale comma(std::locale::classic(), new CommaDecimal);
  os.imbue(comma);
  os.precision(3);
  write_instance(os, fig4_instance());
  // Output is classic-locale, full-precision...
  EXPECT_EQ(os.str().find(','), std::string::npos);
  // ...but the caller's stream settings come back untouched.
  EXPECT_EQ(os.precision(), 3);
  EXPECT_TRUE(os.getloc() == comma);
}

TEST(Serialize, FieldsAreWholeTokens) {
  // Each whitespace-separated field is read whole: `1bpr` is not head 1
  // followed by kind bpr, and a leading '+' is not part of a number.
  expect_error_mentions(
      [] {
        network_from_string(
            "network 2\nedge 0 1bpr 1 2 0.15 4\ncommodity 0 1 1\n");
      },
      {"line 2", "expected 'edge"});
  expect_error_mentions(
      [] { parallel_links_from_string("parallel_links +1\nlink constant 1\n"); },
      {"line 1"});
  expect_error_mentions(
      [] { parallel_links_from_string("parallel_links 1\nlink affine 1 +2\n"); },
      {"line 2", "'+2'"});
  // Out of double's range is an error, underflow included; subnormals
  // read exactly.
  expect_error_mentions(
      [] { parallel_links_from_string("parallel_links 1\nlink affine 1 1e-400\n"); },
      {"line 2", "1e-400"});
  const ParallelLinks m = parallel_links_from_string(
      "parallel_links 1\nlink affine 1 4.9406564584124654e-324\n");
  EXPECT_EQ(m.links[0]->params()[1], 4.9406564584124654e-324);
}

TEST(Serialize, WholeDocumentErrorsNameALine) {
  // Empty documents: the number of lines read (all blank or comments).
  expect_error_mentions([] { network_from_string(""); },
                        {"line 0:", "empty network document"});
  expect_error_mentions([] { parallel_links_from_string("# a\n\n"); },
                        {"line 2:", "empty parallel-links document"});
  // A commodity validate() rejects is reported at its own line.
  expect_error_mentions(
      [] {
        network_from_string(
            "network 3\ncommodity 0 1 1\nedge 0 1 constant 1\n"
            "commodity 1 2 1\n");
      },
      {"line 4:", "unreachable"});
  // Demand beyond the links' capacity is the header's fault.
  expect_error_mentions(
      [] { parallel_links_from_string("# c\nparallel_links 5\nlink mm1 2\n"); },
      {"line 2:", "capacity"});
  expect_error_mentions(
      [] { network_from_string("network 2\nedge 0 1 constant 1\n"); },
      {"line 2:", "no commodity lines"});
}

TEST(Serialize, ReadAllStreamOverloadsMatchStrings) {
  const std::string text = to_string(fig7_instance(0.05));
  std::istringstream is(text);
  EXPECT_EQ(to_string(read_network(is)), text);
}

TEST(Serialize, MM1AndBprSurvive) {
  ParallelLinks m;
  m.demand = 1.0;
  m.links = {make_mm1(2.5), make_bpr(1.0, 2.0, 0.15, 4.0)};
  const ParallelLinks back = parallel_links_from_string(to_string(m));
  EXPECT_DOUBLE_EQ(back.links[0]->capacity(), 2.5);
  EXPECT_DOUBLE_EQ(back.links[1]->value(2.0), 1.15);
}

}  // namespace
}  // namespace stackroute
