// The TNTP `_net.tntp` reader: format coverage on inline documents plus
// the shipped SiouxFalls instance.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>

#include "stackroute/io/tntp.h"
#include "stackroute/latency/families.h"
#include "stackroute/util/error.h"

namespace stackroute {
namespace {

const char* kTinyNet =
    "<NUMBER OF ZONES> 2\n"
    "<NUMBER OF NODES> 3\n"
    "<FIRST THRU NODE> 1\n"
    "<NUMBER OF LINKS> 3\n"
    "<ORIGINAL HEADER> something ignorable\n"
    "<END OF METADATA>\n"
    "\n"
    "~ \tInit node \tTerm node \tCapacity \tLength \tFree Flow Time \tB\t"
    "Power\tSpeed limit \tToll \tLink Type\t;\n"
    "\t1\t2\t100.5\t6\t6\t0.15\t4\t0\t0\t1\t;\n"
    "\t2\t3\t50\t2\t2\t0.15\t4\t0\t0\t1\t;\n"
    "\t1\t3\t10\t9\t9\t0.15\t4\t0\t0\t1\t;\n";

TEST(Tntp, ParsesMetadataAndLinks) {
  std::istringstream is(kTinyNet);
  TntpMetadata meta;
  const NetworkInstance inst = read_tntp_network(is, &meta);
  EXPECT_EQ(meta.num_nodes, 3);
  EXPECT_EQ(meta.num_links, 3);
  EXPECT_EQ(meta.num_zones, 2);
  EXPECT_EQ(meta.first_thru_node, 1);
  EXPECT_EQ(inst.graph.num_nodes(), 3);
  EXPECT_EQ(inst.graph.num_edges(), 3);
  EXPECT_TRUE(inst.commodities.empty());  // _net.tntp carries no demands
  // 1-based ids converted; edge 0 is 1->2.
  EXPECT_EQ(inst.graph.edge(0).tail, 0);
  EXPECT_EQ(inst.graph.edge(0).head, 1);
  // BPR: value at 0 is the free-flow time; at capacity it is t0 * 1.15.
  const auto& lat = *inst.graph.edge(0).latency;
  EXPECT_EQ(lat.kind(), LatencyKind::kBpr);
  EXPECT_DOUBLE_EQ(lat.value(0.0), 6.0);
  EXPECT_DOUBLE_EQ(lat.value(100.5), 6.0 * 1.15);
}

TEST(Tntp, RowsWithoutSemicolonParse) {
  std::istringstream is(
      "<NUMBER OF NODES> 2\n<END OF METADATA>\n"
      "1 2 100 1 1 0.15 4 0 0 1\n");
  const NetworkInstance inst = read_tntp_network(is);
  EXPECT_EQ(inst.graph.num_edges(), 1);
}

TEST(Tntp, ZeroBDegeneratesToConstant) {
  std::istringstream is(
      "<NUMBER OF NODES> 2\n<END OF METADATA>\n"
      "1 2 100 1 3 0 4 0 0 1 ;\n");
  const NetworkInstance inst = read_tntp_network(is);
  const auto& lat = *inst.graph.edge(0).latency;
  EXPECT_TRUE(lat.is_constant());
  EXPECT_DOUBLE_EQ(lat.value(50.0), 3.0);
}

TEST(Tntp, ErrorsCarryLineNumbers) {
  const auto expect_line = [](const std::string& doc,
                              const std::string& line_tag) {
    std::istringstream is(doc);
    try {
      read_tntp_network(is);
      FAIL() << "expected Error for: " << doc;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(line_tag), std::string::npos)
          << e.what();
    }
  };
  // Row before the metadata terminator (row is physical line 2).
  expect_line("<NUMBER OF NODES> 2\n1 2 100 1 1 0.15 4 0 0 1 ;\n", "line 2");
  // Non-positive declared node count, rejected at the tag itself — even
  // with zero link rows.
  expect_line("<NUMBER OF NODES> 0\n<END OF METADATA>\n", "line 1");
  expect_line("<NUMBER OF NODES> -3\n<END OF METADATA>\n", "line 1");
  // Endpoint out of range on line 3.
  expect_line("<NUMBER OF NODES> 2\n<END OF METADATA>\n"
              "1 7 100 1 1 0.15 4 0 0 1 ;\n",
              "line 3");
  // Non-numeric garbage inside a row.
  expect_line("<NUMBER OF NODES> 2\n<END OF METADATA>\n"
              "1 2 100 1 1 0.15 4 oops 0 1 ;\n",
              "line 3");
  // Garbage after the terminating semicolon.
  expect_line("<NUMBER OF NODES> 2\n<END OF METADATA>\n"
              "1 2 100 1 1 0.15 4 0 0 1 ; trailing\n",
              "line 3");
  // Self-loop.
  expect_line("<NUMBER OF NODES> 2\n<END OF METADATA>\n"
              "2 2 100 1 1 0.15 4 0 0 1 ;\n",
              "line 3");
  // Bad link parameters.
  expect_line("<NUMBER OF NODES> 2\n<END OF METADATA>\n"
              "1 2 -5 1 1 0.15 4 0 0 1 ;\n",
              "line 3");
}

TEST(Tntp, NonFiniteFieldsRejectedWithLineNumber) {
  const auto expect_line = [](const std::string& doc,
                              const std::string& line_tag) {
    std::istringstream is(doc);
    try {
      read_tntp_network(is);
      FAIL() << "expected Error for: " << doc;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(line_tag), std::string::npos)
          << e.what();
    }
  };
  // NaN/Inf in any numeric field dies with the row's line number, whether
  // the platform's stream extraction rejects the text itself or parses it
  // to a non-finite double that our isfinite() guards catch.
  expect_line("<NUMBER OF NODES> 2\n<END OF METADATA>\n"
              "1 2 nan 1 1 0.15 4 0 0 1 ;\n",
              "line 3");  // capacity
  expect_line("<NUMBER OF NODES> 2\n<END OF METADATA>\n"
              "1 2 100 inf 1 0.15 4 0 0 1 ;\n",
              "line 3");  // length
  expect_line("<NUMBER OF NODES> 2\n<END OF METADATA>\n"
              "1 2 100 1 nan 0.15 4 0 0 1 ;\n",
              "line 3");  // free-flow time
  expect_line("<NUMBER OF NODES> 2\n<END OF METADATA>\n"
              "1 2 100 1 1 inf 4 0 0 1 ;\n",
              "line 3");  // B
  expect_line("<NUMBER OF NODES> 2\n<END OF METADATA>\n"
              "1 2 100 1 1 0.15 nan 0 0 1 ;\n",
              "line 3");  // power
}

TEST(Tntp, ZeroLinkDocumentRejected) {
  std::istringstream is("<NUMBER OF NODES> 2\n<END OF METADATA>\n");
  try {
    read_tntp_network(is);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no link rows"), std::string::npos)
        << e.what();
  }
}

// A streambuf that serves a prefix, then fails hard — the shape of a disk
// error or a pipe torn down mid-transfer. getline() sets badbit and stops
// exactly like EOF, so the reader must check bad() itself.
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

TEST(Tntp, BadStreamMidReadNeverYieldsPartialInstance) {
  // The prefix alone is a well-formed (if short) document: without the
  // bad() check the reader would happily return a 1-link instance.
  TruncatingBuf buf(
      "<NUMBER OF NODES> 3\n<END OF METADATA>\n"
      "1 2 100 1 1 0.15 4 0 0 1 ;\n");
  std::istream is(&buf);
  try {
    read_tntp_network(is);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("I/O error"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
}

TEST(Tntp, StructuralErrors) {
  // No metadata terminator at all.
  {
    std::istringstream is("<NUMBER OF NODES> 2\n");
    EXPECT_THROW(read_tntp_network(is), Error);
  }
  // Declared link count disagrees with the rows.
  {
    std::istringstream is(
        "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 2\n<END OF METADATA>\n"
        "1 2 100 1 1 0.15 4 0 0 1 ;\n");
    EXPECT_THROW(read_tntp_network(is), Error);
  }
  // Missing node count.
  {
    std::istringstream is(
        "<END OF METADATA>\n1 2 100 1 1 0.15 4 0 0 1 ;\n");
    EXPECT_THROW(read_tntp_network(is), Error);
  }
  // Unreadable path.
  EXPECT_THROW(read_tntp_network_file("/nonexistent/net.tntp"), Error);
}

TEST(Tntp, FieldsAreWholeTokens) {
  const auto expect_fail = [](const std::string& row) {
    std::istringstream is("<NUMBER OF NODES> 2\n<END OF METADATA>\n" + row);
    try {
      read_tntp_network(is);
      FAIL() << "accepted: " << row;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("line 3:", 0), 0u) << e.what();
    }
  };
  // Fields are read whole: `4-0` is not power 4 then speed -0, and
  // `+100` is not 100.
  expect_fail("1 2 100 1 1 0.15 4-0 0 1 ;\n");
  expect_fail("1 2 +100 1 1 0.15 4 0 0 1 ;\n");
  // Ignored trailing fields must still be finite numbers.
  expect_fail("1 2 100 1 1 0.15 4 nan 0 1 ;\n");
}

TEST(Tntp, DocumentLevelErrorsNameALine) {
  std::istringstream is(
      "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 2\n<END OF METADATA>\n"
      "1 2 100 1 1 0.15 4 0 0 1 ;\n");
  try {
    read_tntp_network(is);
    FAIL() << "expected a link count mismatch";
  } catch (const Error& e) {
    // The <NUMBER OF LINKS> line is the one that disagrees.
    EXPECT_EQ(std::string(e.what()).rfind("line 2: TNTP link count", 0), 0u)
        << e.what();
  }
}

TEST(TntpTrips, EntriesReadWithoutSpacesAndRejectOverflow) {
  std::istringstream ok(
      "<END OF METADATA>\nOrigin 1\n2:5.5;3 :1e2 ;\n");
  const std::vector<Commodity> trips = read_tntp_trips(ok);
  ASSERT_EQ(trips.size(), 2u);
  EXPECT_EQ(trips[0].demand, 5.5);
  EXPECT_EQ(trips[1].demand, 100.0);
  std::istringstream big(
      "<END OF METADATA>\nOrigin 1\n2 : 1e308; 2 : 1e308;\n");
  try {
    read_tntp_trips(big);
    FAIL() << "expected an overflow error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("line 3:", 0), 0u) << e.what();
  }
}

TEST(Tntp, SiouxFallsLoads) {
  TntpMetadata meta;
  const NetworkInstance inst = read_tntp_network_file(
      std::string(STACKROUTE_SOURCE_DIR) +
          "/examples/instances/SiouxFalls_net.tntp",
      &meta);
  EXPECT_EQ(meta.num_nodes, 24);
  EXPECT_EQ(meta.num_links, 76);
  EXPECT_EQ(meta.num_zones, 24);
  EXPECT_EQ(inst.graph.num_nodes(), 24);
  EXPECT_EQ(inst.graph.num_edges(), 76);
  // First link: 1 -> 2, free-flow time 6.
  EXPECT_EQ(inst.graph.edge(0).tail, 0);
  EXPECT_EQ(inst.graph.edge(0).head, 1);
  EXPECT_DOUBLE_EQ(inst.graph.edge(0).latency->value(0.0), 6.0);
  // Every link is a BPR (or constant-degenerate) latency with capacity
  // recorded in params()[1].
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    EXPECT_EQ(inst.graph.edge(e).latency->kind(), LatencyKind::kBpr);
  }
}

// ---- `_trips.tntp` demand documents ------------------------------------

const char* kTinyTrips =
    "<NUMBER OF ZONES> 3\n"
    "<TOTAL OD FLOW> 700.0\n"
    "<END OF METADATA>\n"
    "\n"
    "~ comment line\n"
    "Origin  1\n"
    "    1 :     50.0;    2 :     100.0;    3 :     200.0;\n"
    "Origin 2\n"
    "    3 :     300.0;\n"
    "    1 :     0.0;\n"
    "Origin 3\n"
    "    2 :     25.0;    2 :     25.0\n";

TEST(TntpTrips, ParsesOriginBlocks) {
  std::istringstream is(kTinyTrips);
  TntpMetadata meta;
  const std::vector<Commodity> trips = read_tntp_trips(is, &meta);
  EXPECT_EQ(meta.num_zones, 3);
  EXPECT_DOUBLE_EQ(meta.total_od_flow, 700.0);
  // Intrazonal (1:1) and zero-demand (2->1) entries skipped; the repeated
  // 3->2 pair sums; ids converted to 0-based.
  ASSERT_EQ(trips.size(), 4u);
  EXPECT_EQ(trips[0].source, 0u);
  EXPECT_EQ(trips[0].sink, 1u);
  EXPECT_DOUBLE_EQ(trips[0].demand, 100.0);
  EXPECT_EQ(trips[1].sink, 2u);
  EXPECT_DOUBLE_EQ(trips[1].demand, 200.0);
  EXPECT_EQ(trips[2].source, 1u);
  EXPECT_DOUBLE_EQ(trips[2].demand, 300.0);
  EXPECT_EQ(trips[3].source, 2u);
  EXPECT_EQ(trips[3].sink, 1u);
  EXPECT_DOUBLE_EQ(trips[3].demand, 50.0);
}

TEST(TntpTrips, ErrorsCarryLineNumbers) {
  const auto expect_fail_at = [](const std::string& doc, int line,
                                 const std::string& needle) {
    std::istringstream is(doc);
    try {
      read_tntp_trips(is);
      FAIL() << "expected a parse error containing '" << needle << "'";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what.find("line " + std::to_string(line) + ":") == 0)
          << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  const std::string head = "<NUMBER OF ZONES> 2\n<END OF METADATA>\n";
  // Destination entry before any Origin line.
  expect_fail_at(head + "1 : 5.0;\n", 3, "before any 'Origin'");
  // Malformed Origin line.
  expect_fail_at(head + "Origin one\n", 3, "expected 'Origin N'");
  // Zone id beyond <NUMBER OF ZONES>.
  expect_fail_at(head + "Origin 9\n", 3, "exceeds");
  expect_fail_at(head + "Origin 1\n9 : 5.0;\n", 4, "exceeds");
  // Negative demand. (Non-finite spellings like "nan" already fail the
  // numeric extraction itself and surface as the syntax error below.)
  expect_fail_at(head + "Origin 1\n2 : -5.0;\n", 4, "finite and >= 0");
  // Entry syntax garbage, and a row before the metadata ends.
  expect_fail_at(head + "Origin 1\n2 = 5.0;\n", 4, "expected 'dest : flow;'");
  expect_fail_at("<NUMBER OF ZONES> 2\nOrigin 1\n", 2,
                 "before <END OF METADATA>");
}

TEST(TntpTrips, StructuralErrors) {
  {
    // No <END OF METADATA>.
    std::istringstream is("<NUMBER OF ZONES> 2\n");
    EXPECT_THROW(read_tntp_trips(is), Error);
  }
  {
    // No positive interzonal demand at all.
    std::istringstream is(
        "<END OF METADATA>\nOrigin 1\n1 : 5.0; 2 : 0.0;\n");
    EXPECT_THROW(read_tntp_trips(is), Error);
  }
  EXPECT_THROW(read_tntp_trips_file("/nonexistent/trips.tntp"), Error);
}

}  // namespace
}  // namespace stackroute
