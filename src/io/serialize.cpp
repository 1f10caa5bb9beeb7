#include "stackroute/io/serialize.h"

#include <cmath>
#include <ostream>
#include <utility>
#include <vector>

#include "stackroute/io/scan.h"
#include "stackroute/latency/families.h"
#include "stackroute/util/error.h"

namespace stackroute {

namespace {

using io::Fields;
using io::LineScanner;

constexpr std::pair<std::string_view, LatencyKind> kKindNames[] = {
    {"constant", LatencyKind::kConstant},
    {"affine", LatencyKind::kAffine},
    {"polynomial", LatencyKind::kPolynomial},
    {"bpr", LatencyKind::kBpr},
    {"mm1", LatencyKind::kMm1},
};

void append_latency(std::string& out, const LatencyFunction& fn) {
  out += to_string(fn.kind());
  for (double p : fn.params()) {
    out += ' ';
    io::append_number(out, p);
  }
}

std::string quoted(std::string_view s) {
  std::string out = "'";
  out += s;
  out += '\'';
  return out;
}

/// Fails unless `row` has no field left — a line must not carry more than
/// its grammar, e.g. `commodity 0 1 1.0 junk`.
void require_end(Fields& row, const LineScanner& lines, std::string_view what) {
  const std::string_view extra = row.next();
  if (!extra.empty()) {
    lines.fail("trailing garbage " + quoted(extra) + " after " +
               std::string(what));
  }
}

/// Parses `<kind> <params...>` to the end of the line; every remaining
/// field must be a finite number. `params` is scratch space reused across
/// lines.
LatencyPtr read_latency(Fields& row, const LineScanner& lines,
                        std::vector<double>& params) {
  const std::string_view name = row.next();
  if (name.empty()) lines.fail("expected a latency kind");
  const LatencyKind* kind = nullptr;
  for (const auto& [known, k] : kKindNames) {
    if (name == known) kind = &k;
  }
  if (kind == nullptr) lines.fail("unknown latency kind " + quoted(name));
  params.clear();
  for (std::string_view field = row.next(); !field.empty();
       field = row.next()) {
    double v = 0.0;
    if (!io::parse_number(field, v) || !std::isfinite(v)) {
      lines.fail(quoted(name) + " parameter " + quoted(field) +
                 " is not a finite number");
    }
    params.push_back(v);
  }
  try {
    return make_latency(*kind, params);
  } catch (const Error& e) {
    lines.fail(e.what());
  }
}

}  // namespace

std::string to_string(const ParallelLinks& m) {
  std::string out = "parallel_links ";
  io::append_number(out, m.demand);
  out += '\n';
  for (const auto& link : m.links) {
    out += "link ";
    append_latency(out, *link);
    out += '\n';
  }
  return out;
}

std::string to_string(const NetworkInstance& inst) {
  std::string out = "network ";
  io::append_integer(out, inst.graph.num_nodes());
  out += '\n';
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const Edge& edge = inst.graph.edge(e);
    out += "edge ";
    io::append_integer(out, edge.tail);
    out += ' ';
    io::append_integer(out, edge.head);
    out += ' ';
    append_latency(out, *edge.latency);
    out += '\n';
  }
  for (const Commodity& c : inst.commodities) {
    out += "commodity ";
    io::append_integer(out, c.source);
    out += ' ';
    io::append_integer(out, c.sink);
    out += ' ';
    io::append_number(out, c.demand);
    out += '\n';
  }
  return out;
}

void write_instance(std::ostream& os, const ParallelLinks& m) {
  const std::string text = to_string(m);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void write_instance(std::ostream& os, const NetworkInstance& inst) {
  const std::string text = to_string(inst);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

ParallelLinks parallel_links_from_string(std::string_view text) {
  LineScanner lines(text);
  std::string_view line;
  if (!lines.next(line, '#')) lines.fail("empty parallel-links document");
  Fields header(line);
  ParallelLinks m;
  if (header.next() != "parallel_links" || !header.number(m.demand)) {
    lines.fail("expected 'parallel_links <demand>' header");
  }
  if (!std::isfinite(m.demand)) lines.fail("non-finite demand");
  require_end(header, lines, "'parallel_links' header");
  const int header_line = lines.line();
  std::vector<double> params;
  while (lines.next(line, '#')) {
    Fields row(line);
    if (row.next() != "link") lines.fail("expected 'link <kind> <params...>'");
    m.links.push_back(read_latency(row, lines, params));
  }
  if (m.links.empty()) lines.fail("parallel-links document has no links");
  // What validate() checks beyond the lines is the demand against the
  // links' capacity: that is the header's line.
  try {
    m.validate();
  } catch (const Error& e) {
    io::fail_at(header_line, e.what());
  }
  return m;
}

NetworkInstance network_from_string(std::string_view text) {
  LineScanner lines(text);
  std::string_view line;
  if (!lines.next(line, '#')) lines.fail("empty network document");
  Fields header(line);
  int nodes = 0;
  if (header.next() != "network" || !header.number(nodes)) {
    lines.fail("expected 'network <num_nodes>' header");
  }
  if (nodes < 0) lines.fail("negative node count");
  require_end(header, lines, "'network' header");
  NetworkInstance inst;
  inst.graph = Graph(nodes);
  std::vector<int> commodity_lines;
  std::vector<double> params;
  while (lines.next(line, '#')) {
    Fields row(line);
    const std::string_view tag = row.next();
    if (tag == "edge") {
      NodeId tail = 0, head = 0;
      if (!row.number(tail) || !row.number(head)) {
        lines.fail("expected 'edge <tail> <head> <kind> <params...>'");
      }
      LatencyPtr latency = read_latency(row, lines, params);
      try {
        inst.graph.add_edge(tail, head, std::move(latency));
      } catch (const Error& e) {
        lines.fail(e.what());  // range and self-loop diagnostics
      }
    } else if (tag == "commodity") {
      Commodity c;
      if (!row.number(c.source) || !row.number(c.sink) ||
          !row.number(c.demand)) {
        lines.fail("expected 'commodity <source> <sink> <demand>'");
      }
      if (!std::isfinite(c.demand)) lines.fail("non-finite commodity demand");
      require_end(row, lines, "'commodity' line");
      inst.commodities.push_back(c);
      commodity_lines.push_back(lines.line());
    } else {
      lines.fail("unknown line tag " + quoted(tag));
    }
  }
  if (inst.graph.num_edges() == 0) {
    lines.fail("network document has no edge lines");
  }
  if (inst.commodities.empty()) {
    lines.fail("network document has no commodity lines");
  }
  // validate() checks each commodity against the whole graph, so it runs
  // once every edge is in — one commodity at a time, so that a failure
  // (unreachable sink, source == sink, ...) names that commodity's line.
  std::vector<Commodity> all = std::move(inst.commodities);
  for (std::size_t i = 0; i < all.size(); ++i) {
    inst.commodities.assign(1, all[i]);
    try {
      inst.validate();
    } catch (const Error& e) {
      io::fail_at(commodity_lines[i], e.what());
    }
  }
  inst.commodities = std::move(all);
  return inst;
}

ParallelLinks read_parallel_links(std::istream& is) {
  return parallel_links_from_string(
      io::read_all(is, "a parallel-links document"));
}

NetworkInstance read_network(std::istream& is) {
  return network_from_string(io::read_all(is, "a network document"));
}

}  // namespace stackroute
