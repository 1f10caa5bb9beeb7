#include "stackroute/io/tntp.h"

#include <cmath>
#include <fstream>
#include <string>

#include "stackroute/io/scan.h"
#include "stackroute/latency/families.h"
#include "stackroute/util/error.h"

namespace stackroute {

namespace {

using io::fail_at;
using io::Fields;
using io::LineScanner;

/// `<TAG NAME> value` -> true, with tag/value split out.
bool parse_metadata_tag(std::string_view line, std::string_view& tag,
                        std::string_view& value) {
  const auto open = line.find('<');
  const auto close = line.find('>');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return false;
  }
  tag = line.substr(open + 1, close - open - 1);
  value = line.substr(close + 1);
  return true;
}

/// The number a metadata value starts with (anything after it is
/// ignored, as TNTP headers carry free-text remarks).
int metadata_int(std::string_view value, std::string_view tag, int line_no) {
  int out = 0;
  if (io::parse_prefix(io::skip_space(value), out) == 0) {
    fail_at(line_no, "metadata tag <" + std::string(tag) +
                         "> needs an integer value");
  }
  return out;
}

double metadata_double(std::string_view value, std::string_view tag,
                       int line_no) {
  double out = 0.0;
  if (io::parse_prefix(io::skip_space(value), out) == 0 ||
      !std::isfinite(out)) {
    fail_at(line_no, "metadata tag <" + std::string(tag) +
                         "> needs a finite number");
  }
  return out;
}

/// BPR edge for one parsed link row. B = 0 or fft = 0 degenerate exactly
/// like the BPR formula itself: to a constant latency.
LatencyPtr tntp_latency(double fft, double capacity, double b, double power,
                        int line_no) {
  if (fft < 0.0 || capacity <= 0.0 || b < 0.0) {
    fail_at(line_no,
            "link needs free-flow time >= 0, capacity > 0 and B >= 0");
  }
  if (fft == 0.0 || b == 0.0) return make_constant(fft);
  if (power < 1.0) fail_at(line_no, "link needs BPR power >= 1");
  return make_bpr(fft, capacity, b, power);
}

NetworkInstance parse_tntp_network(std::string_view text,
                                   TntpMetadata* metadata) {
  TntpMetadata meta;
  NetworkInstance inst;
  LineScanner lines(text);
  std::string_view line;
  bool in_metadata = true;
  bool have_nodes = false;
  int links_line = 0;  // line of <NUMBER OF LINKS>; 0 = absent
  int links_read = 0;

  while (lines.next(line, '~')) {
    const int line_no = lines.line();
    if (in_metadata && io::skip_space(line).front() == '<') {
      std::string_view tag, value;
      if (!parse_metadata_tag(line, tag, value)) {
        lines.fail("malformed metadata tag");
      }
      if (tag == "END OF METADATA") {
        in_metadata = false;
      } else if (tag == "NUMBER OF NODES") {
        meta.num_nodes = metadata_int(value, tag, line_no);
        if (meta.num_nodes <= 0) lines.fail("non-positive node count");
        have_nodes = true;
      } else if (tag == "NUMBER OF LINKS") {
        meta.num_links = metadata_int(value, tag, line_no);
        links_line = line_no;
      } else if (tag == "FIRST THRU NODE") {
        meta.first_thru_node = metadata_int(value, tag, line_no);
      } else if (tag == "NUMBER OF ZONES") {
        meta.num_zones = metadata_int(value, tag, line_no);
      }
      // Unknown tags (e.g. <ORIGINAL HEADER>) are ignored.
      continue;
    }

    if (in_metadata) lines.fail("link row before <END OF METADATA>");
    if (!have_nodes) lines.fail("missing <NUMBER OF NODES> metadata");
    if (inst.graph.num_nodes() == 0) inst.graph = Graph(meta.num_nodes);

    // `init term capacity length fft B power speed toll type ;` — the
    // trailing fields beyond `power` are tolerated and ignored, but each
    // must still be a finite number.
    std::string_view body = line;
    if (const auto semi = body.find(';'); semi != std::string_view::npos) {
      if (!io::skip_space(body.substr(semi + 1)).empty()) {
        lines.fail("trailing garbage after ';'");
      }
      body = body.substr(0, semi);
    }
    Fields row(body);
    long long init = 0, term = 0;
    double capacity = 0.0, length = 0.0, fft = 0.0, b = 0.0, power = 0.0;
    if (!row.number(init) || !row.number(term) || !row.number(capacity) ||
        !row.number(length) || !row.number(fft) || !row.number(b) ||
        !row.number(power)) {
      lines.fail("expected 'init term capacity length fft B power ...'");
    }
    bool finite = std::isfinite(capacity) && std::isfinite(length) &&
                  std::isfinite(fft) && std::isfinite(b) &&
                  std::isfinite(power);
    for (std::string_view field = row.next(); !field.empty();
         field = row.next()) {
      double ignored = 0.0;
      if (!io::parse_number(field, ignored)) {
        lines.fail("trailing garbage '" + std::string(field) +
                   "' in link row");
      }
      finite = finite && std::isfinite(ignored);
    }
    if (!finite) lines.fail("non-finite value in link row");
    if (init < 1 || init > meta.num_nodes || term < 1 ||
        term > meta.num_nodes) {
      lines.fail("link endpoint out of range (node ids are 1-based)");
    }
    LatencyPtr latency = tntp_latency(fft, capacity, b, power, line_no);
    try {
      inst.graph.add_edge(static_cast<NodeId>(init - 1),
                          static_cast<NodeId>(term - 1), std::move(latency));
    } catch (const Error& e) {
      lines.fail(e.what());  // e.g. self-loop rejection from add_edge
    }
    ++links_read;
  }

  if (in_metadata) lines.fail("TNTP document has no <END OF METADATA>");
  if (!have_nodes) lines.fail("TNTP document has no <NUMBER OF NODES>");
  if (links_read == 0) lines.fail("TNTP document has no link rows");
  if (links_line != 0 && links_read != meta.num_links) {
    fail_at(links_line, "TNTP link count mismatch: <NUMBER OF LINKS> says " +
                            std::to_string(meta.num_links) + ", found " +
                            std::to_string(links_read));
  }
  if (metadata != nullptr) *metadata = meta;
  return inst;
}

/// Zone id of an `Origin N` line or a destination entry: 1-based, bounded
/// by <NUMBER OF ZONES> when the document declares it.
int check_zone(long long zone, int num_zones, int line_no) {
  if (zone < 1) fail_at(line_no, "zone ids are 1-based");
  if (num_zones > 0 && zone > num_zones) {
    fail_at(line_no, "zone id " + std::to_string(zone) + " exceeds "
                     "<NUMBER OF ZONES> " + std::to_string(num_zones));
  }
  return static_cast<int>(zone);
}

/// One `dest : flow` entry (whitespace around the colon optional).
bool parse_trip_entry(std::string_view entry, long long& dest,
                      double& flow) {
  entry = io::skip_space(entry);
  std::size_t used = io::parse_prefix(entry, dest);
  if (used == 0) return false;
  entry = io::skip_space(entry.substr(used));
  if (entry.empty() || entry.front() != ':') return false;
  entry = io::skip_space(entry.substr(1));
  used = io::parse_prefix(entry, flow);
  return used != 0 && io::skip_space(entry.substr(used)).empty();
}

std::vector<Commodity> parse_tntp_trips(std::string_view text,
                                        TntpMetadata* metadata) {
  TntpMetadata meta;
  // (origin-1, dest-1) -> summed demand, in first-appearance order so the
  // commodity list is a stable function of the document.
  std::vector<Commodity> commodities;
  LineScanner lines(text);
  std::string_view line;
  bool in_metadata = true;
  int origin = 0;  // 1-based; 0 = no Origin line seen yet

  while (lines.next(line, '~')) {
    const int line_no = lines.line();
    const std::string_view body = io::skip_space(line);
    if (in_metadata && body.front() == '<') {
      std::string_view tag, value;
      if (!parse_metadata_tag(line, tag, value)) {
        lines.fail("malformed metadata tag");
      }
      if (tag == "END OF METADATA") {
        in_metadata = false;
      } else if (tag == "NUMBER OF ZONES") {
        meta.num_zones = metadata_int(value, tag, line_no);
        if (meta.num_zones <= 0) lines.fail("non-positive zone count");
      } else if (tag == "TOTAL OD FLOW") {
        meta.total_od_flow = metadata_double(value, tag, line_no);
      }
      continue;
    }
    if (in_metadata) lines.fail("trip row before <END OF METADATA>");

    if (body.substr(0, 6) == "Origin") {
      Fields row(body.substr(6));
      long long zone = 0;
      if (!row.number(zone) || !row.next().empty()) {
        lines.fail("expected 'Origin N'");
      }
      origin = check_zone(zone, meta.num_zones, line_no);
      continue;
    }
    if (origin == 0) {
      lines.fail("destination entry before any 'Origin' line");
    }

    // `dest : flow ; dest : flow ; ...` — a trailing `;` (and hence a
    // blank final segment) is the format's convention, not an error.
    std::string_view rest = line;
    while (!rest.empty()) {
      const auto semi = rest.find(';');
      const std::string_view entry = rest.substr(0, semi);
      rest = semi == std::string_view::npos ? std::string_view()
                                            : rest.substr(semi + 1);
      if (io::skip_space(entry).empty()) continue;
      long long dest = 0;
      double flow = 0.0;
      if (!parse_trip_entry(entry, dest, flow)) {
        lines.fail("expected 'dest : flow;' entries, got '" +
                   std::string(entry) + "'");
      }
      check_zone(dest, meta.num_zones, line_no);
      if (!std::isfinite(flow) || flow < 0.0) {
        lines.fail("trip demand must be finite and >= 0");
      }
      if (flow == 0.0 || dest == origin) continue;  // intrazonal / empty
      const auto s = static_cast<NodeId>(origin - 1);
      const auto t = static_cast<NodeId>(dest - 1);
      Commodity* pair = nullptr;
      for (Commodity& c : commodities) {
        if (c.source == s && c.sink == t) {
          pair = &c;
          break;
        }
      }
      if (pair == nullptr) {
        commodities.push_back(Commodity{s, t, flow});
      } else if (!std::isfinite(pair->demand += flow)) {
        lines.fail("summed trip demand overflows");
      }
    }
  }

  if (in_metadata) {
    lines.fail("TNTP trips document has no <END OF METADATA>");
  }
  if (commodities.empty()) {
    lines.fail("TNTP trips document has no positive interzonal demand");
  }
  if (metadata != nullptr) *metadata = meta;
  return commodities;
}

std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  SR_REQUIRE(in.good(), std::string("cannot open ") + what + ": " + path);
  return io::read_all(in, path);
}

}  // namespace

NetworkInstance read_tntp_network(std::istream& is, TntpMetadata* metadata) {
  return parse_tntp_network(io::read_all(is, "a TNTP document"), metadata);
}

NetworkInstance read_tntp_network_file(const std::string& path,
                                       TntpMetadata* metadata) {
  return parse_tntp_network(read_file(path, "TNTP file"), metadata);
}

std::vector<Commodity> read_tntp_trips(std::istream& is,
                                       TntpMetadata* metadata) {
  return parse_tntp_trips(io::read_all(is, "a TNTP trips document"),
                          metadata);
}

std::vector<Commodity> read_tntp_trips_file(const std::string& path,
                                            TntpMetadata* metadata) {
  return parse_tntp_trips(read_file(path, "TNTP trips file"), metadata);
}

}  // namespace stackroute
