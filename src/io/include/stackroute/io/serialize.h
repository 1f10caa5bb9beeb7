// Plain-text (de)serialization of routing instances, so examples can ship
// instance files and tests can round-trip them.
//
// Parallel links:                      Network:
//   parallel_links <demand>             network <num_nodes>
//   link <kind> <params...>             edge <tail> <head> <kind> <params...>
//   ...                                 ...
//                                       commodity <source> <sink> <demand>
// Lines starting with '#' are comments. Kinds: constant, affine,
// polynomial, bpr, mm1 (see families.h for parameter orders). Fields are
// separated by whitespace and each one is read whole: `1bpr` or `+1` is a
// line-numbered error, not a number. Doubles are written with 17
// significant digits and read back bitwise, whatever the locale.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "stackroute/network/instance.h"

namespace stackroute {

void write_instance(std::ostream& os, const ParallelLinks& m);
void write_instance(std::ostream& os, const NetworkInstance& inst);

/// Read the whole stream, then parse it as *_from_string does; a stream
/// that goes bad mid-read fails with the number of lines it delivered.
ParallelLinks read_parallel_links(std::istream& is);
NetworkInstance read_network(std::istream& is);

std::string to_string(const ParallelLinks& m);
std::string to_string(const NetworkInstance& inst);

/// Throw stackroute::Error("line N: ...") on anything malformed, naming
/// the header line for a demand the links cannot carry and a commodity's
/// own line when validate() rejects it.
ParallelLinks parallel_links_from_string(std::string_view text);
NetworkInstance network_from_string(std::string_view text);

}  // namespace stackroute
