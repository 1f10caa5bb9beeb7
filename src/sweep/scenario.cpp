#include "stackroute/sweep/scenario.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "stackroute/io/scan.h"
#include "stackroute/io/serialize.h"
#include "stackroute/io/tntp.h"
#include "stackroute/util/error.h"

namespace stackroute::sweep {

namespace {

/// First non-comment, non-blank line decides the format.
bool looks_like_parallel_links(std::string_view text) {
  io::LineScanner lines(text);
  std::string_view line;
  return lines.next(line, '#') &&
         io::skip_space(line).substr(0, 14) == "parallel_links";
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

Instance load_instance_text(const std::string& text) {
  if (looks_like_parallel_links(text)) {
    return parallel_links_from_string(text);
  }
  return network_from_string(text);
}

std::string locate_data_file(const std::string& relative_path) {
  std::vector<std::string> tried;
  if (std::ifstream(relative_path).good()) return relative_path;
  tried.push_back("./" + relative_path);
  // Deployment override: installed/containerized builds have no source
  // tree, so STACKROUTE_DATA_DIR names where the shipped data files live.
  // It outranks the baked-in source dir but not an explicit relative hit.
  if (const char* data_dir = std::getenv("STACKROUTE_DATA_DIR")) {
    if (*data_dir != '\0') {
      const std::string in_data = std::string(data_dir) + "/" + relative_path;
      if (std::ifstream(in_data).good()) return in_data;
      tried.push_back(in_data);
    }
  }
#ifdef STACKROUTE_SOURCE_DIR
  const std::string in_source =
      std::string(STACKROUTE_SOURCE_DIR) + "/" + relative_path;
  if (std::ifstream(in_source).good()) return in_source;
  tried.push_back(in_source);
#endif
  std::string msg = "cannot locate data file " + relative_path + " (tried";
  for (const std::string& t : tried) msg += " " + t + ",";
  msg.back() = ')';
  throw Error(msg);
}

Instance load_instance_file(const std::string& path) {
  if (has_suffix(path, ".tntp")) {
    NetworkInstance net = read_tntp_network_file(path);
    SR_REQUIRE(net.graph.num_nodes() >= 2,
               "TNTP network too small to route: " + path);
    // `_net.tntp` carries no demands. A sibling `X_trips.tntp` (the
    // Transportation Networks convention) supplies the real OD matrix;
    // without one, attach a unit single commodity across the network
    // (first node -> last node) so the file is still sweepable. Either
    // way a "demand" axis rescales the result like any other instance.
    if (const std::string trips = trips_sibling(path); !trips.empty()) {
      net.commodities = read_tntp_trips_file(trips);
    } else {
      net.commodities.push_back(
          Commodity{0, static_cast<NodeId>(net.graph.num_nodes() - 1), 1.0});
    }
    net.validate();
    return net;
  }
  std::ifstream in(path);
  SR_REQUIRE(in.good(), "cannot open instance file: " + path);
  return load_instance_text(io::read_all(in, path));
}

std::string trips_sibling(const std::string& path) {
  if (!has_suffix(path, "_net.tntp")) return {};
  std::string trips =
      path.substr(0, path.size() - std::strlen("_net.tntp")) + "_trips.tntp";
  if (!std::ifstream(trips).good()) return {};
  return trips;
}

void override_demand(Instance& instance, double demand) {
  SR_REQUIRE(demand > 0.0, "demand override must be positive");
  if (auto* m = std::get_if<ParallelLinks>(&instance)) {
    m->demand = demand;
    return;
  }
  auto& net = std::get<NetworkInstance>(instance);
  const double total = net.total_demand();
  SR_REQUIRE(total > 0.0, "instance has no demand to rescale");
  for (auto& c : net.commodities) c.demand *= demand / total;
}

void scale_demand(Instance& instance, double factor) {
  SR_REQUIRE(std::isfinite(factor) && factor > 0.0,
             "demand scale factor must be positive and finite");
  if (auto* m = std::get_if<ParallelLinks>(&instance)) {
    m->demand *= factor;
    return;
  }
  for (auto& c : std::get<NetworkInstance>(instance).commodities) {
    c.demand *= factor;
  }
}

InstanceFactory file_instance_source(std::string path) {
  // Parse once up front (also surfaces bad files before the sweep starts);
  // tasks copy the prototype and apply their own demand.
  auto prototype = std::make_shared<Instance>(load_instance_file(path));
  return [prototype](const ParamPoint& point, Rng&) {
    Instance inst = *prototype;
    if (point.has("demand")) override_demand(inst, point.get("demand"));
    return inst;
  };
}

InstanceFactory generated_instance_source(gen::GeneratorSpec spec,
                                          std::uint64_t seed) {
  // Generate once up front (surfacing bad specs before the sweep starts);
  // gen::GeneratedInstance and sweep::Instance are the same variant type.
  auto prototype = std::make_shared<Instance>(gen::generate(spec, seed));
  return [prototype](const ParamPoint& point, Rng&) {
    Instance inst = *prototype;
    if (point.has("demand")) override_demand(inst, point.get("demand"));
    return inst;
  };
}

}  // namespace stackroute::sweep
