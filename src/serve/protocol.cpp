#include "stackroute/serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "stackroute/gen/registry.h"
#include "stackroute/sweep/scenario.h"
#include "stackroute/util/error.h"

namespace stackroute::serve {

namespace {

using stackroute::io::JsonParseError;
using stackroute::io::JsonValue;

engine::StrategyKind parse_strategy(const std::string& name) {
  using engine::StrategyKind;
  if (name == "aloof") return StrategyKind::kAloof;
  if (name == "scale") return StrategyKind::kScale;
  if (name == "llf") return StrategyKind::kLlf;
  throw Error("unknown strategy '" + name +
              "' (expected aloof, scale or llf)");
}

/// Field accessors that throw with the field name in the message, so the
/// transport's per-line errors read "field 'alpha': expected number, ...".
double number_field(const JsonValue& v, const char* key) {
  try {
    return v.as_number();
  } catch (const Error& e) {
    throw Error(std::string("field '") + key + "': " + e.what());
  }
}

std::string string_field(const JsonValue& v, const char* key) {
  try {
    return v.as_string();
  } catch (const Error& e) {
    throw Error(std::string("field '") + key + "': " + e.what());
  }
}

/// JSON numbers arrive as doubles, and casting one that is out of the
/// target type's range (or NaN) to an integer type is undefined behavior
/// — a hostile {"id":1e300} must become a per-line field error, not UB.
/// 2^53 is the largest range a JSON double covers exactly, and is ample
/// for every integer field of the schema.
constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

double integer_field(const JsonValue& v, const char* key, double lo,
                     double hi) {
  const double d = number_field(v, key);
  if (!(d >= lo && d <= hi) || d != std::floor(d)) {
    std::ostringstream os;
    os << "field '" << key << "': expected an integer in [" << lo << ", "
       << hi << "]";
    throw Error(os.str());
  }
  return d;
}

std::uint64_t id_field(const JsonValue& v, const char* key) {
  return static_cast<std::uint64_t>(integer_field(v, key, 0.0, kMaxExactInt));
}

int size_field(const JsonValue& v, const char* key) {
  return static_cast<int>(integer_field(v, key, 0.0, 2147483647.0));
}

engine::Instance build_instance(const JsonValue& req) {
  if (const JsonValue* file = req.find("instance_file")) {
    return sweep::load_instance_file(string_field(*file, "instance_file"));
  }
  if (const JsonValue* text = req.find("instance")) {
    return sweep::load_instance_text(string_field(*text, "instance"));
  }
  const JsonValue* fam = req.find("generate");
  const std::string family = string_field(*fam, "generate");
  int size = 0;
  std::uint64_t seed = 1;
  if (const JsonValue* s = req.find("size")) size = size_field(*s, "size");
  if (const JsonValue* s = req.find("gen_seed")) seed = id_field(*s, "gen_seed");
  return gen::generate_sized(family, size, 1.0, seed);
}

/// One key per distinct instance source, so the prototype cache can serve
/// repeated requests without re-reading files or re-generating.
std::string source_key(const JsonValue& req) {
  if (const JsonValue* file = req.find("instance_file")) {
    return "file:" + string_field(*file, "instance_file");
  }
  if (const JsonValue* text = req.find("instance")) {
    return "text:" + string_field(*text, "instance");
  }
  if (const JsonValue* fam = req.find("generate")) {
    std::string key = "gen:" + string_field(*fam, "generate");
    if (const JsonValue* s = req.find("size")) {
      key += ":size=" + std::to_string(size_field(*s, "size"));
    }
    if (const JsonValue* s = req.find("gen_seed")) {
      key += ":seed=" + std::to_string(id_field(*s, "gen_seed"));
    }
    return key;
  }
  throw Error(
      "request needs an instance source: one of instance_file, generate "
      "or instance");
}

const char* const kKnownKeys[] = {
    "op",     "id",       "session",  "instance_file", "generate",
    "size",   "gen_seed", "instance", "demand",        "alpha",
    "strategy", "backend", "deadline_ms", "max_iters",
};

void reject_unknown_keys(const JsonValue& req) {
  for (const auto& [key, value] : req.as_object()) {
    bool known = false;
    for (const char* k : kKnownKeys) {
      if (key == k) {
        known = true;
        break;
      }
    }
    if (!known) throw Error("unknown request field '" + key + "'");
  }
}

}  // namespace

engine::Instance PrototypeCache::get(const JsonValue& request) {
  const std::string key = source_key(request);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      it->second.last_use = ++clock_;
      return it->second.inst;
    }
  }
  engine::Instance built = build_instance(request);  // slow: outside the lock
  if (capacity_ == 0) return built;  // nothing to keep, nothing to evict
  const std::lock_guard<std::mutex> lock(mu_);
  if (cache_.size() >= capacity_ && cache_.find(key) == cache_.end()) {
    cache_.erase(std::min_element(cache_.begin(), cache_.end(),
                                  [](const auto& a, const auto& b) {
                                    return a.second.last_use < b.second.last_use;
                                  }));
  }
  auto& slot = cache_[key];
  slot.inst = std::move(built);
  slot.last_use = ++clock_;
  return slot.inst;
}

ParsedLine parse_line(const std::string& text, PrototypeCache& prototypes,
                      std::uint64_t* id_seen,
                      EquilibriumBackend default_backend) {
  ParsedLine out;
  JsonValue req;
  try {
    req = JsonValue::parse(text);
  } catch (const JsonParseError& e) {
    throw Error(e.message + " (byte " + std::to_string(e.offset) + ")");
  }
  if (!req.is_object()) throw Error("request must be an object");
  if (const JsonValue* v = req.find("id")) {
    out.id = id_field(*v, "id");
    if (id_seen != nullptr) *id_seen = out.id;
  }
  reject_unknown_keys(req);

  const JsonValue* opv = req.find("op");
  if (!opv) throw Error("missing required field 'op'");
  const std::string op = string_field(*opv, "op");

  if (const JsonValue* v = req.find("session")) {
    out.client_session = id_field(*v, "session");
  }

  if (op == "close") {
    out.op = ParsedLine::Op::kClose;
    return out;
  }

  out.op = ParsedLine::Op::kSolve;
  out.solve.id = out.id;
  out.solve.kind = engine::parse_request_kind(op);
  out.solve.instance = prototypes.get(req);
  if (const JsonValue* v = req.find("demand")) {
    sweep::override_demand(out.solve.instance, number_field(*v, "demand"));
  }
  if (const JsonValue* v = req.find("alpha")) {
    out.solve.alpha = number_field(*v, "alpha");
  }
  if (const JsonValue* v = req.find("strategy")) {
    out.solve.strategy = parse_strategy(string_field(*v, "strategy"));
  }
  // The registry's own parse, so new backends need no transport change;
  // without the field, the server's configured default applies.
  out.solve.backend = default_backend;
  if (const JsonValue* v = req.find("backend")) {
    try {
      out.solve.backend =
          parse_equilibrium_backend(string_field(*v, "backend"));
    } catch (const Error& e) {
      throw Error(std::string("field 'backend': ") + e.what());
    }
  }
  if (const JsonValue* v = req.find("deadline_ms")) {
    out.solve.budget.deadline_ms = number_field(*v, "deadline_ms");
  }
  if (const JsonValue* v = req.find("max_iters")) {
    out.solve.budget.max_iters = static_cast<long long>(
        integer_field(*v, "max_iters", 0.0, kMaxExactInt));
  }
  return out;
}

std::string response_json(const engine::SolveResponse& resp,
                          bool with_bytes) {
  using io::json_escape;
  using io::json_number;
  std::ostringstream os;
  os << "{\"id\":" << resp.id << ",\"ok\":" << (resp.ok ? "true" : "false");
  if (!resp.ok) {
    os << ",\"error\":\"" << json_escape(resp.error) << "\"";
    if (resp.status == SolveStatus::kOverloaded) {
      os << ",\"status\":\"" << to_string(resp.status) << "\"";
    }
    os << "}";
    return os.str();
  }
  os << ",\"kind\":\"" << to_string(resp.kind) << "\""
     << ",\"status\":\"" << to_string(resp.status) << "\"";
  const auto field = [&os](const char* name, double v) {
    if (std::isfinite(v)) os << ",\"" << name << "\":" << json_number(v);
  };
  field("cost", resp.cost);
  field("beta", resp.beta);
  field("optimum_cost", resp.optimum_cost);
  field("ratio", resp.ratio);
  os << ",\"warm\":" << (resp.warm ? "true" : "false");
  if (with_bytes) os << ",\"bytes\":" << resp.engine_bytes;
  os << ",\"millis\":" << json_number(resp.millis) << "}";
  return os.str();
}

std::string error_json(std::uint64_t id, std::size_t line,
                       const std::string& message) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"ok\":false,\"error\":\"line " << line << ": "
     << io::json_escape(message) << "\"}";
  return os.str();
}

std::string overloaded_json(std::uint64_t id, std::size_t line,
                            const std::string& message) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"ok\":false,\"error\":\"line " << line << ": "
     << io::json_escape(message) << "\",\"status\":\"overloaded\"}";
  return os.str();
}

}  // namespace stackroute::serve
