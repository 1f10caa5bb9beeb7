// Serve-protocol building blocks: the line-delimited JSON request schema
// of stackroute-serve, factored out of the tool so the multi-client front
// end (frontend.h), the stdin/replay driver and the saturation benchmark
// all speak exactly the same dialect.
//
// A request line is one JSON object; see the schema comment at the top of
// tools/stackroute_serve.cpp (op / id / session / instance source /
// overrides / budget fields, unknown keys rejected). parse_line turns a
// line into a ParsedLine; the caller owns the client-session -> engine-
// session mapping (it is per client, not per process). Responses are
// formatted by response_json / error_json / overloaded_json; the latter
// carries "status":"overloaded" — the typed shed error of the admission
// controller (SolveStatus::kOverloaded in the solver taxonomy).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "stackroute/engine/engine.h"
#include "stackroute/io/json.h"

namespace stackroute::serve {

/// Thread-safe LRU cache of parsed/generated instances keyed by their
/// source (file path, inline text, or generator spec), so a stream of
/// requests against the same source parses or generates it once. Bounded:
/// a resident process fed ever-varied inline instances must not grow
/// without limit.
class PrototypeCache {
 public:
  explicit PrototypeCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns a copy of the instance the request names (building and
  /// caching it on first sight; a capacity of 0 caches nothing). Throws
  /// stackroute::Error when the request names no source or the source is
  /// malformed. Safe to call from many threads; a cold miss may build the
  /// same instance twice under contention (last insert wins) — wasteful,
  /// never wrong.
  engine::Instance get(const io::JsonValue& request);

 private:
  struct Prototype {
    engine::Instance inst;
    std::uint64_t last_use = 0;
  };
  std::size_t capacity_;
  std::mutex mu_;
  std::map<std::string, Prototype> cache_;
  std::uint64_t clock_ = 0;
};

/// One parsed request line. For kSolve, `solve` is fully populated except
/// for `solve.session` (an *engine* id — the caller maps client_session
/// to it) and `solve.cancel` (the caller's flag, if any).
struct ParsedLine {
  enum class Op { kSolve, kClose };
  Op op = Op::kSolve;
  std::uint64_t id = 0;
  std::uint64_t client_session = 0;
  engine::SolveRequest solve;
};

/// Parses one request line; throws stackroute::Error on any malformed
/// field (message has no "line N:" prefix — the transport adds it). When
/// `id_seen` is non-null it is updated as soon as the id field parses, so
/// a later failure can still be answered under the client's id.
/// `default_backend` is what solves run on when the request carries no
/// "backend" field — the server's --backend flag.
ParsedLine parse_line(
    const std::string& text, PrototypeCache& prototypes,
    std::uint64_t* id_seen,
    EquilibriumBackend default_backend = EquilibriumBackend::kBush);

/// Formats a solve response. Non-finite numeric fields are omitted, not
/// serialized: NaN means "not computed", and a degraded solve can leave
/// an Inf. With `with_bytes`, ok responses carry "bytes": the engine's
/// resident byte reading after the request (budget observability).
std::string response_json(const engine::SolveResponse& resp,
                          bool with_bytes = false);

/// {"id":..,"ok":false,"error":"line N: .."} — the transport's per-line
/// failure shape (parse errors, unknown sessions, solver failures).
std::string error_json(std::uint64_t id, std::size_t line,
                       const std::string& message);

/// error_json plus "status":"overloaded" — the typed admission-control
/// shed/refusal. Clients distinguish "retry later" from "fix the request"
/// by this field.
std::string overloaded_json(std::uint64_t id, std::size_t line,
                            const std::string& message);

}  // namespace stackroute::serve
