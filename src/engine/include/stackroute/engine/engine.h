// Engine: the resident solve service underneath the sweep CLI and the
// serve transport.
//
// An Engine owns what a long-lived solver process needs across requests:
//
//   * sessions — persistent SolveSessions (workspace + warm payloads,
//     see session.h) keyed by id. Consecutive requests in one session
//     warm-start each other whenever their instances are value-compatible
//     (warm_compatible in instance.h: requests arrive freshly
//     deserialized, so pointer identity is useless here).
//   * a session pool — sessionless (session = 0) requests borrow a
//     pooled session (its workspace persists, its warm payloads are reset
//     after every request) instead of allocating one per request.
//   * a compiled-LatencyTable cache keyed by the *content hash* of the
//     latency set: a fresh session whose instance is value-equal to one
//     the engine has already compiled adopts the cached kernel instead of
//     recompiling (hash fast path + full value-equality check, so a
//     collision can never cause wrong reuse — see instance.h).
//
// Every solve runs single-threaded on its caller's thread. solve() may be
// called from any number of threads at once; solve_batch fans its requests
// out over util/parallel.h, one group per session (a session's requests
// run in submission order on one thread, exactly the sweep chain
// discipline), so responses are deterministic at any thread count.
//
// The sweep layer is a thin client: SweepRunner opens one session per
// warm chain, and its TaskEval is the same Evaluation typed requests run
// on.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "stackroute/engine/eval.h"
#include "stackroute/engine/instance.h"
#include "stackroute/engine/session.h"
#include "stackroute/obs/counters.h"
#include "stackroute/solver/status.h"

namespace stackroute::engine {

enum class RequestKind {
  kEquilibrium,  // Nash: water-filling / any registered network backend
  kOptimum,      // system optimum
  kMop,          // the paper's MOP: beta + optimal Stackelberg strategy
  kStrategy,     // baseline strategy (Aloof/SCALE/LLF) at a given alpha
};

/// Printable request-kind name ("equilibrium", "optimum", "mop",
/// "strategy"); parse_request_kind is its inverse (throws on unknown).
const char* to_string(RequestKind kind);
RequestKind parse_request_kind(const std::string& name);

struct SolveRequest {
  RequestKind kind = RequestKind::kEquilibrium;
  Instance instance;
  /// Leader fraction for kStrategy (SCALE/LLF read it; Aloof ignores it).
  double alpha = std::numeric_limits<double>::quiet_NaN();
  StrategyKind strategy = StrategyKind::kAloof;
  /// Backend of every network solve the request runs — Nash, optimum,
  /// MOP and the baselines' induced solves (see solver/backend.h; parallel
  /// links always water-fill). Only bush solves chain warm on a session;
  /// a pe request solves cold and leaves the payload slots it runs
  /// through empty.
  EquilibriumBackend backend = EquilibriumBackend::kBush;
  /// Optional per-request budget; when inactive the engine's default
  /// applies. Armed per request — the deadline starts when the solve does.
  SolveBudget budget;
  /// Session id from open_session(); 0 = sessionless (pooled session,
  /// no warm carry-over).
  std::uint64_t session = 0;
  /// Caller tag, echoed verbatim in the response.
  std::uint64_t id = 0;
  /// Optional cancellation flag, owned by the caller and set from any
  /// thread (e.g. a serve front end noticing the client disconnected). The
  /// engine checks it once, on entry: a request already cancelled when its
  /// turn comes is answered with a typed kOverloaded error instead of
  /// being solved, and the session's warm state is left untouched. A solve
  /// already running is not interrupted (use SolveBudget for bounded solve
  /// time); the caller simply discards the response.
  const std::atomic<bool>* cancel = nullptr;
};

struct SolveResponse {
  std::uint64_t id = 0;
  bool ok = false;
  std::string error;  // set when !ok
  RequestKind kind = RequestKind::kEquilibrium;
  SolveStatus status = SolveStatus::kConverged;
  /// The headline value: C(N) for equilibrium, C(O) for optimum, the
  /// optimal C(S+T) for MOP, the baseline's C(S+T) for strategy.
  double cost = std::numeric_limits<double>::quiet_NaN();
  /// MOP extras (NaN otherwise).
  double beta = std::numeric_limits<double>::quiet_NaN();
  /// C(O) — filled by kOptimum, kMop and kStrategy.
  double optimum_cost = std::numeric_limits<double>::quiet_NaN();
  /// kStrategy: cost / optimum_cost.
  double ratio = std::numeric_limits<double>::quiet_NaN();
  /// True when the session's warm state carried into this solve.
  bool warm = false;
  double millis = 0.0;
  /// Engine resident-memory reading right after this request finished:
  /// compiled-table cache bytes + tracked session/pool bytes (see
  /// EngineStats). Zero for requests that never touched a session slot
  /// (unknown-session errors, cancelled-before-solve).
  std::uint64_t engine_bytes = 0;
  /// This request's solver work counters (all zero unless
  /// EngineOptions::collect_counters).
  obs::SolveCounters counters;
};

struct EngineOptions {
  /// Install a counter sink per request (response.counters).
  bool collect_counters = false;
  /// Compiled-table cache entries kept (LRU beyond this); 0 disables.
  std::size_t table_cache_capacity = 64;
  /// Byte budget for the compiled-table cache (0 = entry-count LRU only).
  /// Eviction is LRU *by bytes*: entries are dropped until the cache fits,
  /// and a single table larger than the whole budget is served but never
  /// cached. Enforced at insert time, so the budget is never exceeded.
  std::size_t table_cache_budget_bytes = 0;
  /// Byte budget for the session set (open sessions + the sessionless
  /// workspace pool); 0 = unlimited. When a finished solve leaves the
  /// total above budget, pooled spares are dropped and then idle sessions
  /// shed their memory (warm payloads + workspace buffers) LRU-first —
  /// sessions stay open and correct, they just re-warm from cold. Each
  /// session's charge covers its whole workspace, solver scratch included
  /// (see footprint.h). Only requests served through solve()/solve_batch()
  /// are accounted; sessions driven directly via session() (the sweep
  /// path) must not rely on this budget.
  std::size_t session_budget_bytes = 0;
  /// Applied to requests whose own budget is inactive.
  SolveBudget default_budget;
};

/// Cumulative service counters (diagnostic; see also per-request
/// SolveResponse::counters).
struct EngineStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;    // !ok responses
  std::uint64_t degraded = 0;  // ok but not solve_ok(status)
  std::uint64_t warm_attempts = 0;  // session requests with a warm anchor
  std::uint64_t warm_hits = 0;      // ... whose compatibility test passed
  std::uint64_t table_cache_hits = 0;
  std::uint64_t table_cache_misses = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t cancelled = 0;  // requests answered kOverloaded because
                                // their cancel flag was set on entry
  // --- memory accounting (see footprint.h) ------------------------------
  std::uint64_t table_cache_bytes = 0;  // current compiled-table cache
  std::uint64_t session_bytes = 0;      // current sessions + pooled spares
  /// High-water mark of table_cache_bytes + session_bytes, sampled at
  /// every accounting update — the figure the saturation benchmark checks
  /// against the configured budgets.
  std::uint64_t peak_bytes = 0;
  std::uint64_t table_cache_evictions = 0;  // entries dropped (LRU or byte
                                            // budget)
  std::uint64_t session_sheds = 0;  // sessions/pool spares that gave up
                                    // their memory under the byte budget
};

/// Holds nothing; kept only because perfbench/ still declares one.
struct SolverPin {
  SolverPin() {}  // user-provided, so an unused `const SolverPin` is silent
};

class Engine {
 public:
  explicit Engine(EngineOptions opts = {}) : opts_(opts) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Creates a fresh session and returns its id (never 0).
  std::uint64_t open_session();
  /// Destroys a session (its warm state and workspace); false if unknown.
  bool close_session(std::uint64_t id);
  /// Borrows a session for direct use — the sweep runner's path: it runs
  /// one chain per session through Evaluation itself. Null if unknown.
  /// The caller owns the thread discipline (one session, one thread).
  [[nodiscard]] SolveSession* session(std::uint64_t id);

  /// Serves one request in the caller's thread. Never throws: failures
  /// come back as !ok responses and reset the session's warm state. Safe
  /// to call from any number of threads at once, on any number of
  /// engines; a sessionless response is identical to a serial call's.
  /// Concurrent calls naming the same session id queue on it in arrival
  /// order — a session serves one request at a time.
  SolveResponse solve(const SolveRequest& req);

  /// solve() under its former name, kept only because perfbench/ calls it.
  SolveResponse solve_pinned(const SolveRequest& req) { return solve(req); }

  /// Serves a batch: requests are grouped by session id (group order =
  /// first appearance, intra-group order = submission order) and the
  /// groups fan out over util/parallel.h's threads, each group on one.
  /// Responses line up index-for-index with the requests and are bitwise
  /// identical at any thread count.
  std::vector<SolveResponse> solve_batch(std::span<const SolveRequest> reqs);

  [[nodiscard]] const EngineOptions& options() const { return opts_; }
  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] std::size_t num_sessions() const;

 private:
  /// The typed-request core: runs `req` on `session` (a client's, or a
  /// pooled one whose warm state is reset afterwards). Assumes exclusive
  /// use of the session.
  SolveResponse solve_on(SolveSession& session, const SolveRequest& req);
  /// Seeds `ws.table` for `inst` from the content-hash cache (adopt) or
  /// compiles and caches. The sweep client never comes through here — its
  /// chains keep the pointer-identity fast path untouched.
  void prepare_tables(SolverWorkspace& ws, const Instance& inst);

  /// Marks the session busy (waiting while another request holds it);
  /// null when the id is unknown. Every acquire must be paired with
  /// release_session, which re-accounts the session's footprint, enforces
  /// the session byte budget and wakes contenders.
  SolveSession* acquire_session(std::uint64_t id);
  void release_session(std::uint64_t id);
  /// Pooled-workspace checkout for sessionless requests (same accounting).
  std::unique_ptr<SolveSession> acquire_pooled();
  void release_pooled(std::unique_ptr<SolveSession> pooled);
  /// With mu_ held: recompute totals, shed LRU idle sessions / drop pool
  /// spares until session_bytes fits the budget, refresh peak_bytes.
  void enforce_session_budget_locked();
  [[nodiscard]] std::uint64_t resident_bytes_locked() const {
    return stats_.table_cache_bytes + stats_.session_bytes;
  }

  EngineOptions opts_;

  mutable std::mutex mu_;  // guards everything below
  std::condition_variable session_cv_;  // busy-session handoff
  std::uint64_t next_session_id_ = 1;
  struct SessionSlot {
    std::unique_ptr<SolveSession> session;
    std::size_t bytes = 0;        // footprint at last release
    std::uint64_t last_use = 0;   // session-LRU clock value
    bool busy = false;            // held by a solve right now
  };
  std::map<std::uint64_t, SessionSlot> sessions_;
  std::vector<std::unique_ptr<SolveSession>> pool_;  // sessionless spares
  std::size_t pool_bytes_ = 0;
  struct TableCacheEntry {
    std::uint64_t hash = 0;
    LatencyTable table;
    std::uint64_t last_use = 0;
    std::size_t bytes = 0;
  };
  std::vector<TableCacheEntry> table_cache_;
  std::uint64_t cache_clock_ = 0;
  std::uint64_t session_clock_ = 0;
  EngineStats stats_;
};

}  // namespace stackroute::engine
