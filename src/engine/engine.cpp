#include "stackroute/engine/engine.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <optional>
#include <utility>

#include "stackroute/engine/footprint.h"
#include "stackroute/obs/timing.h"
#include "stackroute/util/error.h"
#include "stackroute/util/parallel.h"

namespace stackroute::engine {

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kEquilibrium:
      return "equilibrium";
    case RequestKind::kOptimum:
      return "optimum";
    case RequestKind::kMop:
      return "mop";
    case RequestKind::kStrategy:
      return "strategy";
  }
  return "?";
}

RequestKind parse_request_kind(const std::string& name) {
  if (name == "equilibrium") return RequestKind::kEquilibrium;
  if (name == "optimum") return RequestKind::kOptimum;
  if (name == "mop") return RequestKind::kMop;
  if (name == "strategy") return RequestKind::kStrategy;
  throw Error("unknown request kind: '" + name +
              "' (expected equilibrium/optimum/mop/strategy)");
}

std::uint64_t Engine::open_session() {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_session_id_++;
  SessionSlot slot;
  slot.session = std::make_unique<SolveSession>();
  slot.bytes = footprint_bytes(*slot.session);
  slot.last_use = ++session_clock_;
  stats_.session_bytes += slot.bytes;
  sessions_.emplace(id, std::move(slot));
  ++stats_.sessions_opened;
  return id;
}

bool Engine::close_session(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  // A request may be running on this session right now (e.g. a front end
  // tearing down a disconnected client); wait for it to finish rather
  // than pulling the session out from under the solve.
  session_cv_.wait(lock, [&] {
    it = sessions_.find(id);
    return it == sessions_.end() || !it->second.busy;
  });
  if (it == sessions_.end()) return false;  // a contender closed it
  stats_.session_bytes -= std::min<std::uint64_t>(stats_.session_bytes,
                                                  it->second.bytes);
  sessions_.erase(it);
  ++stats_.sessions_closed;
  return true;
}

SolveSession* Engine::session(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.session.get();
}

SolveSession* Engine::acquire_session(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.end();
  session_cv_.wait(lock, [&] {
    it = sessions_.find(id);
    return it == sessions_.end() || !it->second.busy;
  });
  if (it == sessions_.end()) return nullptr;
  it->second.busy = true;
  return it->second.session.get();
}

void Engine::release_session(std::uint64_t id) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      SessionSlot& slot = it->second;
      slot.busy = false;
      stats_.session_bytes -= std::min<std::uint64_t>(stats_.session_bytes,
                                                      slot.bytes);
      slot.bytes = footprint_bytes(*slot.session);
      stats_.session_bytes += slot.bytes;
      slot.last_use = ++session_clock_;
      enforce_session_budget_locked();
    }
  }
  session_cv_.notify_all();
}

std::unique_ptr<SolveSession> Engine::acquire_pooled() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (pool_.empty()) return std::make_unique<SolveSession>();
  std::unique_ptr<SolveSession> pooled = std::move(pool_.back());
  pool_.pop_back();
  const std::size_t bytes = footprint_bytes(*pooled);
  pool_bytes_ -= std::min(pool_bytes_, bytes);
  stats_.session_bytes -= std::min<std::uint64_t>(stats_.session_bytes, bytes);
  return pooled;
}

void Engine::release_pooled(std::unique_ptr<SolveSession> pooled) {
  pooled->reset_warm();  // sessionless: no warm carry-over, ever
  const std::size_t bytes = footprint_bytes(*pooled);
  const std::lock_guard<std::mutex> lock(mu_);
  pool_bytes_ += bytes;
  stats_.session_bytes += bytes;
  pool_.push_back(std::move(pooled));
  enforce_session_budget_locked();
}

void Engine::enforce_session_budget_locked() {
  stats_.peak_bytes = std::max(stats_.peak_bytes, resident_bytes_locked());
  const std::size_t budget = opts_.session_budget_bytes;
  if (budget == 0) return;
  // Pooled spares are pure caches — drop them first.
  while (stats_.session_bytes > budget && !pool_.empty()) {
    const std::size_t bytes = footprint_bytes(*pool_.back());
    pool_.pop_back();
    pool_bytes_ -= std::min(pool_bytes_, bytes);
    stats_.session_bytes -= std::min<std::uint64_t>(stats_.session_bytes,
                                                    bytes);
    ++stats_.session_sheds;
  }
  // Then idle sessions, least recently used first, shed their memory (the
  // session object stays; only its buffers and warm payloads go). Busy
  // sessions are skipped — their footprint is re-accounted on release,
  // which re-runs this enforcement.
  while (stats_.session_bytes > budget) {
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second.busy) continue;
      const std::size_t floor_bytes = sizeof(SolveSession) + sizeof(Instance);
      if (it->second.bytes <= floor_bytes) continue;  // already shed
      if (victim == sessions_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == sessions_.end()) break;  // nothing left to shed
    SessionSlot& slot = victim->second;
    slot.session->shed_memory();
    stats_.session_bytes -= std::min<std::uint64_t>(stats_.session_bytes,
                                                    slot.bytes);
    slot.bytes = footprint_bytes(*slot.session);
    stats_.session_bytes += slot.bytes;
    ++stats_.session_sheds;
  }
}

EngineStats Engine::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t Engine::num_sessions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

namespace {

std::vector<LatencyPtr> instance_latencies(const Instance& inst) {
  if (const auto* m = std::get_if<ParallelLinks>(&inst)) return m->links;
  return std::get<NetworkInstance>(inst).graph.latencies();
}

}  // namespace

void Engine::prepare_tables(SolverWorkspace& ws, const Instance& inst) {
  if (opts_.table_cache_capacity == 0) return;
  const std::vector<LatencyPtr> lats = instance_latencies(inst);
  // Pointer-identical to the last compilation: the solvers' own
  // ensure_compiled fast path will hit, nothing to do.
  if (ws.table.compiled_for(lats)) return;
  const std::uint64_t h = latency_set_hash(lats);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (TableCacheEntry& entry : table_cache_) {
      if (entry.hash != h || entry.table.size() != lats.size()) continue;
      bool equal = true;
      for (std::size_t i = 0; i < lats.size() && equal; ++i) {
        equal = latency_equal(*entry.table.source(i), *lats[i]);
      }
      if (!equal) continue;  // 64-bit collision: fall through to compile
      ws.table.adopt(entry.table, lats);
      entry.last_use = ++cache_clock_;
      ++stats_.table_cache_hits;
      return;
    }
  }
  ws.table.ensure_compiled(lats);  // compile outside the lock
  const std::size_t bytes = ws.table.footprint_bytes();
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.table_cache_misses;
  const std::size_t budget = opts_.table_cache_budget_bytes;
  // A single table bigger than the whole byte budget is served to the
  // caller but never cached — caching it would blow the budget by itself.
  if (budget != 0 && bytes > budget) return;
  const auto evict_lru = [&] {
    const auto lru = std::min_element(table_cache_.begin(), table_cache_.end(),
                                      [](const auto& a, const auto& b) {
                                        return a.last_use < b.last_use;
                                      });
    stats_.table_cache_bytes -=
        std::min<std::uint64_t>(stats_.table_cache_bytes, lru->bytes);
    table_cache_.erase(lru);
    ++stats_.table_cache_evictions;
  };
  while (table_cache_.size() >= opts_.table_cache_capacity) evict_lru();
  while (budget != 0 && !table_cache_.empty() &&
         stats_.table_cache_bytes + bytes > budget) {
    evict_lru();
  }
  table_cache_.push_back({h, ws.table, ++cache_clock_, bytes});
  // Charge the cached copy's own capacities (a vector copy may allocate
  // tighter than the original it was copied from).
  table_cache_.back().bytes = table_cache_.back().table.footprint_bytes();
  stats_.table_cache_bytes += table_cache_.back().bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, resident_bytes_locked());
}

SolveResponse Engine::solve_on(SolveSession& session,
                               const SolveRequest& req) {
  SolveResponse resp;
  resp.id = req.id;
  resp.kind = req.kind;
  std::optional<obs::CountersScope> counter_scope;
  if (opts_.collect_counters) counter_scope.emplace(resp.counters);
  obs::Timer timer;
  const bool had_anchor = session.has_prev;
  try {
    // The session keeps its own copy of the instance alive as the next
    // request's warm anchor.
    Instance inst = req.instance;
    prepare_tables(session.ws, inst);

    Evaluation eval(inst, &session);
    resp.warm = eval.warm();
    const SolveBudget& budget =
        req.budget.active() ? req.budget : opts_.default_budget;
    eval.set_budget(budget);
    // The backend seam: every network solve of the request — pe or bush —
    // funnels through the dispatcher; bush solves carry the session's warm
    // state, pe solves run cold.
    eval.set_backend(req.backend);

    switch (req.kind) {
      case RequestKind::kEquilibrium:
        if (eval.is_parallel()) {
          const LinkAssignment& a = eval.parallel_nash();
          resp.cost = cost(eval.links(), a.flows);
        } else {
          resp.cost = eval.network_nash().cost;
        }
        break;
      case RequestKind::kOptimum:
        if (eval.is_parallel()) {
          const LinkAssignment& a = eval.parallel_optimum();
          resp.cost = cost(eval.links(), a.flows);
        } else {
          resp.cost = eval.network_optimum().cost;
        }
        resp.optimum_cost = resp.cost;
        break;
      case RequestKind::kMop:
        resp.cost = eval.stackelberg_cost();
        resp.beta = eval.beta();
        resp.optimum_cost = eval.optimum_cost();
        break;
      case RequestKind::kStrategy:
        if (req.strategy != StrategyKind::kAloof) {
          SR_REQUIRE(req.alpha >= 0.0 && req.alpha <= 1.0,
                     "strategy request needs alpha in [0, 1]");
        }
        resp.cost = eval.strategy_cost(req.strategy, req.alpha);
        resp.optimum_cost = eval.optimum_cost();
        resp.ratio = resp.cost / resp.optimum_cost;
        break;
    }

    resp.status = eval.status();
    eval.finish(std::move(inst));
    resp.ok = true;
  } catch (const std::exception& e) {
    resp.error = e.what();
  } catch (...) {
    resp.error = "unknown error (non-std exception)";
  }
  if (!resp.ok) {
    resp.status = SolveStatus::kNumericFailure;
    if (session.has_prev) obs::count(&obs::SolveCounters::chain_resets);
    session.reset_warm();
  }
  resp.millis = timer.milliseconds();

  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.requests;
  if (!resp.ok) ++stats_.errors;
  if (resp.ok && !solve_ok(resp.status)) ++stats_.degraded;
  if (had_anchor) {
    ++stats_.warm_attempts;
    if (resp.warm) ++stats_.warm_hits;
  }
  return resp;
}

SolveResponse Engine::solve(const SolveRequest& req) {
  // Check the cancellation flag once, before any session work: a request
  // whose client gave up while it sat in a queue is answered with a typed
  // shed instead of burning a solve. Warm state is untouched — the request
  // never reached its session.
  if (req.cancel != nullptr && req.cancel->load(std::memory_order_acquire)) {
    SolveResponse resp;
    resp.id = req.id;
    resp.kind = req.kind;
    resp.ok = false;
    resp.status = SolveStatus::kOverloaded;
    resp.error = "request cancelled before solving";
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    ++stats_.errors;
    ++stats_.cancelled;
    return resp;
  }
  SolveResponse resp;
  if (req.session == 0) {
    // Borrow a pooled session: its workspace (compiled table, buffers)
    // persists across sessionless requests, its warm payloads never do —
    // release_pooled resets them, because which pooled session a request
    // borrows depends on scheduling, so any surviving warm state would
    // make sessionless responses thread-count dependent.
    std::unique_ptr<SolveSession> pooled = acquire_pooled();
    resp = solve_on(*pooled, req);
    release_pooled(std::move(pooled));
  } else {
    SolveSession* s = acquire_session(req.session);
    if (s == nullptr) {
      resp.id = req.id;
      resp.kind = req.kind;
      resp.ok = false;
      resp.status = SolveStatus::kNumericFailure;
      resp.error = "unknown session id " + std::to_string(req.session) +
                   " (open_session first)";
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests;
      ++stats_.errors;
      return resp;
    }
    resp = solve_on(*s, req);
    release_session(req.session);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  resp.engine_bytes = resident_bytes_locked();
  return resp;
}

std::vector<SolveResponse> Engine::solve_batch(
    std::span<const SolveRequest> reqs) {
  // Shard by session: one group per session (its requests run in
  // submission order on one thread — the chain discipline), one group per
  // sessionless request (they are independent).
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::uint64_t, std::size_t> group_of;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::uint64_t sid = reqs[i].session;
    if (sid == 0) {
      groups.push_back({i});
      continue;
    }
    const auto [it, fresh] = group_of.emplace(sid, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  std::vector<SolveResponse> out(reqs.size());
  parallel_for(groups.size(), [&](std::size_t g) {
    for (const std::size_t i : groups[g]) out[i] = solve(reqs[i]);
  });
  return out;
}

}  // namespace stackroute::engine
