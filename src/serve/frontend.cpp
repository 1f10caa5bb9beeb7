#include "stackroute/serve/frontend.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "stackroute/util/error.h"

namespace stackroute::serve {

namespace {

/// Digs the id out of a line that is about to be shed without parsing it
/// into a request — best effort: a malformed line sheds under id 0.
std::uint64_t best_effort_id(const std::string& text) {
  try {
    const io::JsonValue v = io::JsonValue::parse(text);
    if (!v.is_object()) return 0;
    if (const io::JsonValue* id = v.find("id")) {
      const double d = id->as_number();
      if (d >= 0.0 && d <= 9007199254740992.0 && d == std::floor(d)) {
        return static_cast<std::uint64_t>(d);
      }
    }
  } catch (...) {
  }
  return 0;
}

}  // namespace

FrontEnd::FrontEnd(engine::Engine& engine, FrontEndOptions opts)
    : engine_(engine),
      opts_(opts),
      prototypes_(opts.prototype_cache_capacity) {
  if (opts_.workers == 0) opts_.workers = 1;
  workers_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

FrontEnd::~FrontEnd() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  resp_cv_.notify_all();
  space_cv_.notify_all();
  idle_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::uint64_t FrontEnd::add_client(Admission admission) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_client_++;
  auto client = std::make_unique<Client>();
  client->admission = admission;
  clients_.emplace(id, std::move(client));
  return id;
}

void FrontEnd::submit_line(std::uint64_t client, std::string text,
                           std::size_t line_no) {
  Item item;
  item.text = std::move(text);
  item.line_no = line_no;
  submit_item(client, std::move(item));
}

void FrontEnd::submit_error(std::uint64_t client, std::size_t line_no,
                            const std::string& message) {
  Item item;
  item.line_no = line_no;
  item.premade = true;
  item.error = message;
  submit_item(client, std::move(item));
}

void FrontEnd::submit_item(std::uint64_t client, Item item) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = clients_.find(client);
  if (it == clients_.end()) return;
  Client& c = *it->second;
  if (c.state == ClientState::kAborted) return;
  // After EOF a client cannot submit; under shutdown, finishing clients
  // still receive typed refusals for lines already in flight on the wire.
  if (c.state == ClientState::kFinishing && !shutdown_) return;
  ++stats_.requests;

  const auto room = [&] {
    return global_queued_ < opts_.max_queue &&
           c.queue.size() < opts_.max_client_queue;
  };
  if (!shutdown_ && !room() && c.admission == Admission::kBlock) {
    space_cv_.wait(lock, [&] {
      return shutdown_ || c.state == ClientState::kAborted || room();
    });
    if (c.state == ClientState::kAborted) return;
  }
  if (shutdown_ || !room()) {
    const bool refusal = shutdown_;
    ++stats_.errors;
    if (refusal) {
      ++stats_.refused;
    } else {
      ++stats_.shed;
    }
    // The shed/refusal response is itself subject to the write-buffer
    // bound: a client that is not reading is not owed error deliveries.
    if (c.response_bytes < opts_.write_buffer_bytes) {
      const std::uint64_t id = item.premade ? 0 : best_effort_id(item.text);
      push_response_locked(
          c, overloaded_json(id, item.line_no,
                             refusal ? "server shutting down: request refused"
                                     : "server overloaded: request shed "
                                       "(queue full)"));
    }
    return;
  }

  c.queue.push_back(std::move(item));
  ++global_queued_;
  stats_.peak_queue = std::max(stats_.peak_queue, global_queued_);
  work_cv_.notify_one();
}

bool FrontEnd::finished_locked(const Client& c) {
  if (c.state == ClientState::kAborted) return true;
  return c.state == ClientState::kFinishing && c.queue.empty() && !c.busy &&
         c.responses.empty();
}

bool FrontEnd::next_response(std::uint64_t client, std::string* out) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = clients_.find(client);
  if (it == clients_.end()) return false;
  Client& c = *it->second;
  resp_cv_.wait(lock, [&] {
    return stopping_ || !c.responses.empty() || finished_locked(c);
  });
  if (!c.responses.empty()) {
    *out = std::move(c.responses.front());
    c.responses.pop_front();
    c.response_bytes -= std::min(c.response_bytes, out->size());
    // Freed write-buffer room may make this client schedulable again.
    work_cv_.notify_all();
    return true;
  }
  return false;
}

void FrontEnd::finish_client(std::uint64_t client) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = clients_.find(client);
    if (it == clients_.end()) return;
    Client& c = *it->second;
    if (c.state == ClientState::kAccepting) c.state = ClientState::kFinishing;
  }
  resp_cv_.notify_all();
}

void FrontEnd::abort_client(std::uint64_t client) {
  std::map<std::uint64_t, std::uint64_t> to_close;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = clients_.find(client);
    if (it == clients_.end()) return;
    Client& c = *it->second;
    if (c.state == ClientState::kAborted) return;
    c.state = ClientState::kAborted;
    c.cancelled.store(true, std::memory_order_release);
    stats_.cancelled_lines += c.queue.size();
    global_queued_ -= std::min(global_queued_, c.queue.size());
    c.queue.clear();
    c.responses.clear();
    c.response_bytes = 0;
    // A busy client's sessions are released by the worker when its
    // in-flight request drains (the worker owns the session map until
    // then).
    if (!c.busy) {
      to_close = std::move(c.sessions);
      c.sessions.clear();
    }
    if (global_queued_ == 0 && in_flight_ == 0) idle_cv_.notify_all();
  }
  space_cv_.notify_all();
  resp_cv_.notify_all();
  work_cv_.notify_all();
  for (const auto& [client_session, engine_session] : to_close) {
    engine_.close_session(engine_session);
  }
}

void FrontEnd::remove_client(std::uint64_t client) {
  std::map<std::uint64_t, std::uint64_t> to_close;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = clients_.find(client);
    if (it == clients_.end()) return;
    Client& c = *it->second;
    // An aborted client's in-flight request may still be running; its
    // worker holds a pointer to the Client, so wait it out before
    // erasing.
    resp_cv_.wait(lock, [&] { return !c.busy; });
    to_close = std::move(c.sessions);
    clients_.erase(it);
  }
  for (const auto& [client_session, engine_session] : to_close) {
    engine_.close_session(engine_session);
  }
}

void FrontEnd::begin_shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Clients keep their state: a transport that keeps reading after the
    // signal still gets typed refusals delivered (its writer must stay
    // alive until the transport's own EOF — the socket server forces one
    // with SHUT_RD, the stdin driver reads to end-of-stream).
  }
  work_cv_.notify_all();
  resp_cv_.notify_all();
  space_cv_.notify_all();
}

void FrontEnd::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return global_queued_ == 0 && in_flight_ == 0; });
}

FrontEndStats FrontEnd::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

FrontEnd::Client* FrontEnd::pick_client_locked(std::uint64_t* id) {
  if (clients_.empty()) return nullptr;
  auto it = clients_.upper_bound(rr_cursor_);
  for (std::size_t n = 0; n < clients_.size(); ++n, ++it) {
    if (it == clients_.end()) it = clients_.begin();
    Client& c = *it->second;
    if (c.state != ClientState::kAborted && !c.busy && !c.queue.empty() &&
        c.response_bytes < opts_.write_buffer_bytes) {
      rr_cursor_ = it->first;
      *id = it->first;
      return &c;
    }
  }
  return nullptr;
}

void FrontEnd::worker_main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::uint64_t cid = 0;
    Client* c = nullptr;
    work_cv_.wait(lock, [&] {
      return stopping_ || (c = pick_client_locked(&cid)) != nullptr;
    });
    if (stopping_) return;
    Item item = std::move(c->queue.front());
    c->queue.pop_front();
    --global_queued_;
    c->busy = true;
    ++in_flight_;
    space_cv_.notify_all();
    lock.unlock();

    bool is_error = false;
    bool is_degraded = false;
    double millis = -1.0;
    std::string line = process(*c, item, &is_error, &is_degraded, &millis);

    std::map<std::uint64_t, std::uint64_t> to_close;
    lock.lock();
    c->busy = false;
    --in_flight_;
    if (is_error) ++stats_.errors;
    if (is_degraded) ++stats_.degraded;
    if (millis >= 0.0) stats_.millis.add(millis);
    if (c->state == ClientState::kAborted) {
      // The response has no reader; finish the teardown abort_client
      // deferred to us.
      to_close = std::move(c->sessions);
      c->sessions.clear();
    } else {
      push_response_locked(*c, std::move(line));
    }
    if (global_queued_ == 0 && in_flight_ == 0) idle_cv_.notify_all();
    work_cv_.notify_all();
    resp_cv_.notify_all();
    if (!to_close.empty()) {
      lock.unlock();
      for (const auto& [client_session, engine_session] : to_close) {
        engine_.close_session(engine_session);
      }
      lock.lock();
    }
  }
}

std::string FrontEnd::process(Client& c, const Item& item, bool* is_error,
                              bool* is_degraded, double* millis) {
  if (item.premade) {
    *is_error = true;
    return error_json(0, item.line_no, item.error);
  }
  std::uint64_t id = 0;
  try {
    ParsedLine p =
        parse_line(item.text, prototypes_, &id, opts_.default_backend);
    if (p.op == ParsedLine::Op::kClose) {
      const auto sit = c.sessions.find(p.client_session);
      const bool known = sit != c.sessions.end();
      if (known) {
        engine_.close_session(sit->second);
        c.sessions.erase(sit);
      }
      std::ostringstream os;
      os << "{\"id\":" << p.id << ",\"ok\":" << (known ? "true" : "false");
      if (!known) {
        os << ",\"error\":\"line " << item.line_no << ": unknown session "
           << p.client_session << "\"";
        *is_error = true;
      }
      os << "}";
      return os.str();
    }
    if (p.client_session != 0) {
      auto sit = c.sessions.find(p.client_session);
      if (sit == c.sessions.end()) {
        if (c.sessions.size() >= opts_.max_client_sessions) {
          throw Error("too many open sessions (cap " +
                      std::to_string(opts_.max_client_sessions) +
                      "): close unused sessions first");
        }
        sit = c.sessions.emplace(p.client_session, engine_.open_session())
                  .first;
      }
      p.solve.session = sit->second;
    }
    p.solve.cancel = &c.cancelled;
    engine::SolveResponse resp = engine_.solve(p.solve);
    if (!resp.ok) {
      *is_error = true;
      resp.error = "line " + std::to_string(item.line_no) + ": " + resp.error;
    } else if (!solve_ok(resp.status)) {
      *is_degraded = true;
    }
    *millis = resp.millis;
    return response_json(resp, opts_.show_bytes);
  } catch (const std::exception& e) {
    *is_error = true;
    return error_json(id, item.line_no, e.what());
  }
}

void FrontEnd::push_response_locked(Client& c, std::string line) {
  c.response_bytes += line.size();
  c.responses.push_back(std::move(line));
  resp_cv_.notify_all();
}

}  // namespace stackroute::serve
