// FrontEnd: the multi-client request multiplexer of stackroute-serve.
// N clients (stdin, replay, socket connections) feed request lines into
// one resident Engine through a shared worker pool, under:
//
//   * admission control — a bounded global queue plus a bounded per-client
//     queue. A client admitted with Admission::kShed gets excess lines
//     answered immediately with a typed "overloaded" error (the queue is
//     never grown past its bound); Admission::kBlock makes submit_line
//     block until there is room — the stdin driver uses it so single-
//     client streams keep the sequential transport's exact output.
//   * fair scheduling — workers pick the next runnable client round-robin
//     by client id, one request in flight per client at a time. The
//     in-flight cap of one is what keeps each client's responses in
//     submission order (responses are identified by id, but ordered
//     streams make the single-client transport byte-stable).
//   * backpressure — each client's formatted responses wait in a bounded
//     byte-counted buffer until its transport pops them (next_response).
//     A client whose buffer is full is simply not scheduled, so a slow
//     reader backs up into its own queue and then into shedding, never
//     into unbounded server memory.
//   * cancellation — abort_client (connection dropped) discards the
//     client's queued lines and buffered responses, flags its in-flight
//     request's cancel token (the engine answers a queued-but-unstarted
//     request with a typed shed and touches no warm state), and releases
//     the client's engine sessions once the in-flight solve drains.
//
// Workers call Engine::solve directly: each solve runs single-threaded on
// its worker, all parallelism comes from the worker pool, and other
// callers of the same or any other Engine are never blocked by it.
//
// Thread model: submit_line / next_response / finish_client /
// abort_client are safe from any thread; a client's lines must be
// submitted from one thread at a time (the connection's reader). Destroy
// only after every transport thread using this FrontEnd has exited.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "stackroute/engine/engine.h"
#include "stackroute/obs/profile.h"
#include "stackroute/serve/protocol.h"

namespace stackroute::serve {

enum class Admission {
  kBlock,  // submit_line waits for queue room (single trusted client)
  kShed,   // full queues answer with a typed "overloaded" error
};

struct FrontEndOptions {
  /// Solver worker threads (engine concurrency = min(workers, clients)).
  std::size_t workers = 2;
  /// Global bound on queued (not yet started) request lines.
  std::size_t max_queue = 256;
  /// Per-client bound on queued request lines.
  std::size_t max_client_queue = 16;
  /// Per-client bound on buffered formatted responses, in bytes; a client
  /// at the bound is not scheduled until its transport drains some.
  std::size_t write_buffer_bytes = 1 << 20;
  /// Per-client cap on concurrently open engine sessions.
  std::size_t max_client_sessions = 256;
  /// Parsed/generated instances kept by source; 0 keeps none.
  std::size_t prototype_cache_capacity = 64;
  /// Append "bytes" (engine resident bytes) to ok responses.
  bool show_bytes = false;
  /// Backend for requests that do not set "backend" — the server's
  /// --backend flag (see solver/backend.h).
  EquilibriumBackend default_backend = EquilibriumBackend::kBush;
};

struct FrontEndStats {
  // Transport tally — the stderr summary's inputs, matching the
  // single-threaded transport's semantics line for line.
  std::uint64_t requests = 0;  // lines submitted (incl. shed/refused)
  std::uint64_t errors = 0;    // !ok responses of any shape
  std::uint64_t degraded = 0;  // ok but not solve_ok(status)
  // Admission-control counters.
  std::uint64_t shed = 0;      // answered "overloaded": queues full
  std::uint64_t refused = 0;   // answered "overloaded": shutting down
  std::uint64_t cancelled_lines = 0;  // queued lines dropped by abort
  std::size_t peak_queue = 0;  // high-water mark of the global queue
  /// Per-request solve latencies in ms (solve attempts only, like the
  /// sequential transport's tally) — a fixed-size histogram, so a server
  /// that runs for days keeps a constant-size tally.
  obs::LogHistogram millis;
};

class FrontEnd {
 public:
  FrontEnd(engine::Engine& engine, FrontEndOptions opts);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Registers a client and returns its id.
  std::uint64_t add_client(Admission admission);

  /// Feeds one raw request line (no trailing newline) with its
  /// per-client line number. Every submitted line produces at most one
  /// response in the client's buffer — exactly one unless the client is
  /// aborted or the buffer is already at its bound (an unread client is
  /// not owed error deliveries). Blank lines should be skipped (not
  /// submitted) by the transport, which still counts their line numbers.
  void submit_line(std::uint64_t client, std::string text,
                   std::size_t line_no);

  /// Injects a pre-formed per-line error (e.g. "request line too long"
  /// from a transport that refused to even buffer the line). Ordered
  /// with the client's submitted lines, subject to the same admission.
  void submit_error(std::uint64_t client, std::size_t line_no,
                    const std::string& message);

  /// Blocks for the client's next buffered response line. Returns false
  /// when the client is finished (EOF seen and everything drained) or
  /// aborted — the transport's signal to close.
  bool next_response(std::uint64_t client, std::string* out);

  /// EOF from the client: queued lines still run; next_response drains
  /// the buffer and then returns false.
  void finish_client(std::uint64_t client);

  /// Connection dropped: discards queued lines and buffered responses,
  /// cancels the in-flight request if it has not started solving, and
  /// releases the client's engine sessions. Idempotent.
  void abort_client(std::uint64_t client);

  /// Unregisters a finished/aborted client, closing any engine sessions
  /// it still holds. Call after next_response returned false.
  void remove_client(std::uint64_t client);

  /// Stops admitting: every later (or currently blocked) submit_line is
  /// answered with a typed "overloaded" refusal. In-flight and already-
  /// queued work still completes (bounded by the queue caps). Clients are
  /// NOT auto-finished — transports keep reading so late lines get their
  /// typed refusals, and drive finish_client from their own EOF (the
  /// socket server forces one by SHUT_RDing every connection).
  void begin_shutdown();

  /// Blocks until no queued or in-flight work remains.
  void drain();

  [[nodiscard]] FrontEndStats stats() const;

 private:
  struct Item {
    std::string text;        // raw request line (when !premade)
    std::size_t line_no = 0;
    bool premade = false;    // carry `error` instead of parsing text
    std::string error;
  };
  enum class ClientState { kAccepting, kFinishing, kAborted };
  struct Client {
    Admission admission = Admission::kShed;
    ClientState state = ClientState::kAccepting;
    std::deque<Item> queue;
    bool busy = false;  // one line being processed right now
    std::deque<std::string> responses;
    std::size_t response_bytes = 0;
    std::map<std::uint64_t, std::uint64_t> sessions;  // client -> engine id
    std::atomic<bool> cancelled{false};
  };

  void worker_main();
  /// Shared admission path of submit_line/submit_error.
  void submit_item(std::uint64_t client, Item item);
  /// Round-robin scan for the next runnable client; null when none.
  Client* pick_client_locked(std::uint64_t* id);
  /// Runs one item to a formatted response (no lock held). Touches only
  /// this client's session map — safe because one item per client runs
  /// at a time.
  std::string process(Client& c, const Item& item, bool* is_error,
                      bool* is_degraded, double* millis);
  void push_response_locked(Client& c, std::string line);
  static bool finished_locked(const Client& c);

  engine::Engine& engine_;
  FrontEndOptions opts_;
  PrototypeCache prototypes_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: runnable client appeared
  std::condition_variable space_cv_;  // blocking submitters: queue room
  std::condition_variable resp_cv_;   // transports: response/finish/abort
  std::condition_variable idle_cv_;   // drain(): all work done
  std::map<std::uint64_t, std::unique_ptr<Client>> clients_;
  std::uint64_t next_client_ = 1;
  std::uint64_t rr_cursor_ = 0;
  std::size_t global_queued_ = 0;
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
  bool stopping_ = false;
  FrontEndStats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace stackroute::serve
