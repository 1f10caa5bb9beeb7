// stackroute-serve: line-delimited JSON transport over the engine layer.
// Reads one request object per line, serves it through a resident
// engine::Engine, and writes one response object per line. Three modes:
//
//   stackroute-serve                       # serve stdin until EOF
//   stackroute-serve --replay requests.ldjson
//   stackroute-serve --socket /tmp/sr.sock # serve N concurrent clients
//
// stdin/replay serve one client with *blocking* admission, so their
// output is the sequential transport's, byte for byte. --socket accepts
// up to --max-clients Unix-domain connections multiplexed onto one
// engine by a shared worker pool (see serve/frontend.h) under admission
// control: full queues shed requests with a typed "overloaded" error
// instead of growing, slow readers are backpressured through bounded
// write buffers, and a disconnected client's pending work is cancelled
// without poisoning the engine. SIGINT/SIGTERM drain in-flight work,
// refuse new requests with a typed error, flush the stderr summary and
// exit under the normal contract (a second signal force-kills).
//
// Request fields (unknown keys are rejected — typos are errors here):
//   op            "equilibrium" | "optimum" | "mop" | "strategy" | "close"
//   id            number, echoed verbatim in the response (default 0)
//   session       number; requests sharing a session id warm-start each
//                 other (0 / absent = sessionless pooled workspace);
//                 "close" drops the session and its warm state. Session
//                 ids are per connection. At most 256 sessions may be
//                 open at once per client — beyond that, new session ids
//                 are per-line errors until some close.
//   instance_file path to a .links/.net text or TNTP instance
//   generate      generator family name (see stackroute-sweep
//                 --list-generators), with optional size / gen_seed
//   instance      inline serialized instance text (io/serialize format)
//   demand        demand override (scaled proportionally on networks)
//   alpha         Leader fraction for op=strategy (scale/llf)
//   strategy      "aloof" | "scale" | "llf" (op=strategy, default aloof)
//   backend       "pe" | "bush" backend of every network solve the
//                 request runs (default: the server's --backend flag,
//                 itself bush); only bush solves warm-start on a session
//   deadline_ms   per-request wall-clock budget
//   max_iters     per-request iteration budget
//
// Responses: {"id":..,"ok":true,"kind":..,"status":..,"cost":..,...} with
// non-finite fields omitted; a malformed request yields {"id":0,"ok":
// false,"error":"line N: ..."} and the stream continues; a shed or
// refused request additionally carries "status":"overloaded". Lines
// longer than --max-line-bytes are discarded with a per-line error (the
// JSON parser separately caps nesting depth). The stderr summary
// (suppress with --quiet) reports counts, warm hit rate, table cache
// hits, p50/p99 latency, admission-control counters and the engine's
// byte accounting. Exit status mirrors stackroute-sweep: 0 = all
// requests ok and converged; 1 = usage or transport error; 2 = served to
// EOF but some responses failed or were degraded.
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stackroute/engine/engine.h"
#include "stackroute/obs/profile.h"
#include "stackroute/obs/timing.h"
#include "stackroute/serve/frontend.h"
#include "stackroute/serve/protocol.h"
#include "stackroute/util/error.h"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: stackroute-serve [options]\n"
        "  --replay FILE        read requests from FILE instead of stdin\n"
        "  --socket PATH        serve concurrent clients on a Unix socket\n"
        "  --workers N          solver worker threads (default 4)\n"
        "  --max-clients N      concurrent socket connections (default 64)\n"
        "  --max-queue N        global queued-request bound (default 256)\n"
        "  --max-client-queue N per-client queued-request bound (default "
        "16)\n"
        "  --write-buffer-bytes N  per-client response buffer bound\n"
        "                       (default 1048576)\n"
        "  --max-line-bytes N   request-line length cap (default 1048576)\n"
        "  --table-budget-mb N  compiled-table cache byte budget (0 = "
        "off)\n"
        "  --session-budget-mb N  session/workspace byte budget (0 = off)\n"
        "  --backend NAME       default backend of the network solves of\n"
        "                       requests that do not set \"backend\"\n"
        "                       (Nash, optimum, MOP, strategies):\n"
        "                       bush (default) | pe\n"
        "  --quiet              suppress the stderr run summary\n"
        "  --help               show this message\n"
        "Serves line-delimited JSON requests (one object per line) against\n"
        "a resident solve engine; see the header of stackroute_serve.cpp\n"
        "or README.md for the request schema. stdin/replay admission\n"
        "blocks (sequential semantics); socket admission sheds overload\n"
        "with typed \"overloaded\" errors.\n"
        "Exit: 0 clean, 1 usage/transport error, 2 some requests failed\n"
        "or were degraded (their responses carry the detail).\n";
  return code;
}

struct ToolOptions {
  std::string replay;
  std::string socket_path;
  bool quiet = false;
  std::size_t workers = 4;
  std::size_t max_clients = 64;
  std::size_t max_queue = 256;
  std::size_t max_client_queue = 16;
  std::size_t write_buffer_bytes = 1 << 20;
  std::size_t max_line_bytes = 1 << 20;
  std::size_t table_budget_mb = 0;
  std::size_t session_budget_mb = 0;
  stackroute::EquilibriumBackend backend =
      stackroute::EquilibriumBackend::kBush;
};

stackroute::engine::EngineOptions engine_options(const ToolOptions& o) {
  stackroute::engine::EngineOptions opts;
  opts.table_cache_budget_bytes = o.table_budget_mb << 20;
  opts.session_budget_bytes = o.session_budget_mb << 20;
  return opts;
}

stackroute::serve::FrontEndOptions frontend_options(const ToolOptions& o) {
  stackroute::serve::FrontEndOptions opts;
  opts.workers = o.workers;
  opts.max_queue = o.max_queue;
  opts.max_client_queue = o.max_client_queue;
  opts.write_buffer_bytes = o.write_buffer_bytes;
  opts.show_bytes = o.table_budget_mb > 0 || o.session_budget_mb > 0;
  opts.default_backend = o.backend;
  return opts;
}

// ---- signal plumbing ----------------------------------------------------
// The handler writes one byte into a self-pipe the serving loops poll
// alongside their input fds, then re-arms the default disposition so a
// second signal force-kills a wedged drain. sigaction without SA_RESTART
// on purpose: blocked reads should fail with EINTR, not resume.

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = write(g_signal_pipe[1], &byte, 1);
  signal(SIGINT, SIG_DFL);
  signal(SIGTERM, SIG_DFL);
}

bool install_signals() {
  if (pipe2(g_signal_pipe, O_CLOEXEC | O_NONBLOCK) != 0) return false;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  if (sigaction(SIGINT, &sa, nullptr) != 0) return false;
  if (sigaction(SIGTERM, &sa, nullptr) != 0) return false;
  signal(SIGPIPE, SIG_IGN);  // broken client pipes are per-client errors
  return true;
}

// ---- bounded line input -------------------------------------------------

/// Reads newline-delimited lines from an fd with a hard length cap: an
/// over-long line is discarded up to its newline and reported as one
/// kOversized event, so a hostile client cannot balloon server memory.
/// Optionally polls a wake fd (the signal self-pipe) alongside the input.
/// Mirrors std::getline otherwise: the delimiter is stripped, CR is kept,
/// a final unterminated line is still a line.
class FdLineReader {
 public:
  enum class Event { kLine, kOversized, kEof, kError, kSignal };

  FdLineReader(int fd, std::size_t max_line, int wake_fd)
      : fd_(fd), max_line_(max_line), wake_fd_(wake_fd) {}

  Event next(std::string* line) {
    line->clear();
    for (;;) {
      const std::size_t nl = buf_.find('\n', scan_);
      if (nl != std::string::npos) {
        if (skipping_ || nl > max_line_) {
          // Over-long even though its newline is already buffered (one
          // read can deliver many lines): same kOversized as the
          // accumulate-then-skip path.
          buf_.erase(0, nl + 1);
          scan_ = 0;
          skipping_ = false;
          return Event::kOversized;
        }
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scan_ = 0;
        return Event::kLine;
      }
      scan_ = buf_.size();
      if (!skipping_ && buf_.size() > max_line_) {
        buf_.clear();
        scan_ = 0;
        skipping_ = true;
      }
      if (eof_) {
        if (skipping_) {
          skipping_ = false;
          return Event::kOversized;
        }
        if (!buf_.empty()) {
          *line = std::move(buf_);
          buf_.clear();
          scan_ = 0;
          return Event::kLine;  // mid-line EOF: the partial is a line
        }
        return Event::kEof;
      }
      if (wake_fd_ >= 0) {
        struct pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
        const int rc = poll(fds, 2, -1);
        if (rc < 0) {
          if (errno == EINTR) continue;
          return Event::kError;
        }
        if (fds[1].revents != 0) {
          char drain[16];
          while (read(wake_fd_, drain, sizeof(drain)) > 0) {
          }
          return Event::kSignal;
        }
        if (fds[0].revents == 0) continue;
      }
      char tmp[4096];
      const ssize_t n = read(fd_, tmp, sizeof(tmp));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Event::kError;
      }
      if (n == 0) {
        eof_ = true;
        continue;
      }
      if (skipping_) {
        const char* p =
            static_cast<const char*>(std::memchr(tmp, '\n', static_cast<std::size_t>(n)));
        if (p != nullptr) {
          buf_.assign(p + 1, static_cast<std::size_t>(tmp + n - (p + 1)));
          scan_ = 0;
          skipping_ = false;
          return Event::kOversized;
        }
        continue;  // still inside the oversized line: discard
      }
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::size_t max_line_;
  int wake_fd_;
  std::string buf_;
  std::size_t scan_ = 0;
  bool skipping_ = false;
  bool eof_ = false;
};

bool blank_line(const std::string& text) {
  return text.find_first_not_of(" \t\r") == std::string::npos;
}

std::string oversized_message(const ToolOptions& o) {
  return "request line exceeds " + std::to_string(o.max_line_bytes) +
         " bytes";
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE / send-timeout: the client is gone or stuck
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// ---- summary + exit contract --------------------------------------------

void print_summary(const stackroute::serve::FrontEndStats& tally,
                   const stackroute::engine::EngineStats& stats,
                   double total_ms, std::uint64_t conn_refused) {
  std::ostringstream os;
  os << "serve: " << tally.requests << " requests (" << tally.errors
     << " failed, " << tally.degraded << " degraded) in " << total_ms
     << " ms";
  if (total_ms > 0 && tally.requests > 0) {
    os << ", "
       << (1000.0 * static_cast<double>(tally.requests) / total_ms)
       << " req/s";
  }
  os << "\nwarm: " << stats.warm_hits << "/" << stats.warm_attempts
     << " hits; table cache: " << stats.table_cache_hits << " hits / "
     << stats.table_cache_misses << " misses; sessions: "
     << stats.sessions_opened << " opened, " << stats.sessions_closed
     << " closed";
  if (!tally.millis.empty()) {
    os << "\nlatency ms: " << tally.millis.summary().to_string();
  }
  os << "\nadmission: " << tally.shed << " shed, "
     << (tally.refused + conn_refused) << " refused, "
     << tally.cancelled_lines + stats.cancelled << " cancelled, peak queue "
     << tally.peak_queue;
  os << "\nmemory: table cache " << stats.table_cache_bytes << " B ("
     << stats.table_cache_evictions << " evicted), sessions "
     << stats.session_bytes << " B (" << stats.session_sheds
     << " sheds), peak " << stats.peak_bytes << " B";
  std::cerr << os.str() << "\n";
}

int exit_code(const stackroute::serve::FrontEndStats& tally) {
  return (tally.errors > 0 || tally.degraded > 0) ? 2 : 0;
}

// ---- single-client (stdin / replay) mode --------------------------------

int run_single(int in_fd, const ToolOptions& o) {
  stackroute::engine::Engine engine(engine_options(o));
  stackroute::serve::FrontEnd fe(engine, frontend_options(o));
  const std::uint64_t cid =
      fe.add_client(stackroute::serve::Admission::kBlock);
  stackroute::obs::Timer wall;

  std::thread writer([&fe, cid] {
    std::string line;
    while (fe.next_response(cid, &line)) {
      line.push_back('\n');
      if (std::fwrite(line.data(), 1, line.size(), stdout) != line.size()) {
        fe.abort_client(cid);
        break;
      }
      std::fflush(stdout);
    }
  });

  FdLineReader reader(in_fd, o.max_line_bytes, g_signal_pipe[0]);
  std::string text;
  std::size_t line_no = 0;
  bool aborted = false;
  for (bool reading = true; reading;) {
    switch (reader.next(&text)) {
      case FdLineReader::Event::kLine:
        ++line_no;
        // Blank lines are harmless separators, not requests.
        if (!blank_line(text)) fe.submit_line(cid, std::move(text), line_no);
        break;
      case FdLineReader::Event::kOversized:
        ++line_no;
        fe.submit_error(cid, line_no, oversized_message(o));
        break;
      case FdLineReader::Event::kSignal:
        // Drain what is queued, refuse what still arrives (typed), keep
        // consuming input so the writer can deliver the refusals.
        fe.begin_shutdown();
        break;
      case FdLineReader::Event::kEof:
        reading = false;
        break;
      case FdLineReader::Event::kError:
        aborted = true;
        reading = false;
        break;
    }
  }
  if (aborted) {
    fe.abort_client(cid);
  } else {
    fe.finish_client(cid);
  }
  writer.join();
  fe.drain();

  const double total_ms = wall.milliseconds();
  const stackroute::serve::FrontEndStats tally = fe.stats();
  if (!o.quiet) print_summary(tally, engine.stats(), total_ms, 0);
  return aborted ? 1 : exit_code(tally);
}

// ---- socket mode --------------------------------------------------------

void handle_connection(int fd, std::uint64_t cid,
                       stackroute::serve::FrontEnd& fe,
                       const ToolOptions& o) {
  std::thread writer([&fe, fd, cid] {
    std::string line;
    while (fe.next_response(cid, &line)) {
      line.push_back('\n');
      if (!write_all(fd, line)) {
        fe.abort_client(cid);
        break;
      }
    }
    shutdown(fd, SHUT_WR);
  });

  FdLineReader reader(fd, o.max_line_bytes, /*wake_fd=*/-1);
  std::string text;
  std::size_t line_no = 0;
  bool clean = false;
  for (bool reading = true; reading;) {
    const FdLineReader::Event ev = reader.next(&text);
    switch (ev) {
      case FdLineReader::Event::kLine:
        ++line_no;
        if (!blank_line(text)) fe.submit_line(cid, std::move(text), line_no);
        break;
      case FdLineReader::Event::kOversized:
        ++line_no;
        fe.submit_error(cid, line_no, oversized_message(o));
        break;
      default:  // kEof is a clean goodbye, anything else a drop
        clean = ev == FdLineReader::Event::kEof;
        reading = false;
        break;
    }
  }
  if (clean) {
    fe.finish_client(cid);
  } else {
    fe.abort_client(cid);
  }
  writer.join();
  close(fd);
  fe.remove_client(cid);
}

int run_socket(const ToolOptions& o) {
  stackroute::engine::Engine engine(engine_options(o));
  stackroute::serve::FrontEnd fe(engine, frontend_options(o));

  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (o.socket_path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "socket path too long: " << o.socket_path << "\n";
    return 1;
  }
  std::memcpy(addr.sun_path, o.socket_path.c_str(), o.socket_path.size());
  const int listen_fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    std::cerr << "socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  unlink(o.socket_path.c_str());  // replace a stale socket file
  if (bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0 ||
      listen(listen_fd, 128) != 0) {
    std::cerr << "cannot listen on " << o.socket_path << ": "
              << std::strerror(errno) << "\n";
    close(listen_fd);
    return 1;
  }
  if (!o.quiet) std::cerr << "listening on " << o.socket_path << "\n";

  stackroute::obs::Timer wall;
  std::mutex conn_mu;
  std::map<std::uint64_t, int> conn_fds;       // live connections, for wakeup
  std::map<std::uint64_t, std::thread> conn_threads;
  std::vector<std::uint64_t> finished;         // cids ready to reap
  std::atomic<std::size_t> active{0};
  std::uint64_t conn_refused = 0;

  for (;;) {
    {
      // Reap connection threads that announced completion, so a
      // long-running server does not accumulate joinable threads.
      std::vector<std::uint64_t> reap;
      {
        const std::lock_guard<std::mutex> lock(conn_mu);
        reap.swap(finished);
      }
      for (const std::uint64_t cid : reap) {
        const auto it = conn_threads.find(cid);
        if (it != conn_threads.end()) {
          it->second.join();
          conn_threads.erase(it);
        }
      }
    }
    struct pollfd fds[2] = {{listen_fd, POLLIN, 0},
                            {g_signal_pipe[0], POLLIN, 0}};
    const int rc = poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // SIGINT/SIGTERM: drain and exit
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    // A bounded send timeout keeps a stuck reader from wedging the
    // writer thread (and with it, shutdown) forever: the blocked write
    // fails and the client is aborted.
    struct timeval tv = {10, 0};
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    if (active.load() >= o.max_clients) {
      ++conn_refused;
      write_all(fd,
                "{\"id\":0,\"ok\":false,\"error\":\"too many clients (cap " +
                    std::to_string(o.max_clients) +
                    ")\",\"status\":\"overloaded\"}\n");
      close(fd);
      continue;
    }
    ++active;
    const std::uint64_t cid =
        fe.add_client(stackroute::serve::Admission::kShed);
    {
      const std::lock_guard<std::mutex> lock(conn_mu);
      conn_fds[cid] = fd;
    }
    std::thread t([&fe, &o, &conn_mu, &conn_fds, &finished, &active, fd,
                   cid] {
      handle_connection(fd, cid, fe, o);
      const std::lock_guard<std::mutex> lock(conn_mu);
      conn_fds.erase(cid);
      finished.push_back(cid);
      --active;
    });
    conn_threads.emplace(cid, std::move(t));
  }

  close(listen_fd);
  fe.begin_shutdown();
  {
    // Wake every connection reader with EOF; their queued work drains,
    // their writers flush, their threads exit.
    const std::lock_guard<std::mutex> lock(conn_mu);
    for (const auto& [cid, fd] : conn_fds) shutdown(fd, SHUT_RD);
  }
  for (auto& [cid, t] : conn_threads) t.join();
  fe.drain();

  const double total_ms = wall.milliseconds();
  const stackroute::serve::FrontEndStats tally = fe.stats();
  if (!o.quiet) print_summary(tally, engine.stats(), total_ms, conn_refused);
  unlink(o.socket_path.c_str());
  return exit_code(tally);
}

// ---- argument parsing ---------------------------------------------------

bool parse_count(const char* text, std::size_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ToolOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs an argument\n";
        return nullptr;
      }
      return argv[++i];
    };
    const auto count_flag = [&](const char* flag,
                                std::size_t* out) -> bool {
      const char* v = value(flag);
      if (v == nullptr || !parse_count(v, out)) {
        if (v != nullptr) {
          std::cerr << flag << " needs a non-negative integer, got '" << v
                    << "'\n";
        }
        return false;
      }
      return true;
    };
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--quiet") {
      o.quiet = true;
    } else if (arg == "--replay") {
      const char* v = value("--replay");
      if (v == nullptr) return usage(std::cerr, 1);
      o.replay = v;
    } else if (arg == "--socket") {
      const char* v = value("--socket");
      if (v == nullptr) return usage(std::cerr, 1);
      o.socket_path = v;
    } else if (arg == "--workers") {
      if (!count_flag("--workers", &o.workers)) return usage(std::cerr, 1);
      if (o.workers == 0) o.workers = 1;
    } else if (arg == "--max-clients") {
      if (!count_flag("--max-clients", &o.max_clients)) {
        return usage(std::cerr, 1);
      }
    } else if (arg == "--max-queue") {
      if (!count_flag("--max-queue", &o.max_queue)) return usage(std::cerr, 1);
    } else if (arg == "--max-client-queue") {
      if (!count_flag("--max-client-queue", &o.max_client_queue)) {
        return usage(std::cerr, 1);
      }
    } else if (arg == "--write-buffer-bytes") {
      if (!count_flag("--write-buffer-bytes", &o.write_buffer_bytes)) {
        return usage(std::cerr, 1);
      }
    } else if (arg == "--max-line-bytes") {
      if (!count_flag("--max-line-bytes", &o.max_line_bytes)) {
        return usage(std::cerr, 1);
      }
    } else if (arg == "--table-budget-mb") {
      if (!count_flag("--table-budget-mb", &o.table_budget_mb)) {
        return usage(std::cerr, 1);
      }
    } else if (arg == "--session-budget-mb") {
      if (!count_flag("--session-budget-mb", &o.session_budget_mb)) {
        return usage(std::cerr, 1);
      }
    } else if (arg == "--backend") {
      const char* v = value("--backend");
      if (v == nullptr) return usage(std::cerr, 1);
      try {
        o.backend = stackroute::parse_equilibrium_backend(v);
      } catch (const std::exception& e) {
        std::cerr << "--backend: " << e.what() << "\n";
        return usage(std::cerr, 1);
      }
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage(std::cerr, 1);
    }
  }
  if (!o.replay.empty() && !o.socket_path.empty()) {
    std::cerr << "--replay and --socket are mutually exclusive\n";
    return usage(std::cerr, 1);
  }

  if (!install_signals()) {
    std::cerr << "cannot install signal handlers: " << std::strerror(errno)
              << "\n";
    return 1;
  }

  try {
    if (!o.socket_path.empty()) return run_socket(o);
    if (!o.replay.empty()) {
      const int fd = open(o.replay.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        std::cerr << "cannot open replay file: " << o.replay << "\n";
        return 1;
      }
      const int rc = run_single(fd, o);
      close(fd);
      return rc;
    }
    return run_single(STDIN_FILENO, o);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
