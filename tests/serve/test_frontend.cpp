// FrontEnd behavior (serve/frontend.h): per-client response ordering,
// admission control (block vs typed shed), write-buffer backpressure,
// typed shutdown refusals, abort/cancel teardown that releases engine
// sessions without poisoning the engine, and independence from every
// other Engine in the process.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "stackroute/engine/engine.h"
#include "stackroute/gen/registry.h"
#include "stackroute/io/json.h"
#include "stackroute/serve/frontend.h"
#include "stackroute/serve/protocol.h"

namespace stackroute::serve {
namespace {

using engine::Engine;

std::string solve_line(std::uint64_t id, double demand,
                       std::uint64_t session = 0) {
  std::ostringstream os;
  os << "{\"op\":\"equilibrium\",\"id\":" << id
     << ",\"generate\":\"grid-bpr\",\"demand\":" << demand;
  if (session != 0) os << ",\"session\":" << session;
  os << "}";
  return os.str();
}

/// Pulls the echoed id out of a response line ({"id":N,...}).
std::uint64_t response_id(const std::string& line) {
  const std::size_t at = line.find("\"id\":");
  EXPECT_NE(at, std::string::npos) << line;
  return std::stoull(line.substr(at + 5));
}

std::vector<std::string> drain_client(FrontEnd& fe, std::uint64_t client) {
  std::vector<std::string> lines;
  std::string line;
  while (fe.next_response(client, &line)) lines.push_back(std::move(line));
  return lines;
}

/// Spins until `pred` holds (the front end works asynchronously; tests
/// that need "the worker has finished item k" wait on its counters).
template <typename Pred>
void wait_for(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(FrontEndTest, SingleClientResponsesStayInSubmissionOrder) {
  Engine eng;
  FrontEndOptions opts;
  opts.workers = 4;  // ordering must hold regardless of worker count
  FrontEnd fe(eng, opts);
  const std::uint64_t c = fe.add_client(Admission::kBlock);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    fe.submit_line(c, solve_line(i, 0.5 + 0.1 * static_cast<double>(i)), i);
  }
  fe.finish_client(c);
  const std::vector<std::string> lines = drain_client(fe, c);
  ASSERT_EQ(lines.size(), 8u);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    EXPECT_EQ(response_id(lines[i - 1]), i);
    EXPECT_NE(lines[i - 1].find("\"ok\":true"), std::string::npos)
        << lines[i - 1];
  }
  fe.remove_client(c);
  EXPECT_EQ(fe.stats().shed, 0u);
}

TEST(FrontEndTest, PremadeErrorsAreOrderedWithSolves) {
  Engine eng;
  FrontEnd fe(eng, FrontEndOptions{});
  const std::uint64_t c = fe.add_client(Admission::kBlock);
  fe.submit_line(c, solve_line(1, 1.0), 1);
  fe.submit_error(c, 2, "request line exceeds 64 bytes");
  fe.submit_line(c, solve_line(3, 1.5), 3);
  fe.finish_client(c);
  const std::vector<std::string> lines = drain_client(fe, c);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(response_id(lines[0]), 1u);
  EXPECT_NE(lines[1].find("line 2: request line exceeds 64 bytes"),
            std::string::npos)
      << lines[1];
  EXPECT_EQ(response_id(lines[2]), 3u);
  fe.remove_client(c);
  EXPECT_EQ(fe.stats().errors, 1u);
}

TEST(FrontEndTest, FullQueuesShedWithTypedOverloadedError) {
  Engine eng;
  FrontEndOptions opts;
  opts.workers = 1;
  opts.max_queue = 64;
  opts.max_client_queue = 2;
  opts.write_buffer_bytes = 1;  // one buffered response stalls scheduling
  FrontEnd fe(eng, opts);
  const std::uint64_t c = fe.add_client(Admission::kShed);

  // Fill the write buffer with one processed response, making the client
  // unschedulable — the deterministic way to back its queue up.
  fe.submit_error(c, 1, "plug");
  wait_for([&] { return fe.stats().errors >= 1; });

  fe.submit_line(c, solve_line(2, 1.0), 2);  // queued
  fe.submit_line(c, solve_line(3, 1.1), 3);  // queued (cap reached)
  fe.submit_line(c, solve_line(4, 1.2), 4);  // shed
  FrontEndStats stats = fe.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_GE(stats.peak_queue, 2u);

  // Draining the buffer resumes scheduling; the queued lines complete.
  // The shed response itself was dropped (the buffer was full — an
  // unread client is not owed error deliveries), so three lines arrive.
  fe.finish_client(c);
  const std::vector<std::string> lines = drain_client(fe, c);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("line 1: plug"), std::string::npos) << lines[0];
  EXPECT_EQ(response_id(lines[1]), 2u);
  EXPECT_EQ(response_id(lines[2]), 3u);
  fe.remove_client(c);
}

TEST(FrontEndTest, ShedResponseIsTypedWhenBufferHasRoom) {
  Engine eng;
  FrontEndOptions opts;
  opts.workers = 1;
  opts.max_queue = 2;  // the global bound is what the probe trips over
  opts.max_client_queue = 16;
  opts.write_buffer_bytes = 1;
  FrontEnd fe(eng, opts);
  // One client plugs its write buffer and fills the global queue; a
  // second client with an empty buffer then sheds — and, having room,
  // receives the typed notice under its own request id.
  const std::uint64_t blocked = fe.add_client(Admission::kShed);
  const std::uint64_t probe = fe.add_client(Admission::kShed);
  fe.submit_error(blocked, 1, "plug");
  wait_for([&] { return fe.stats().errors >= 1; });
  fe.submit_line(blocked, solve_line(2, 1.0), 2);  // queued
  fe.submit_line(blocked, solve_line(3, 1.1), 3);  // queued: global full
  fe.submit_line(probe, solve_line(7, 1.2), 1);    // shed, typed

  std::string line;
  fe.finish_client(probe);
  ASSERT_TRUE(fe.next_response(probe, &line));
  EXPECT_EQ(response_id(line), 7u);
  EXPECT_NE(line.find("\"status\":\"overloaded\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("request shed"), std::string::npos) << line;
  EXPECT_FALSE(fe.next_response(probe, &line));
  fe.remove_client(probe);

  fe.finish_client(blocked);
  const std::vector<std::string> lines = drain_client(fe, blocked);
  ASSERT_EQ(lines.size(), 3u);  // plug + the two queued solves
  EXPECT_EQ(response_id(lines[1]), 2u);
  EXPECT_EQ(response_id(lines[2]), 3u);
  fe.remove_client(blocked);
  EXPECT_EQ(fe.stats().shed, 1u);
}

TEST(FrontEndTest, ShutdownRefusalsAreTypedAndClientsFinish) {
  Engine eng;
  FrontEnd fe(eng, FrontEndOptions{});
  const std::uint64_t c = fe.add_client(Admission::kShed);
  fe.submit_line(c, solve_line(1, 1.0), 1);
  wait_for([&] { return !fe.stats().millis.empty(); });
  fe.begin_shutdown();
  fe.submit_line(c, solve_line(2, 1.0), 2);  // refused, not run
  fe.drain();
  fe.finish_client(c);  // shutdown does not finish clients by itself
  const std::vector<std::string> lines = drain_client(fe, c);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"status\":\"overloaded\""), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("shutting down"), std::string::npos) << lines[1];
  EXPECT_EQ(response_id(lines[1]), 2u);
  const FrontEndStats stats = fe.stats();
  EXPECT_EQ(stats.refused, 1u);
  EXPECT_EQ(stats.shed, 0u);
  fe.remove_client(c);
}

TEST(FrontEndTest, AbortReleasesSessionsWithoutPoisoningTheEngine) {
  Engine eng;
  FrontEndOptions opts;
  opts.workers = 1;
  FrontEnd fe(eng, opts);

  const std::uint64_t c = fe.add_client(Admission::kShed);
  fe.submit_line(c, solve_line(1, 1.0, /*session=*/5), 1);
  std::string line;
  ASSERT_TRUE(fe.next_response(c, &line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_EQ(eng.num_sessions(), 1u);

  // Pile on work, then drop the connection mid-stream.
  for (std::uint64_t i = 2; i <= 6; ++i) {
    fe.submit_line(c, solve_line(i, 1.0 + 0.1 * static_cast<double>(i),
                                 /*session=*/5),
                   i);
  }
  fe.abort_client(c);
  EXPECT_FALSE(fe.next_response(c, &line));
  fe.remove_client(c);
  // Sessions are released even if the worker held one in flight at abort
  // time (the close is deferred to the worker, so wait it out).
  wait_for([&] { return eng.num_sessions() == 0; });

  // The engine is not poisoned: a fresh client solves normally, and the
  // session slot namespace is per client (client session 5 is new).
  const std::uint64_t c2 = fe.add_client(Admission::kShed);
  fe.submit_line(c2, solve_line(9, 1.0, /*session=*/5), 1);
  ASSERT_TRUE(fe.next_response(c2, &line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  fe.finish_client(c2);
  EXPECT_FALSE(fe.next_response(c2, &line));
  fe.remove_client(c2);  // closes c2's leftover session
  EXPECT_EQ(eng.num_sessions(), 0u);
  fe.drain();
}

TEST(FrontEndTest, RemoveClientClosesLeftoverSessions) {
  Engine eng;
  FrontEnd fe(eng, FrontEndOptions{});
  const std::uint64_t c = fe.add_client(Admission::kBlock);
  fe.submit_line(c, solve_line(1, 1.0, /*session=*/1), 1);
  fe.submit_line(c, solve_line(2, 1.0, /*session=*/2), 2);
  fe.finish_client(c);
  const std::vector<std::string> lines = drain_client(fe, c);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(eng.num_sessions(), 2u);
  fe.remove_client(c);
  EXPECT_EQ(eng.num_sessions(), 0u);
}

TEST(FrontEndTest, BlockingAdmissionNeverSheds) {
  Engine eng;
  FrontEndOptions opts;
  opts.workers = 2;
  opts.max_queue = 2;
  opts.max_client_queue = 2;
  FrontEnd fe(eng, opts);
  const std::uint64_t c = fe.add_client(Admission::kBlock);

  // Reader thread drains while the submitter blocks on queue room.
  std::vector<std::string> lines;
  std::thread reader([&] { lines = drain_client(fe, c); });
  for (std::uint64_t i = 1; i <= 12; ++i) {
    fe.submit_line(c, solve_line(i, 0.5 + 0.05 * static_cast<double>(i)), i);
  }
  fe.finish_client(c);
  reader.join();

  ASSERT_EQ(lines.size(), 12u);
  for (std::uint64_t i = 1; i <= 12; ++i) {
    EXPECT_EQ(response_id(lines[i - 1]), i);
  }
  const FrontEndStats stats = fe.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.requests, 12u);
  fe.remove_client(c);
}

TEST(FrontEndTest, ConcurrentClientsEachGetAllTheirResponses) {
  Engine eng;
  FrontEndOptions opts;
  opts.workers = 3;
  FrontEnd fe(eng, opts);
  constexpr std::size_t kClients = 4;
  constexpr std::uint64_t kLines = 6;

  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kClients; ++k) {
    threads.emplace_back([&, k] {
      const std::uint64_t c = fe.add_client(Admission::kBlock);
      for (std::uint64_t i = 1; i <= kLines; ++i) {
        const std::uint64_t id = (k + 1) * 100 + i;
        fe.submit_line(c, solve_line(id, 0.5 + 0.1 * static_cast<double>(i)),
                       i);
      }
      fe.finish_client(c);
      const std::vector<std::string> lines = drain_client(fe, c);
      ASSERT_EQ(lines.size(), kLines);
      for (std::uint64_t i = 1; i <= kLines; ++i) {
        EXPECT_EQ(response_id(lines[i - 1]), (k + 1) * 100 + i);
      }
      fe.remove_client(c);
    });
  }
  for (std::thread& th : threads) th.join();
  const FrontEndStats stats = fe.stats();
  EXPECT_EQ(stats.requests, kClients * kLines);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(eng.num_sessions(), 0u);
}

TEST(FrontEndTest, RunningFrontEndDoesNotBlockOtherEngines) {
  // Declared before the FrontEnd so that, should the solve ever block on
  // the FrontEnd, the FrontEnd is destroyed first and the test fails
  // instead of hanging.
  Engine other;
  std::future<engine::SolveResponse> other_solve;
  Engine eng;
  FrontEnd fe(eng, FrontEndOptions{});
  const std::uint64_t c = fe.add_client(Admission::kBlock);
  fe.submit_line(c, solve_line(1, 0.8), 1);

  engine::SolveRequest req;
  req.kind = engine::RequestKind::kEquilibrium;
  req.instance = engine::Instance(gen::generate_sized("grid-bpr", 0, 1.0, 3));
  req.id = 7;
  other_solve = std::async(std::launch::async,
                           [&other, req] { return other.solve(req); });
  ASSERT_EQ(other_solve.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "Engine::solve blocked while a FrontEnd was running";
  const engine::SolveResponse r = other_solve.get();
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.id, 7u);

  fe.finish_client(c);
  EXPECT_EQ(drain_client(fe, c).size(), 1u);
  fe.remove_client(c);
}

TEST(PrototypeCacheTest, CapacityZeroBuildsEveryRequest) {
  // With nothing to keep there is nothing to evict: an LRU eviction on
  // the empty map would erase end().
  PrototypeCache none(0);
  const io::JsonValue req = io::JsonValue::parse(
      R"({"op":"equilibrium","generate":"grid-bpr","size":3})");
  const auto a = std::get<NetworkInstance>(none.get(req));
  const auto b = std::get<NetworkInstance>(none.get(req));
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_GT(a.graph.num_edges(), 0);
}

}  // namespace
}  // namespace stackroute::serve
