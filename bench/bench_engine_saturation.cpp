// Serve-path saturation: C concurrent clients streaming request lines
// through serve::FrontEnd into one Engine with W solver workers, at
// oversubscription factors C/W of 1, 4 and 16. Every client uses
// Admission::kShed — the socket transport's mode — against deliberately
// small queues, so the high factors drive the admission controller hard.
//
// The tracked figures per factor:
//   p50_us/p99_us — accepted-request solve latency quantiles (the shed
//     responses are immediate and excluded, like the stderr summary).
//   shed_pct      — share of submitted lines answered with the typed
//     "overloaded" error. Must be ~0 at 1x and bounded (not 100%) at 16x:
//     the server keeps serving while shedding.
//   served_rps    — accepted requests per wall second.
//   peak_rss_mb   — process high-water RSS (getrusage), the end-to-end
//     check on the engine's byte budgets.
//
// CI gates the 16x row against the 1x row with --calibrate (see
// .github/workflows/ci.yml): the cost of oversubscription relative to
// the uncontended path must not erode, machine-independently.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_main.h"
#include "stackroute/engine/engine.h"
#include "stackroute/obs/profile.h"
#include "stackroute/serve/frontend.h"

namespace {

using namespace stackroute;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kLinesPerClient = 24;

/// The request stream each client sends: a warm-chained demand ramp over
/// one generated instance, the protocol's own line format end to end.
std::string request_line(std::uint64_t id, std::size_t step) {
  std::ostringstream os;
  os << "{\"op\":\"mop\",\"id\":" << id
     << ",\"generate\":\"grid-bpr\",\"session\":1,\"demand\":"
     << 1.0 + 0.05 * static_cast<double>(step) << "}";
  return os.str();
}

double peak_rss_mb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void saturate(benchmark::State& state) {
  const std::size_t factor = static_cast<std::size_t>(state.range(0));
  const std::size_t clients = kWorkers * factor;
  obs::LogHistogram latency_ms;
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t served = 0;

  for (auto _ : state) {
    engine::EngineOptions eopts;
    eopts.table_cache_budget_bytes = 64u << 20;
    eopts.session_budget_bytes = 64u << 20;
    engine::Engine eng(eopts);
    serve::FrontEndOptions fopts;
    fopts.workers = kWorkers;
    fopts.max_queue = 4 * kWorkers;  // small on purpose: shed, don't buffer
    fopts.max_client_queue = 4;
    serve::FrontEnd fe(eng, fopts);

    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t k = 0; k < clients; ++k) {
      threads.emplace_back([&fe, k] {
        // Windowed stream: at most kWindow lines outstanding per client,
        // so a client's own queue never overflows — what sheds at high
        // factors is the *global* queue, i.e. genuine oversubscription.
        constexpr std::size_t kWindow = 4;
        const std::uint64_t c = fe.add_client(serve::Admission::kShed);
        std::size_t sent = 0;
        std::string line;
        while (sent < kLinesPerClient && sent < kWindow) {
          fe.submit_line(c, request_line(k * 1000 + sent, sent), sent + 1);
          ++sent;
        }
        for (std::size_t got = 0; got < kLinesPerClient; ++got) {
          if (!fe.next_response(c, &line)) break;
          if (sent < kLinesPerClient) {
            fe.submit_line(c, request_line(k * 1000 + sent, sent), sent + 1);
            ++sent;
          }
        }
        fe.finish_client(c);
        while (fe.next_response(c, &line)) {
        }
        fe.remove_client(c);
      });
    }
    for (std::thread& t : threads) t.join();

    const serve::FrontEndStats stats = fe.stats();
    submitted += stats.requests;
    shed += stats.shed;
    served += stats.requests - stats.shed;
    latency_ms.merge(stats.millis);
  }

  const obs::QuantileSummary q = latency_ms.summary();
  state.counters["p50_us"] = q.p50 * 1000.0;
  state.counters["p99_us"] = q.p99 * 1000.0;
  state.counters["shed_pct"] =
      submitted == 0 ? 0.0
                     : 100.0 * static_cast<double>(shed) /
                           static_cast<double>(submitted);
  state.counters["served_rps"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
  state.counters["clients"] = static_cast<double>(clients);
  state.counters["peak_rss_mb"] = peak_rss_mb();
}

void BM_EngineSaturation(benchmark::State& state) { saturate(state); }
BENCHMARK(BM_EngineSaturation)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

STACKROUTE_BENCHMARK_MAIN();
