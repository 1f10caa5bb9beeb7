// serve-warm and serve-churn: closed-loop clients driving serve::FrontEnd
// with real protocol lines, plus the replay and model-layer probes.
//
// Every request comes from a fixed pool whose cold answers are committed
// in perfbench/references; the seed chooses which pool entries a run uses
// and in what order. serve-warm's pool is one grid-bpr instance per client
// x 16 demand levels x 5 ops; serve-churn's is kChurnPool generated and
// kChurnPool inline instances, one op and level each. Each half of the
// churn pool alone is twice the prototype cache (64 entries) and far more
// than the table cache budget holds, and the clients walk it cyclically,
// so every request misses both even after the stream wraps around.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <variant>

#include "stackroute/core/mop.h"
#include "stackroute/core/strategy.h"
#include "stackroute/engine/engine.h"
#include "stackroute/gen/registry.h"
#include "stackroute/io/json.h"
#include "stackroute/io/serialize.h"
#include "stackroute/latency/table.h"
#include "stackroute/obs/timing.h"
#include "stackroute/serve/frontend.h"
#include "stackroute/serve/protocol.h"
#include "stackroute/sweep/scenario.h"
#include "stackroute/util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sr = stackroute;
using sr::io::JsonValue;

enum class Op { kEquilibrium, kMop, kLlf, kScale, kOptimum };
constexpr std::size_t kClients = 4;
constexpr std::size_t kWorkers = 2;
constexpr Op kOps[] = {Op::kEquilibrium, Op::kMop, Op::kLlf, Op::kScale,
                       Op::kOptimum};
constexpr std::size_t kOpCount = std::size(kOps);
constexpr int kLevels = 16;
constexpr int kGridSize = 10;
/// Leader fraction of the llf and scale strategy requests.
constexpr double kAlpha = 0.3;
constexpr std::uint64_t kWarmPoolBase = 1000;
constexpr std::uint64_t kWarmPool = kClients;
constexpr std::uint64_t kChurnGenBase = 5000;
constexpr std::uint64_t kChurnTextBase = 9000;
/// Small enough that the inline texts the clients hold (~1.7 MiB) stay a
/// minor share of peak_rss_mb.
constexpr std::uint64_t kChurnPool = 128;
/// Compiled-table cache budget for serve-churn: a few grid tables, so
/// nearly every insert evicts.
constexpr std::size_t kChurnTableBudget = 32u << 10;
constexpr int kSetups = 9;
/// Lines per client in the sequential replay probe.
constexpr std::size_t kReplayLines = 10;

const char* op_name(Op op) {
  switch (op) {
    case Op::kEquilibrium: return "equilibrium";
    case Op::kMop: return "mop";
    case Op::kLlf: return "llf";
    case Op::kScale: return "scale";
    case Op::kOptimum: return "optimum";
  }
  return "?";
}

std::string op_fields(Op op) {
  switch (op) {
    case Op::kEquilibrium: return "\"op\":\"equilibrium\"";
    case Op::kMop: return "\"op\":\"mop\"";
    case Op::kLlf:
      return "\"op\":\"strategy\",\"strategy\":\"llf\",\"alpha\":" +
             sr::io::json_number(kAlpha);
    case Op::kScale:
      return "\"op\":\"strategy\",\"strategy\":\"scale\",\"alpha\":" +
             sr::io::json_number(kAlpha);
    case Op::kOptimum: return "\"op\":\"optimum\"";
  }
  return "";
}

double level_demand(int level) { return 1.0 + 0.05 * level; }

/// One pooled request: which instance, op and demand level. `text` marks
/// an inline-instance entry of the churn pool.
struct Entry {
  bool text = false;
  std::uint64_t gen_seed = 0;
  Op op = Op::kEquilibrium;
  int level = 0;
};

struct Request {
  std::string line;
  std::string key;  // reference key prefix
  Op op = Op::kEquilibrium;
};

std::string reference_key(bool churn, const Entry& e) {
  char buf[96];
  if (churn) {
    std::snprintf(buf, sizeof buf, "churn/%s/g%llu", e.text ? "text" : "gen",
                  static_cast<unsigned long long>(e.gen_seed));
  } else {
    std::snprintf(buf, sizeof buf, "warm/g%llu/%s/l%02d",
                  static_cast<unsigned long long>(e.gen_seed), op_name(e.op),
                  e.level);
  }
  return buf;
}

/// `text` is the entry's JSON-escaped serialized instance (inline entries).
Request make_request(bool churn, const Entry& e, std::uint64_t id,
                     bool with_session, const std::string* text) {
  std::string line = "{" + op_fields(e.op) + ",\"id\":" + std::to_string(id);
  if (with_session) line += ",\"session\":1";
  if (e.text) {
    line += ",\"instance\":\"" + *text + "\"";
  } else {
    line += ",\"generate\":\"grid-bpr\",\"size\":" + std::to_string(kGridSize) +
            ",\"gen_seed\":" + std::to_string(e.gen_seed);
  }
  line += ",\"demand\":" + sr::io::json_number(level_demand(e.level)) + "}";
  return {std::move(line), reference_key(churn, e), e.op};
}

sr::NetworkInstance grid_instance(std::uint64_t gen_seed) {
  return std::get<sr::NetworkInstance>(
      sr::gen::generate_sized("grid-bpr", kGridSize, 1.0, gen_seed));
}

std::string escaped_text(std::uint64_t gen_seed) {
  return sr::io::json_escape(sr::to_string(grid_instance(gen_seed)));
}

/// Churn pool entry p of one half (generated or inline).
Entry churn_entry(bool text, std::uint64_t p) {
  return {text, (text ? kChurnTextBase : kChurnGenBase) + p,
          kOps[p % kOpCount], static_cast<int>(p % kLevels)};
}

std::vector<std::uint64_t> permutation(std::uint64_t n, sr::Rng& rng) {
  std::vector<std::uint64_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[static_cast<std::uint64_t>(
                           rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return p;
}

/// The request streams of one run, a pure function of (workload, seed).
class Streams {
 public:
  Streams(bool churn, std::uint64_t seed) : churn_(churn) {
    if (churn) {
      sr::Rng rng(sr::mix_seed(seed, 3));
      gen_order_ = permutation(kChurnPool, rng);
      text_order_ = permutation(kChurnPool, rng);
      // Serialized once here, during setup: requests carry the text.
      texts_.resize(kChurnPool);
      for (std::uint64_t p = 0; p < kChurnPool; ++p) {
        texts_[p] = escaped_text(kChurnTextBase + p);
        texts_[p].shrink_to_fit();
      }
    } else {
      sr::Rng rng(sr::mix_seed(seed, 2));
      // The seed deals the pool's instances to the clients and orders each
      // client's op cycle. Instances, levels and the op set are fixed, so
      // every seed offers the same work (warm-up included) and the
      // run-to-run spread is the code's and the machine's.
      const std::vector<std::uint64_t> order = permutation(kWarmPool, rng);
      for (std::size_t k = 0; k < kClients; ++k) {
        warm_seed_[k] = kWarmPoolBase + order[k];
        op_order_[k] = permutation(kOpCount, rng);
      }
    }
  }

  /// Bytes of request text held for the inline entries: the benchmark's
  /// own share of the process footprint.
  [[nodiscard]] std::size_t text_bytes() const {
    std::size_t n = 0;
    for (const std::string& t : texts_) n += t.size();
    return n;
  }

  /// Client k's i-th request (client-local ids; session 1 on serve-warm).
  [[nodiscard]] Request at(std::size_t k, std::size_t i) const {
    const Entry e = entry(k, i);
    const std::string* text =
        e.text ? &texts_[e.gen_seed - kChurnTextBase] : nullptr;
    return make_request(churn_, e, i, !churn_, text);
  }

  /// The pool entry behind client k's i-th request.
  [[nodiscard]] Entry entry(std::size_t k, std::size_t i) const {
    if (!churn_) {
      // Ops cycle at one demand level, then the level steps by one along
      // a triangle wave, so each op's warm state moves in small steps.
      const int period = 2 * (kLevels - 1);
      const int x = static_cast<int>(i / kOpCount) % period;
      return {false, warm_seed_[k], kOps[op_order_[k][i % kOpCount]],
              x < kLevels ? x : period - x};
    }
    // The first request, sent during setup, names an instance just past
    // the pool's generated half, the same one for every seed, so setup
    // does the same work whatever the seed and the timed stream never
    // names it again.
    if (i == 0) return churn_entry(false, kChurnPool + k);
    // Then clients alternate generated and inline instances, each drawing
    // a disjoint slice of its half of the permuted pool.
    const std::size_t j = i - 1;
    const bool text = (j + k) % 2 == 1;
    const std::uint64_t q = (j / 2) * kClients + k;
    const auto& order = text ? text_order_ : gen_order_;
    return churn_entry(text, order[q % kChurnPool]);
  }

 private:
  bool churn_;
  std::vector<std::uint64_t> gen_order_;
  std::vector<std::uint64_t> text_order_;
  std::vector<std::string> texts_;
  std::uint64_t warm_seed_[kClients] = {};
  std::vector<std::uint64_t> op_order_[kClients];
};

/// The response fields each op is checked on against the references.
/// LLF orders the optimum's path decomposition, which is not unique: on
/// the commit that introduced this benchmark a warm session's LLF cost
/// differed from the cold one by up to 0.3% on these instances. So LLF is
/// checked on its (unique) optimum cost and on ratio >= 1 instead.
std::vector<const char*> checked_fields(Op op) {
  switch (op) {
    case Op::kMop: return {"cost", "beta"};
    case Op::kLlf: return {"optimum_cost"};
    case Op::kScale: return {"cost", "ratio"};
    default: return {"cost"};
  }
}

/// A response member; throws when absent.
const JsonValue& member(const JsonValue& v, const char* name) {
  const JsonValue* m = v.find(name);
  if (m == nullptr) throw std::runtime_error(std::string("no ") + name);
  return *m;
}

/// Checks one response line; returns its engine "millis" when it is an ok,
/// converged response matching the references, else a negative value.
double check_response(const std::string& line, const Request& rq,
                      const References& refs, Result& result) {
  ++result.attempted;
  try {
    const JsonValue v = JsonValue::parse(line);
    if (!member(v, "ok").as_bool()) {
      result.fail(rq.key + ": " + member(v, "error").as_string());
      return -1.0;
    }
    const std::string& status = member(v, "status").as_string();
    if (status != "converged") {
      result.fail(rq.key + ": status " + status);
      return -1.0;
    }
    bool good = true;
    for (const char* field : checked_fields(rq.op)) {
      good = refs.check(rq.key + "/" + field, member(v, field).as_number(),
                        result) &&
             good;
    }
    if (rq.op == Op::kLlf && !(member(v, "ratio").as_number() >= 1.0 - 1e-9)) {
      result.fail(rq.key + ": LLF ratio below 1");
      good = false;
    }
    return good ? member(v, "millis").as_number() : -1.0;
  } catch (const std::exception& e) {
    result.fail(rq.key + ": unreadable response: " + e.what());
    return -1.0;
  }
}

/// Window length for the end-to-end figures of a serve pass. The run is
/// cut into windows, and each figure is the median over the calm ones
/// (calm_half: least hypervisor steal), so a burst of outside load does
/// not move it.
constexpr double kWindowSeconds = 0.5;

/// Per-client latencies of ok responses, by the window they arrived in.
/// Kept as floats and per window, so the benchmark's own memory stays
/// small next to the server's in peak_rss_mb.
struct ClientTally {
  Result result;
  std::vector<std::vector<float>> window_ms;
  std::vector<double> engine_ms;  // traced passes only
  std::vector<double> wait_ms;    // traced passes only
};

void windowed_figures(const std::vector<ClientTally>& tally,
                      const std::vector<std::int64_t>& steal, double seconds,
                      Pass& pass) {
  const double width_s = seconds / static_cast<double>(steal.size());
  std::vector<double> rate, p50, p90;
  pass.samples = 0;
  for (std::size_t w : calm_half(steal)) {
    std::vector<double> ms;
    for (const ClientTally& t : tally) {
      ms.insert(ms.end(), t.window_ms[w].begin(), t.window_ms[w].end());
    }
    const obs::QuantileSummary q = obs::QuantileSummary::of(ms);
    rate.push_back(static_cast<double>(ms.size()) / width_s);
    p50.push_back(q.p50);
    p90.push_back(q.p90);
    pass.samples += ms.size();
  }
  pass.ops_per_s = median(rate);
  pass.op_ms_p50 = median(p50);
  pass.op_ms_p90 = median(p90);
}

/// The front end of one setup: engine, front end and registered clients.
struct Server {
  std::unique_ptr<sr::engine::Engine> engine;
  std::unique_ptr<sr::serve::FrontEnd> front;
  std::uint64_t client[kClients] = {};

  Server(bool churn) {
    sr::engine::EngineOptions eopts;
    if (churn) eopts.table_cache_budget_bytes = kChurnTableBudget;
    engine = std::make_unique<sr::engine::Engine>(eopts);
    sr::serve::FrontEndOptions fopts;
    fopts.workers = kWorkers;
    front = std::make_unique<sr::serve::FrontEnd>(*engine, fopts);
    for (std::uint64_t& c : client) {
      c = front->add_client(sr::serve::Admission::kShed);
    }
  }

  /// Finishes every client, draining whatever is still buffered.
  void close() {
    std::string line;
    for (std::uint64_t c : client) {
      front->finish_client(c);
      while (front->next_response(c, &line)) {
      }
      front->remove_client(c);
    }
  }
};

void take_engine_stats(const sr::engine::EngineStats& es, Pass& pass) {
  pass.warm_attempts = es.warm_attempts;
  pass.warm_hits = es.warm_hits;
  pass.table_hits = es.table_cache_hits;
  pass.table_misses = es.table_cache_misses;
  pass.table_evictions = es.table_cache_evictions;
  pass.peak_bytes = es.peak_bytes;
}

void merge(Result& into, const Result& from) {
  into.attempted += from.attempted;
  for (const std::string& f : from.failures) into.fail(f);
  into.failed += from.failed - from.failures.size();
}

}  // namespace

std::vector<std::vector<std::string>> serve_lines(bool churn,
                                                  std::uint64_t seed,
                                                  std::size_t count) {
  const Streams streams(churn, seed);
  std::vector<std::vector<std::string>> lines(kClients);
  for (std::size_t k = 0; k < kClients; ++k) {
    for (std::size_t i = 0; i < count; ++i) {
      lines[k].push_back(streams.at(k, i).line);
    }
  }
  return lines;
}

Pass serve_pass(const Options& opts, bool churn, double seconds, Spans* spans,
                Result& result) {
  const References refs(opts.references_dir +
                        (churn ? "/serve_churn.json" : "/serve_warm.json"));
  obs::TraceSession* main_lane = spans ? spans->lane() : nullptr;
  Pass pass;
  std::vector<double> setups;
  std::unique_ptr<Streams> streams;
  std::unique_ptr<Server> server;
  // serve-warm warms one full op cycle, so each op's session state exists
  // before timing starts; serve-churn has no state to warm beyond one
  // request per client (the same for every seed: Streams::entry).
  const std::size_t warmup = churn ? 1 : kOpCount;
  for (int rep = 0; rep < kSetups; ++rep) {
    // The previous setup's server and streams are freed first, so the
    // process never holds two of either.
    if (server) {
      server->close();
      server.reset();
    }
    streams.reset();
    Span span(main_lane, "setup");
    const std::int64_t t0 = obs::now_ns();
    streams = std::make_unique<Streams>(churn, opts.seed);
    server = std::make_unique<Server>(churn);
    // Warm-up: each client's first `warmup` requests, queued together.
    for (std::size_t k = 0; k < kClients; ++k) {
      for (std::size_t i = 0; i < warmup; ++i) {
        server->front->submit_line(server->client[k], streams->at(k, i).line,
                                   i + 1);
      }
    }
    std::string line;
    for (std::size_t k = 0; k < kClients; ++k) {
      for (std::size_t i = 0; i < warmup; ++i) {
        if (!server->front->next_response(server->client[k], &line)) {
          result.fail("warm-up: no response");
          break;
        }
        check_response(line, streams->at(k, i), refs, result);
      }
    }
    setups.push_back(seconds_since(t0));
  }
  pass.setup_s = median(setups);
  pass.setup_samples = setups.size();
  pass.client_bytes = streams->text_bytes();

  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kWindowSeconds));
  std::vector<ClientTally> tally(kClients);
  for (ClientTally& t : tally) t.window_ms.resize(windows);
  std::vector<obs::TraceSession*> lanes(kClients, nullptr);
  if (spans != nullptr) {
    for (auto& lane : lanes) lane = spans->lane();
  }
  const std::int64_t start = obs::now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kClients; ++k) {
    threads.emplace_back([&, k] {
      sr::serve::FrontEnd& fe = *server->front;
      const std::uint64_t c = server->client[k];
      ClientTally& out = tally[k];
      std::string line;
      for (std::size_t i = warmup; obs::now_ns() < deadline; ++i) {
        const Request rq = streams->at(k, i);
        const std::int64_t t0 = obs::now_ns();
        bool got = false;
        {
          Span span(lanes[k], "serve.request");
          fe.submit_line(c, rq.line, i + 1);
          got = fe.next_response(c, &line);
        }
        const std::int64_t t1 = obs::now_ns();
        if (!got) {
          out.result.fail("client closed early");
          break;
        }
        const double millis = check_response(line, rq, refs, out.result);
        if (millis < 0.0) continue;
        const double ms = static_cast<double>(t1 - t0) * 1e-6;
        const auto w = static_cast<std::size_t>(
            static_cast<double>(t1 - start) * 1e-9 / seconds *
            static_cast<double>(windows));
        if (w < windows) out.window_ms[w].push_back(static_cast<float>(ms));
        if (spans != nullptr) {
          out.engine_ms.push_back(millis);
          out.wait_ms.push_back(ms - millis);
        }
      }
    });
  }
  // Meanwhile, the steal reading at every window boundary.
  std::vector<std::int64_t> steal(windows);
  std::int64_t last = steal_ticks();
  for (std::size_t w = 0; w < windows; ++w) {
    const std::int64_t end =
        start + static_cast<std::int64_t>(static_cast<double>(w + 1) *
                                          seconds * 1e9 /
                                          static_cast<double>(windows));
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::max<std::int64_t>(0, end - obs::now_ns())));
    const std::int64_t now = steal_ticks();
    steal[w] = last < 0 || now < 0 ? -1 : now - last;
    last = now;
  }
  for (std::thread& t : threads) t.join();

  for (const ClientTally& t : tally) {
    merge(result, t.result);
    pass.engine_ms.insert(pass.engine_ms.end(), t.engine_ms.begin(),
                          t.engine_ms.end());
    pass.wait_ms.insert(pass.wait_ms.end(), t.wait_ms.begin(),
                        t.wait_ms.end());
  }
  windowed_figures(tally, steal, seconds, pass);

  server->close();
  const sr::serve::FrontEndStats fs = server->front->stats();
  const sr::engine::EngineStats es = server->engine->stats();
  pass.shed = fs.shed;
  pass.peak_queue = fs.peak_queue;
  take_engine_stats(es, pass);
  if (fs.shed + fs.refused != 0) result.fail("front end shed requests");
  return pass;
}

obs::SolveCounters serve_replay_probe(const Options& opts, bool churn,
                                      obs::TraceSession* lane,
                                      Result& result, Pass* pass) {
  const References refs(opts.references_dir +
                        (churn ? "/serve_churn.json" : "/serve_warm.json"));
  const Streams streams(churn, opts.seed);
  sr::engine::EngineOptions eopts;
  eopts.collect_counters = true;
  if (churn) eopts.table_cache_budget_bytes = kChurnTableBudget;
  sr::engine::Engine eng(eopts);
  sr::serve::PrototypeCache protos(64);
  obs::SolveCounters counters;
  std::vector<double> parse_us;
  std::vector<double> format_us;
  for (std::size_t k = 0; k < kClients; ++k) {
    std::uint64_t session = 0;
    for (std::size_t i = 0; i < kReplayLines; ++i) {
      const Request rq = streams.at(k, i);
      const std::int64_t t0 = obs::now_ns();
      sr::serve::ParsedLine parsed;
      {
        Span span(lane, "serve.parse_line");
        parsed = sr::serve::parse_line(rq.line, protos, nullptr);
      }
      const std::int64_t t1 = obs::now_ns();
      if (parsed.client_session != 0) {
        if (session == 0) session = eng.open_session();
        parsed.solve.session = session;
      }
      sr::engine::SolveResponse resp;
      {
        Span span(lane, "engine.solve");
        resp = eng.solve(parsed.solve);
      }
      const std::int64_t t2 = obs::now_ns();
      std::string line;
      {
        Span span(lane, "serve.response_json");
        line = sr::serve::response_json(resp);
      }
      const std::int64_t t3 = obs::now_ns();
      parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      format_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
      counters.merge(resp.counters);
      const double millis = check_response(line, rq, refs, result);
      if (pass != nullptr && millis >= 0.0) {
        pass->engine_ms.push_back(millis);
        pass->wait_ms.push_back(static_cast<double>(t3 - t0) * 1e-6 - millis);
      }
    }
  }
  result.add("serve.parse_line_us_p50",
             obs::QuantileSummary::of(parse_us).p50, "us",
             parse_us.size());
  result.add("serve.format_us_p50",
             obs::QuantileSummary::of(format_us).p50, "us",
             format_us.size());
  if (pass != nullptr) take_engine_stats(eng.stats(), *pass);
  return counters;
}

void model_probes(const Options& opts, obs::TraceSession* lane,
                  Result& result) {
  // core: MOP and the two baseline strategies on serve-warm's instances
  // at four of its demand levels.
  const Streams warm(false, opts.seed);
  std::vector<double> mop_ms;
  std::vector<double> strategy_ms;
  for (std::size_t k = 0; k < kClients; ++k) {
    sr::NetworkInstance net = grid_instance(warm.entry(k, 0).gen_seed);
    const double base = net.total_demand();
    for (int level = 0; level < kLevels; level += 5) {
      sr::NetworkInstance inst = net;
      for (sr::Commodity& c : inst.commodities) {
        c.demand *= level_demand(level) / base;
      }
      {
        Span span(lane, "core.mop");
        const std::int64_t t0 = obs::now_ns();
        const sr::MopResult r = sr::mop(inst);
        mop_ms.push_back(seconds_since(t0) * 1e3);
        ++result.attempted;
        if (!(r.beta >= 0.0 && r.beta <= 1.0)) result.fail("core.mop beta");
      }
      const sr::NetworkStrategy strategies[] = {
          sr::llf_strategy(inst, kAlpha), sr::scale_strategy(inst, kAlpha)};
      for (const sr::NetworkStrategy& strategy : strategies) {
        Span span(lane, "core.evaluate_strategy");
        const std::int64_t t0 = obs::now_ns();
        const sr::NetworkStackelbergOutcome out =
            sr::evaluate_strategy(inst, strategy);
        strategy_ms.push_back(seconds_since(t0) * 1e3);
        ++result.attempted;
        if (!out.converged || !(out.ratio >= 1.0 - 1e-9)) {
          result.fail("core.evaluate_strategy ratio below 1");
        }
      }
    }
  }
  result.add("core.mop_ms_p50",
             obs::QuantileSummary::of(mop_ms).p50, "ms",
             mop_ms.size());
  result.add("core.strategy_ms_p50",
             obs::QuantileSummary::of(strategy_ms).p50, "ms",
             strategy_ms.size());

  // gen and latency: generate and compile serve-churn's next instances.
  const Streams churn(true, opts.seed);
  std::vector<double> gen_us;
  std::vector<double> compile_us;
  sr::LatencyTable table;
  for (std::size_t i = 0; i < 64; ++i) {
    const Entry e = churn.entry(i % kClients, i / kClients);
    sr::gen::GeneratedInstance g;
    {
      Span span(lane, "gen.generate");
      const std::int64_t t0 = obs::now_ns();
      g = sr::gen::generate(sr::gen::sized_spec("grid-bpr", kGridSize),
                            e.gen_seed);
      gen_us.push_back(seconds_since(t0) * 1e6);
    }
    const std::vector<sr::LatencyPtr> lats =
        std::get<sr::NetworkInstance>(g).graph.latencies();
    Span span(lane, "latency.compile");
    const std::int64_t t0 = obs::now_ns();
    table.compile(lats);
    compile_us.push_back(seconds_since(t0) * 1e6);
  }
  result.add("gen.generate_us_p50",
             obs::QuantileSummary::of(gen_us).p50, "us",
             gen_us.size());
  result.add("latency.compile_us_p50",
             obs::QuantileSummary::of(compile_us).p50, "us",
             compile_us.size());
}

void serve_references(bool churn, std::map<std::string, double>& out) {
  std::vector<Entry> entries;
  if (churn) {
    for (std::uint64_t p = 0; p < kChurnPool; ++p) {
      entries.push_back(churn_entry(false, p));
      entries.push_back(churn_entry(true, p));
    }
    for (std::uint64_t k = 0; k < kClients; ++k) {
      entries.push_back(churn_entry(false, kChurnPool + k));
    }
  } else {
    for (std::uint64_t g = 0; g < kWarmPool; ++g) {
      for (int level = 0; level < kLevels; ++level) {
        for (Op op : kOps) entries.push_back({false, kWarmPoolBase + g, op, level});
      }
    }
  }
  // Cold, sessionless solves of exactly the lines the clients send, spread
  // over a few threads under one solver pin.
  sr::engine::Engine eng;
  const sr::engine::SolverPin pin;
  sr::serve::PrototypeCache protos(64);
  std::mutex mu;
  std::size_t next = 0;
  std::vector<std::string> errors;
  const auto worker = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (next == entries.size()) return;
        i = next++;
      }
      const Entry& e = entries[i];
      const std::string text = e.text ? escaped_text(e.gen_seed) : "";
      const Request rq = make_request(churn, e, i, false, &text);
      sr::serve::ParsedLine parsed =
          sr::serve::parse_line(rq.line, protos, nullptr);
      const sr::engine::SolveResponse resp = eng.solve_pinned(parsed.solve);
      const std::lock_guard<std::mutex> lock(mu);
      if (!resp.ok || resp.status != sr::SolveStatus::kConverged) {
        errors.push_back(rq.key);
        continue;
      }
      const std::map<std::string, double> fields = {
          {"cost", resp.cost},
          {"beta", resp.beta},
          {"ratio", resp.ratio},
          {"optimum_cost", resp.optimum_cost}};
      for (const char* field : checked_fields(e.op)) {
        out[rq.key + "/" + field] = fields.at(field);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (!errors.empty()) {
    throw std::runtime_error("reference solve failed: " + errors.front());
  }
}

}  // namespace perfbench
