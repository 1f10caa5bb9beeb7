// perfbench: the repository benchmark. Runs one workload for a fixed time
// and prints, as its last stdout line, one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which also writes a chrome trace to
// .bench_build/trace-<workload>.json).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--references DIR]
//   perfbench --dump-lines NAME --seed N
//   perfbench --write-references DIR
//
// Normally started through perfbench/run.py, which builds it first.
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "stackroute/io/json.h"
#include "stackroute/util/build_info.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"anaheim-bush-chain", "serve-warm",
                                      "serve-churn"};

/// Request lines per client that --dump-lines prints.
constexpr std::size_t kDumpLines = 12;

bool is_churn(const std::string& w) { return w == "serve-churn"; }
bool is_anaheim(const std::string& w) { return w == "anaheim-bush-chain"; }

Pass run_pass(const Options& opts, double seconds, Spans* spans,
              Result& result) {
  if (is_anaheim(opts.workload)) {
    return anaheim_pass(opts, seconds, spans ? spans->lane() : nullptr,
                        result);
  }
  return serve_pass(opts, is_churn(opts.workload), seconds, spans, result);
}

void end_to_end(const Options& opts, Result& r) {
  const Pass p = run_pass(opts, opts.seconds, nullptr, r);
  r.add("setup_s", p.setup_s, "s", p.setup_samples);
  r.add("ops_per_s", p.ops_per_s, "1/s", p.samples);
  r.add("op_ms_p50", p.op_ms_p50, "ms", p.samples);
  r.add("op_ms_p90", p.op_ms_p90, "ms", p.samples);
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.client_text_mb = static_cast<double>(p.client_bytes) / (1024.0 * 1024.0);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void per_layer(const Options& opts, Result& r) {
  // Half the run untraced and half traced: the gap is the span overhead.
  const Pass plain = run_pass(opts, opts.seconds / 2, nullptr, r);
  Spans spans;
  const Pass traced = run_pass(opts, opts.seconds / 2, &spans, r);
  obs::TraceSession* lane = spans.lane();

  const obs::SolveCounters sweep_counters = anaheim_probes(lane, r);
  model_probes(opts, lane, r);
  // The anaheim workload bypasses serve and the engine caches: its serve
  // and engine figures come from the replay of serve-warm's lines.
  Pass replay;
  const bool anaheim = is_anaheim(opts.workload);
  const obs::SolveCounters serve_counters = serve_replay_probe(
      opts, is_churn(opts.workload), lane, r, anaheim ? &replay : nullptr);
  const Pass& serve = anaheim ? replay : traced;

  const obs::QuantileSummary wait = obs::QuantileSummary::of(serve.wait_ms);
  r.add("serve.wait_ms_p50", wait.p50, "ms", wait.count);
  r.add("serve.wait_ms_p90", wait.p90, "ms", wait.count);
  r.add("serve.shed", static_cast<double>(serve.shed), "count");
  r.add("serve.peak_queue", static_cast<double>(serve.peak_queue), "count");
  const obs::QuantileSummary eng = obs::QuantileSummary::of(serve.engine_ms);
  r.add("engine.solve_ms_p50", eng.p50, "ms", eng.count);
  r.add("engine.solve_ms_p90", eng.p90, "ms", eng.count);
  r.add("engine.warm_hit_ratio", ratio(serve.warm_hits, serve.warm_attempts),
        "ratio");
  r.add("engine.table_cache_hit_ratio",
        ratio(serve.table_hits, serve.table_hits + serve.table_misses),
        "ratio");
  r.add("engine.table_cache_evictions",
        static_cast<double>(serve.table_evictions), "count");
  r.add("engine.peak_bytes", static_cast<double>(serve.peak_bytes), "bytes");

  const obs::SolveCounters& c = anaheim ? sweep_counters : serve_counters;
  r.add("solver.dijkstra_calls", double(c.dijkstra_calls), "count");
  r.add("solver.dijkstra_settled", double(c.dijkstra_settled), "count");
  r.add("solver.bush_shifts", double(c.bush_shifts), "count");
  r.add("solver.bush_rebuilds", double(c.bush_rebuilds), "count");
  r.add("solver.gap_checks", double(c.gap_checks), "count");
  r.add("solver.equalization_steps", double(c.equalization_steps), "count");
  r.add("solver.table_batch_evals", double(c.table_batch_evals), "count");

  r.add("obs.trace_overhead_pct",
        (plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0, "%");
  spans.write(".bench_build/trace-" + opts.workload + ".json");
}

std::string result_line(const Result& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << stackroute::io::json_number(std::isfinite(m.value) ? m.value : 0.0)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// The line before the result: the environment stamp and sample counts.
std::string stamp_line(const Options& opts, const Result& r) {
  std::ostringstream os;
  os << "{\"workload\": \"" << opts.workload << "\", \"seed\": " << opts.seed
     << ", \"seconds\": " << opts.seconds
     << ", \"trace\": " << (opts.trace ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": \"" << stackroute::build_type()
     << "\", \"compiler\": \"" << PERFBENCH_COMPILER
     << "\", \"client_text_mb\": " << r.client_text_mb << ", \"samples\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (m.samples == 0) continue;
    os << (first ? "" : ", ") << "\"" << m.name << "\": " << m.samples;
    first = false;
  }
  os << "}}";
  return os.str();
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--references DIR]\n"
               "       perfbench --dump-lines NAME --seed N\n"
               "       perfbench --write-references DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string dump;
  std::string write_refs;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
      const std::string v = argv[++i];
      if (a == "--workload") {
        opts.workload = v;
      } else if (a == "--seed") {
        opts.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opts.seconds = std::stod(v);
        have_seconds = opts.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opts.trace = v == "1";
        have_trace = true;
      } else if (a == "--references") {
        opts.references_dir = v;
      } else if (a == "--dump-lines") {
        dump = v;
      } else if (a == "--write-references") {
        write_refs = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }

  if (!stackroute::release_build()) {
    std::cerr << "perfbench: refusing to report numbers from a "
              << stackroute::build_type() << " build (Release only)\n";
    return 3;
  }

  try {
    if (!write_refs.empty()) {
      std::map<std::string, double> anaheim, warm, churn;
      anaheim_references(anaheim);
      write_references(write_refs + "/anaheim.json", 1e-6, anaheim);
      serve_references(false, warm);
      write_references(write_refs + "/serve_warm.json", 1e-6, warm);
      serve_references(true, churn);
      write_references(write_refs + "/serve_churn.json", 1e-6, churn);
      return 0;
    }
    if (!dump.empty()) {
      if (!have_seed) return usage("--dump-lines needs --seed");
      if (is_anaheim(dump)) {
        for (double m : anaheim_multipliers()) {
          std::cout << stackroute::io::json_number(m) << "\n";
        }
      } else if (dump == "serve-warm" || is_churn(dump)) {
        for (const auto& client : serve_lines(is_churn(dump), opts.seed,
                                              kDumpLines)) {
          for (const std::string& line : client) std::cout << line << "\n";
        }
      } else {
        return usage("unknown workload");
      }
      return 0;
    }

    bool known = false;
    for (const char* w : kWorkloads) known = known || opts.workload == w;
    if (!known) return usage("unknown or missing --workload");
    if (!have_seed || !have_seconds || !have_trace) {
      return usage("--seed, --seconds and --trace are required");
    }

    Result r;
    if (opts.trace) {
      per_layer(opts, r);
    } else {
      end_to_end(opts, r);
    }
    if (opts.trace) {
      r.add("failed_ratio", ratio(r.failed, r.attempted), "ratio");
    }
    for (const std::string& f : r.failures) {
      std::cerr << "perfbench: mismatch: " << f << "\n";
    }
    std::cout << stamp_line(opts, r) << "\n" << result_line(r) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
