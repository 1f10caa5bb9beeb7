// The three workloads and the per-layer probes. See perfbench/LAYERS.md
// for why each workload exists and which metric each layer should move.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "stackroute/obs/counters.h"

namespace perfbench {

/// What one timed pass of a workload measured. An operation is a sweep
/// point (anaheim) or a request answered ok (serve); its latency is the
/// sweep task's wall time or the client's submit-to-response time. The
/// rate and latency figures are medians over parts of the run (sweeps, or
/// fixed time windows) covering `samples` operations.
/// `engine_ms` is the time the engine reported per operation and
/// `wait_ms` the rest of the operation's latency.
struct Pass {
  double setup_s = 0.0;
  std::size_t setup_samples = 0;
  double ops_per_s = 0.0;
  double op_ms_p50 = 0.0;
  double op_ms_p90 = 0.0;
  std::size_t samples = 0;
  std::vector<double> engine_ms;
  std::vector<double> wait_ms;
  // Serve passes only: front-end and engine tallies of the pass.
  std::uint64_t shed = 0;
  std::uint64_t peak_queue = 0;
  std::uint64_t warm_attempts = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t table_hits = 0;
  std::uint64_t table_misses = 0;
  std::uint64_t table_evictions = 0;
  std::uint64_t peak_bytes = 0;
  /// Serve passes: bytes of request text the clients hold, the
  /// benchmark's own share of peak_rss_mb.
  std::size_t client_bytes = 0;
};

// ---- anaheim-bush-chain ---------------------------------------------------

/// The demand axis: sixteen multiples of the Anaheim trips' native demand,
/// 0.25x to 1.75x, from uncongested to over-saturated.
std::vector<double> anaheim_multipliers();

/// Setup (nine times) plus back-to-back bush sweeps over the axis
/// at the default thread count until `seconds` elapse.
Pass anaheim_pass(const Options& opts, double seconds,
                  obs::TraceSession* lane, Result& result);

/// io, network, solver and sweep probes on the Anaheim instance; returns
/// the counters of one counted sweep over the axis.
obs::SolveCounters anaheim_probes(obs::TraceSession* lane, Result& result);

/// Cold path-equalization Nash cost at every axis point.
void anaheim_references(std::map<std::string, double>& out);

// ---- serve-warm / serve-churn ---------------------------------------------

/// The first `count` request lines of each client's stream.
std::vector<std::vector<std::string>> serve_lines(bool churn,
                                                  std::uint64_t seed,
                                                  std::size_t count);

/// Setup (nine times) plus the closed loop: 4 client threads, each with
/// one request in flight, through a FrontEnd with 2 workers.
/// `spans` (null when untraced) gets one lane per client.
Pass serve_pass(const Options& opts, bool churn, double seconds, Spans* spans,
                Result& result);

/// Sequential replay of the first lines of each client's stream through
/// parse_line, a counted Engine and response_json: parse/format timings
/// and exact solver counters. Fills `pass` with the replay's engine tallies
/// and per-request timings when `pass` is non-null.
obs::SolveCounters serve_replay_probe(const Options& opts, bool churn,
                                      obs::TraceSession* lane,
                                      Result& result, Pass* pass);

/// core (mop, strategy), gen and latency probes on seed-derived instances.
void model_probes(const Options& opts, obs::TraceSession* lane,
                  Result& result);

/// Cold sessionless reference responses for every pooled serve request.
void serve_references(bool churn, std::map<std::string, double>& out);

}  // namespace perfbench
