// Shared plumbing of the benchmark driver: command-line options, the
// result line, reference values, medians and span sessions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stackroute/obs/profile.h"
#include "stackroute/obs/trace.h"

namespace perfbench {

namespace obs = stackroute::obs;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Checkout-relative: the benchmark runs from the checkout root.
  std::string references_dir = "perfbench/references";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 = not a sampled timing
};

/// One run's outcome: the operation tally that feeds `attempted`/`failed`
/// and the metrics printed on the result line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr
  std::vector<Metric> metrics;
  /// Stamped, not a metric: MiB of request text the benchmark's own
  /// clients hold (serve workloads), so its share of peak_rss_mb shows.
  double client_text_mb = 0.0;

  void fail(const std::string& why);
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0);
};

/// Midpoint median (0 when empty). Percentiles use
/// obs::QuantileSummary (nearest rank).
double median(std::vector<double> samples);

/// Process peak resident set (the kernel's high-water mark), in MiB.
double peak_rss_mb();

/// CPU time the hypervisor took from this machine's virtual CPUs so far,
/// summed over CPUs, in clock ticks (/proc/stat "steal"); -1 when unknown.
std::int64_t steal_ticks();

/// Indices of the calm parts of a run, in index order: every part whose
/// steal is at most the median part's, so at least half of them. Ties are
/// all kept, so no part is favoured for its position, and when steal is
/// the same everywhere (or was not read: any -1) every part is calm.
std::vector<std::size_t> calm_half(const std::vector<std::int64_t>& steal);

/// Committed reference values: one JSON object per workload,
/// {"tolerance": rtol, "values": {key: number}}. A key the file lacks is a
/// mismatch too, so a stream that drifts away from the committed pool is
/// caught rather than passed unchecked.
class References {
 public:
  References() = default;
  References(const std::string& path);

  /// True when `value` matches the reference under `key` within the
  /// file's relative tolerance; otherwise records a failure in `result`.
  bool check(const std::string& key, double value, Result& result) const;

 private:
  double rtol_ = 0.0;
  std::map<std::string, double> values_;
};

/// Writes {"tolerance":..,"values":{..}} with keys in sorted order.
void write_references(const std::string& path, double rtol,
                      const std::map<std::string, double>& values);

/// Span sessions of one traced run: one per thread that records, all on
/// one epoch, merged into a single chrome trace at the end. Spans are
/// recorded around calls into the library's public functions from the
/// benchmark's own code; no sink is installed inside the library.
class Spans {
 public:
  Spans();
  /// A new session with its own trace lane.
  obs::TraceSession* lane();
  void write(const std::string& path) const;

 private:
  std::int64_t epoch_ns_;
  std::vector<std::unique_ptr<obs::TraceSession>> sessions_;
};

/// begin/end around a scope on an optional session.
class Span {
 public:
  Span(obs::TraceSession* session, const char* name) : session_(session) {
    if (session_ != nullptr) session_->begin(name);
  }
  ~Span() {
    if (session_ != nullptr) session_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  obs::TraceSession* session_;
};

/// Seconds elapsed since `start_ns` (obs::now_ns clock).
double seconds_since(std::int64_t start_ns);

}  // namespace perfbench
