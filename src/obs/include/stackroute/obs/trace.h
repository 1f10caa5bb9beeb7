// Convergence traces and span traces.
//
// ConvergenceTrace is a bounded ring buffer of per-iteration solver
// samples (iteration, relative gap, step, objective). The bush solver
// records one sample per outer iteration (step 0); path equilibration
// records one per outer sweep, with its path-cost spread as the gap and
// its cumulative equalization steps as the step. Exported as JSONL, one
// object per retained sample.
//
// TraceSession records begin/end span events (pipeline -> solve ->
// iteration phases) with monotonic now_ns() timestamps, exported in the
// chrome://tracing / Perfetto JSON format ("traceEvents" with
// "ph":"B"/"E" duration events; ts in microseconds from a shared epoch).
// Sessions are single-threaded by design — the sweep runner keeps one per
// chain, tagged with the chain index as the trace "tid", and merges them
// deterministically at export time.
//
// Like counters (counters.h), both are enabled by installing a sink for
// the calling thread (ConvergenceScope / TraceScope); the instrumented
// call sites (record_convergence, ScopedSpan) are a thread-local load and
// a branch when tracing is off. ScopedSpan is RAII, so every "B" event
// gets its matching "E" even on early returns — exceptions are the one
// escape hatch, and the solvers treat those as failed solves whose
// session is discarded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stackroute/obs/timing.h"

namespace stackroute::obs {

struct ConvergenceSample {
  std::int32_t context = 0;  // index into ConvergenceTrace contexts
  std::int32_t iteration = 0;
  double rel_gap = 0.0;
  double step = 0.0;
  double objective = 0.0;
};

/// Bounded ring buffer of convergence samples. When more than `capacity`
/// samples are recorded the oldest are overwritten; total_recorded()
/// keeps the true count.
class ConvergenceTrace {
 public:
  explicit ConvergenceTrace(std::size_t capacity = 1 << 16);

  /// Starts a new context: subsequent samples are tagged with `label`
  /// (e.g. "task 3 bush"). Returns the context index.
  std::int32_t push_context(std::string label);

  void record(std::int32_t iteration, double rel_gap, double step,
              double objective);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const;            // retained samples
  [[nodiscard]] std::size_t total_recorded() const { return total_; }

  /// i-th retained sample, oldest first (0 <= i < size()).
  [[nodiscard]] const ConvergenceSample& at(std::size_t i) const;
  [[nodiscard]] const std::string& context_label(std::int32_t context) const;

  /// One JSON object per retained sample, oldest first:
  ///   {"ctx":"...","iter":N,"rel_gap":G,"step":S,"objective":O}
  /// Non-finite values are emitted as null.
  void write_jsonl(std::ostream& os) const;

 private:
  std::size_t capacity_;
  std::vector<ConvergenceSample> samples_;  // ring storage
  std::size_t next_ = 0;                    // ring write position
  std::size_t total_ = 0;
  std::vector<std::string> contexts_;
};

/// A single-threaded span recorder (see the file comment). Event storage
/// is bounded: past `max_events` new begin/instant events are dropped and
/// counted, but end() still closes open spans so the trace stays
/// well-formed.
class TraceSession {
 public:
  explicit TraceSession(std::int64_t epoch_ns = now_ns(),
                        std::size_t max_events = 1 << 20);

  /// The "tid" this session's events carry in the chrome export (the
  /// sweep runner uses the chain index).
  void set_tid(int tid) { tid_ = tid; }
  [[nodiscard]] int tid() const { return tid_; }
  [[nodiscard]] std::int64_t epoch_ns() const { return epoch_ns_; }

  void begin(std::string_view name);
  void end();
  void instant(std::string_view name);

  [[nodiscard]] std::size_t events() const { return events_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  /// True when every begun span has been ended.
  [[nodiscard]] bool balanced() const { return open_.empty(); }
  /// Depth of currently open spans.
  [[nodiscard]] std::size_t depth() const { return open_.size(); }

  /// This session's events as a chrome://tracing JSON document
  /// ({"traceEvents":[...]}).
  void write_chrome_trace(std::ostream& os) const;

  /// Several sessions (e.g. one per sweep chain) merged into one chrome
  /// trace document, in the given order; they should share an epoch.
  static void write_chrome_trace(std::span<const TraceSession* const> sessions,
                                 std::ostream& os);

 private:
  struct Event {
    char phase;          // 'B', 'E', 'i'
    std::int32_t name;   // index into names_
    std::int64_t t_ns;   // now_ns() - epoch_ns_
  };

  std::int32_t intern(std::string_view name);
  void write_events(std::ostream& os, bool& first) const;

  std::int64_t epoch_ns_;
  std::size_t max_events_;
  int tid_ = 0;
  std::vector<Event> events_;
  std::vector<std::string> names_;
  std::vector<std::int32_t> open_;  // name indices of open spans
  std::size_t dropped_ = 0;
};

namespace detail {
extern thread_local ConvergenceTrace* tl_convergence;
extern thread_local TraceSession* tl_trace;
}  // namespace detail

/// The calling thread's convergence sink; nullptr when off.
inline ConvergenceTrace* convergence() { return detail::tl_convergence; }
/// The calling thread's span session; nullptr when off.
inline TraceSession* trace() { return detail::tl_trace; }

/// Records a convergence sample into the installed sink; no-op when off.
inline void record_convergence(std::int32_t iteration, double rel_gap,
                               double step, double objective) {
  if (ConvergenceTrace* t = detail::tl_convergence) {
    t->record(iteration, rel_gap, step, objective);
  }
}

/// Installs a ConvergenceTrace sink for the scope's lifetime.
class ConvergenceScope {
 public:
  explicit ConvergenceScope(ConvergenceTrace& sink);
  ~ConvergenceScope();
  ConvergenceScope(const ConvergenceScope&) = delete;
  ConvergenceScope& operator=(const ConvergenceScope&) = delete;

 private:
  ConvergenceTrace* prev_;
};

/// Installs a TraceSession sink for the scope's lifetime.
class TraceScope {
 public:
  explicit TraceScope(TraceSession& sink);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceSession* prev_;
};

/// RAII span on the installed session: begin at construction, end at
/// destruction; nothing when tracing is off. The session pointer is
/// latched at construction so the span stays balanced even if the scope
/// changes underneath (it should not).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) : session_(detail::tl_trace) {
    if (session_ != nullptr) session_->begin(name);
  }
  ~ScopedSpan() {
    if (session_ != nullptr) session_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceSession* session_;
};

}  // namespace stackroute::obs
