// The one parallel primitive: a std::thread fan-out over independent units.
//
// Parallelism runs across work that shares nothing mutable — the chains of
// a sweep (sweep/runner.h), the session groups of an engine batch
// (engine/engine.h), and inside one bush solve the per-origin Dijkstra
// runs of its gap check and cold start (solver/bush.h), whose results are
// reduced on the calling thread in a fixed order. No result ever depends
// on a thread count, and no process-wide setting is written while a
// fan-out runs.
//
// Nesting rule: a thread that is already a worker of a multi-thread
// parallel_for (its helpers, plus the caller while it takes part) runs any
// inner parallel_for inline, and so does a thread inside a
// ParallelWorkerScope (the serve front end's workers). A multi-chain sweep
// or a batch therefore never multiplies chains by inner fan-outs, while a
// single-chain sweep — whose one-thread "fan-out" runs inline without
// marking the thread — still lets its solves use the idle cores.
#pragma once

#include <cstddef>
#include <functional>

namespace stackroute {

/// Thread cap for parallel_for; 0 (the default) means
/// std::thread::hardware_concurrency(). Negative values clamp to 0.
void set_max_threads(int n);
/// The resolved cap: always >= 1.
int max_threads();

/// Threads parallel_for(n, ...) runs on: 1 when n < 2, the cap is 1, or
/// the calling thread is already a parallel worker; else
/// min(n, max_threads()).
int threads_for(std::size_t n);

/// Runs fn(i) for every i in [0, n). Inline, in index order, when
/// threads_for(n) == 1; otherwise threads_for(n) threads — the caller is
/// one of them — pull indices from a shared counter, so `fn` must be safe
/// to run concurrently for distinct i. After an exception no further
/// indices are started; the first one is rethrown once every thread has
/// joined.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Marks the current thread as a parallel worker for the scope's lifetime,
/// so every parallel_for it calls runs inline. parallel_for installs one on
/// each of its threads; long-lived worker threads that are themselves a
/// unit of parallelism (serve::FrontEnd's) install one for their lifetime.
class ParallelWorkerScope {
 public:
  ParallelWorkerScope();
  ~ParallelWorkerScope();
  ParallelWorkerScope(const ParallelWorkerScope&) = delete;
  ParallelWorkerScope& operator=(const ParallelWorkerScope&) = delete;

 private:
  bool saved_;
};

}  // namespace stackroute
