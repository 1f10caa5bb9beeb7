// The one parallel primitive: a std::thread fan-out over independent units.
//
// Parallelism lives only across work that shares nothing mutable — the
// chains of a sweep (sweep/runner.h) and the session groups of an engine
// batch (engine/engine.h). Solvers run single-threaded in their caller's
// thread, so their results never depend on a thread count and no
// process-wide setting is read or written while they run.
#pragma once

#include <cstddef>
#include <functional>

namespace stackroute {

/// Thread cap for parallel_for; 0 (the default) means
/// std::thread::hardware_concurrency(). Negative values clamp to 0.
void set_max_threads(int n);
/// The resolved cap: always >= 1.
int max_threads();

/// Threads parallel_for(n, ...) runs on: 1 when n < 2 or the cap is 1,
/// else min(n, max_threads()).
int threads_for(std::size_t n);

/// Runs fn(i) for every i in [0, n). Inline, in index order, when
/// threads_for(n) == 1; otherwise threads_for(n) threads — the caller is
/// one of them — pull indices from a shared counter, so `fn` must be safe
/// to run concurrently for distinct i. After an exception no further
/// indices are started; the first one is rethrown once every thread has
/// joined.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace stackroute
