// The one parallel primitive: a std::thread fan-out over independent units.
//
// Parallelism runs across work that shares nothing mutable: the chains of
// a sweep (sweep/runner.h) and the session groups of an engine batch
// (engine/engine.h). Each unit's solves run single-threaded on the thread
// that picks it up, and nothing inside a solve fans out, so fan-outs never
// nest. No result ever depends on a thread count, and no process-wide
// setting is written while a fan-out runs.
#pragma once

#include <cstddef>
#include <functional>

namespace stackroute {

/// Thread cap for parallel_for; 0 (the default) means
/// std::thread::hardware_concurrency(). Negative values clamp to 0.
void set_max_threads(int n);
/// The resolved cap: always >= 1.
int max_threads();

/// Threads parallel_for(n, ...) runs on: 1 when n < 2 or the cap is 1;
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
