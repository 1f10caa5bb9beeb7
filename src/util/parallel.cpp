#include "stackroute/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace stackroute {

namespace {
std::atomic<int> g_max_threads{0};
}

void set_max_threads(int n) { g_max_threads.store(n < 0 ? 0 : n); }

int max_threads() {
  const int n = g_max_threads.load();
  if (n > 0) return n;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int threads_for(std::size_t n) {
  if (n < 2) return 1;
  return static_cast<int>(
      std::min<std::size_t>(n, static_cast<std::size_t>(max_threads())));
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const int threads = threads_for(n);
  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first;
  std::mutex first_mu;
  const auto worker = [&] {
    while (!failed.load()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(first_mu);
        if (!first) first = std::current_exception();
        failed.store(true);
      }
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(threads - 1));
  try {
    for (int t = 1; t < threads; ++t) helpers.emplace_back(worker);
  } catch (const std::system_error&) {
    // Out of threads: the ones already started (and the caller) still
    // drain every index.
  }
  worker();
  for (std::thread& th : helpers) th.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace stackroute
