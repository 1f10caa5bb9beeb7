// util/parallel.h: every index runs exactly once, the first exception is
// rethrown after the join, threads_for follows the cap, and the nesting
// rule — a parallel worker's inner fan-outs run inline on that worker.
#include "stackroute/util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace stackroute {
namespace {

/// Sets the thread cap for one test and restores the library default.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_max_threads(0); }
};

TEST_F(ParallelTest, EveryIndexRunsExactlyOnce) {
  for (const int cap : {1, 2, 3, 4, 8}) {
    set_max_threads(cap);
    for (const std::size_t n : {0u, 1u, 2u, 7u, 100u}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "cap " << cap << " n " << n << " i " << i;
      }
    }
  }
}

TEST_F(ParallelTest, OneThreadRunsInlineInIndexOrder) {
  set_max_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST_F(ParallelTest, FirstExceptionIsRethrownAfterTheJoin) {
  for (const int cap : {1, 4}) {
    set_max_threads(cap);
    std::atomic<int> running{0};
    std::atomic<int> finished{0};
    EXPECT_THROW(parallel_for(64,
                              [&](std::size_t i) {
                                running.fetch_add(1);
                                if (i == 3) throw std::runtime_error("boom");
                                finished.fetch_add(1);
                              }),
                 std::runtime_error)
        << "cap " << cap;
    // Every started index has finished (or thrown) by the time it returns.
    EXPECT_EQ(running.load(), finished.load() + 1) << "cap " << cap;
  }
}

TEST_F(ParallelTest, ThreadsForFollowsTheCap) {
  set_max_threads(1);
  EXPECT_EQ(threads_for(100), 1);
  set_max_threads(0);  // all hardware threads
  EXPECT_EQ(max_threads(),
            std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  EXPECT_EQ(threads_for(1000), std::min(1000, max_threads()));
  set_max_threads(-5);  // clamps to 0
  EXPECT_EQ(max_threads(),
            std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  set_max_threads(4);
  EXPECT_EQ(threads_for(0), 1);
  EXPECT_EQ(threads_for(1), 1);
  EXPECT_EQ(threads_for(3), 3);
  EXPECT_EQ(threads_for(9), 4);
}

TEST_F(ParallelTest, InnerFanOutOnAWorkerRunsInline) {
  set_max_threads(4);
  std::mutex mu;
  std::vector<int> inner_threads;
  bool inner_on_worker_thread = true;
  std::atomic<int> inner_hits{0};
  parallel_for(4, [&](std::size_t) {
    const std::thread::id worker = std::this_thread::get_id();
    const int inner = threads_for(8);
    bool same_thread = true;
    parallel_for(8, [&](std::size_t) {
      if (std::this_thread::get_id() != worker) same_thread = false;
      inner_hits.fetch_add(1);
    });
    const std::lock_guard<std::mutex> lock(mu);
    inner_threads.push_back(inner);
    inner_on_worker_thread = inner_on_worker_thread && same_thread;
  });
  EXPECT_EQ(inner_threads, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_TRUE(inner_on_worker_thread);
  EXPECT_EQ(inner_hits.load(), 32);
  // The mark ends with the fan-out: the caller may fan out again.
  EXPECT_EQ(threads_for(8), 4);
}

TEST_F(ParallelTest, OneThreadRunDoesNotMarkTheThread) {
  // A single-chain sweep runs its one chain through a one-thread
  // parallel_for; the solves inside must still be free to fan out.
  set_max_threads(4);
  int inner = 0;
  parallel_for(1, [&](std::size_t) { inner = threads_for(8); });
  EXPECT_EQ(inner, 4);
}

TEST_F(ParallelTest, WorkerScopeRunsFanOutsInline) {
  set_max_threads(4);
  std::thread worker([] {
    // What a serve front-end worker does for its lifetime.
    const ParallelWorkerScope scope;
    EXPECT_EQ(threads_for(8), 1);
    const std::thread::id self = std::this_thread::get_id();
    std::size_t hits = 0;
    parallel_for(8, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      ++hits;
    });
    EXPECT_EQ(hits, 8u);
    {
      const ParallelWorkerScope nested;
      EXPECT_EQ(threads_for(8), 1);
    }
    EXPECT_EQ(threads_for(8), 1);  // the outer scope still holds
  });
  worker.join();
  EXPECT_EQ(threads_for(8), 4);  // other threads are unaffected
}

}  // namespace
}  // namespace stackroute
