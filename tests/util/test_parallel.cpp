// util/parallel.h: every index runs exactly once, the first exception is
// rethrown after the join, and threads_for follows the cap.
#include "stackroute/util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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

}  // namespace
}  // namespace stackroute
