// LogHistogram (obs/profile.h): the fixed-size latency tally a server
// keeps. Its quantiles must stay within the declared relative error of
// the exact nearest-rank ones, its count/min/mean/max must be exact, and
// its size must not grow with the number of samples.
#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>
#include <vector>

#include "stackroute/obs/profile.h"
#include "stackroute/serve/frontend.h"
#include "stackroute/util/rng.h"

namespace stackroute::obs {
namespace {

void expect_within(double got, double want) {
  EXPECT_LE(std::fabs(got - want), LogHistogram::kRelativeError * want)
      << "got " << got << " want " << want;
}

TEST(LogHistogram, QuantilesMatchNearestRankWithinDeclaredError) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    // Log-uniform latencies over six decades, plus a few repeats.
    const int n = 1 + static_cast<int>(rng.uniform(0.0, 3000.0));
    std::vector<double> samples;
    LogHistogram h;
    for (int i = 0; i < n; ++i) {
      const double x = std::pow(10.0, rng.uniform(-3.0, 3.0));
      samples.push_back(x);
      h.add(x);
      if (i % 7 == 0) {
        samples.push_back(x);
        h.add(x);
      }
    }
    const QuantileSummary exact = QuantileSummary::of(samples);
    const QuantileSummary approx = h.summary();
    EXPECT_EQ(approx.count, exact.count);
    EXPECT_EQ(approx.min, exact.min);
    EXPECT_EQ(approx.max, exact.max);
    EXPECT_NEAR(approx.mean, exact.mean, 1e-12 * exact.mean);
    expect_within(approx.p50, exact.p50);
    expect_within(approx.p90, exact.p90);
    expect_within(approx.p99, exact.p99);
  }
}

TEST(LogHistogram, EmptyAndDegenerateSamples) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.summary().count, 0u);
  h.add(0.0);
  h.add(-1.0);  // counts as zero
  h.add(2.5);
  const QuantileSummary s = h.summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 2.5);
  // Zeros share the first bucket: absolute error below kMinValue.
  EXPECT_LE(s.p50, LogHistogram::kMinValue);
  expect_within(s.p99, 2.5);
}

TEST(LogHistogram, MergeEqualsOneTally) {
  Rng rng(12);
  LogHistogram a;
  LogHistogram b;
  LogHistogram both;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0.1, 50.0);
    (i % 3 == 0 ? a : b).add(x);
    both.add(x);
  }
  a.merge(b);
  const QuantileSummary merged = a.summary();
  const QuantileSummary one = both.summary();
  EXPECT_EQ(merged.count, one.count);
  EXPECT_EQ(merged.p50, one.p50);
  EXPECT_EQ(merged.p90, one.p90);
  EXPECT_EQ(merged.p99, one.p99);
  EXPECT_EQ(merged.min, one.min);
  EXPECT_EQ(merged.max, one.max);
}

TEST(LogHistogram, SizeStaysFlatOverManyResponses) {
  // Trivially copyable means no heap storage: the server's tally is
  // sizeof(FrontEndStats) after 100k responses as after the first.
  static_assert(std::is_trivially_copyable_v<LogHistogram>);
  static_assert(std::is_trivially_copyable_v<serve::FrontEndStats>);
  Rng rng(13);
  LogHistogram h;
  const LogHistogram before = h;
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform(0.5, 40.0));
  EXPECT_EQ(sizeof(h), sizeof(before));
  EXPECT_EQ(h.count(), 100000u);
  const QuantileSummary s = h.summary();
  EXPECT_GE(s.p50, 0.5);
  EXPECT_LE(s.p99, 40.0);
}

}  // namespace
}  // namespace stackroute::obs
