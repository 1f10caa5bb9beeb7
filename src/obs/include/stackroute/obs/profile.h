// Quantile summaries for latency profiles: nearest-rank percentiles over
// a sample set, the aggregation behind `stackroute-sweep --profile` and
// SweepResult::profile(), plus LogHistogram, the fixed-size tally a
// long-running server keeps instead of every sample.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace stackroute::obs {

/// Summary statistics of a sample set. Percentiles use the nearest-rank
/// definition: p_q = sorted[ceil(q * n) - 1], so p50 of {1,2,3,4} is 2 and
/// every reported percentile is an actual sample.
struct QuantileSummary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  /// Summarizes `samples` (taken by value: sorted in place). An empty
  /// input yields the all-zero summary with count == 0.
  static QuantileSummary of(std::vector<double> samples);

  /// "p50 1.23  p90 4.56  p99 7.89  (n=12, min 0.5, mean 2.1, max 9.9)"
  /// with `digits` fractional digits; "n=0" when empty.
  [[nodiscard]] std::string to_string(int digits = 3) const;
};

/// Fixed-size tally of non-negative samples (request latencies in ms):
/// count, min, mean and max are exact, and the percentiles come from
/// log-spaced buckets, so memory stays flat however many samples arrive.
/// For samples in [kMinValue, kMaxValue] each reported percentile is
/// within kRelativeError of the nearest-rank sample QuantileSummary::of
/// would report; smaller samples share the first bucket (absolute error
/// below kMinValue) and larger ones the last. Not thread-safe: the owner
/// serializes add() and summary().
class LogHistogram {
 public:
  static constexpr double kRelativeError = 0.01;
  static constexpr double kMinValue = 1e-6;
  static constexpr double kMaxValue = 1e9;

  /// Records one sample; negative and NaN samples count as zero.
  void add(double x);
  /// Adds every sample `other` recorded.
  void merge(const LogHistogram& other);
  [[nodiscard]] std::size_t count() const {
    return static_cast<std::size_t>(count_);
  }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// The summary of everything added so far (all zero with count 0).
  [[nodiscard]] QuantileSummary summary() const;

 private:
  // ceil(log_γ(kMaxValue / kMinValue)) + 1: bucket 0 plus the range.
  static constexpr std::size_t kBuckets = 1728;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace stackroute::obs
