#include "stackroute/obs/profile.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace stackroute::obs {

namespace {

double nearest_rank(const std::vector<double>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

}  // namespace

QuantileSummary QuantileSummary::of(std::vector<double> samples) {
  QuantileSummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.p50 = nearest_rank(samples, 0.50);
  s.p90 = nearest_rank(samples, 0.90);
  s.p99 = nearest_rank(samples, 0.99);
  return s;
}

std::string QuantileSummary::to_string(int digits) const {
  std::ostringstream os;
  if (count == 0) {
    os << "n=0";
    return os.str();
  }
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << "p50 " << p50 << "  p90 " << p90 << "  p99 " << p99 << "  (n="
     << count << ", min " << min << ", mean " << mean << ", max " << max
     << ")";
  return os.str();
}

namespace {

// Bucket i > 0 holds (kMinValue·γ^(i−1), kMinValue·γ^i] with
// γ = (1 + ε)/(1 − ε); its representative 2·kMinValue·γ^i/(γ + 1) is
// then within ε of every value in it.
constexpr double kGamma = (1.0 + LogHistogram::kRelativeError) /
                          (1.0 - LogHistogram::kRelativeError);

double bucket_value(std::size_t i) {
  return 2.0 * LogHistogram::kMinValue *
         std::pow(kGamma, static_cast<double>(i)) / (kGamma + 1.0);
}

}  // namespace

void LogHistogram::add(double x) {
  if (!(x > 0.0)) x = 0.0;
  std::size_t i = 0;
  if (x > kMinValue) {
    const double b = std::ceil(std::log(x / kMinValue) / std::log(kGamma));
    i = std::min(kBuckets - 1, static_cast<std::size_t>(b));
  }
  ++buckets_[i];
  min_ = count_ == 0 ? x : std::fmin(min_, x);
  max_ = count_ == 0 ? x : std::fmax(max_, x);
  ++count_;
  sum_ += x;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  min_ = count_ == 0 ? other.min_ : std::fmin(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::fmax(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

QuantileSummary LogHistogram::summary() const {
  QuantileSummary s;
  if (count_ == 0) return s;
  s.count = static_cast<std::size_t>(count_);
  s.min = min_;
  s.max = max_;
  s.mean = sum_ / static_cast<double>(count_);
  const auto quantile = [&](double q) {
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    std::size_t i = 0;
    while (seen + buckets_[i] < rank) seen += buckets_[i++];
    // The nearest-rank sample lies in bucket i and in [min, max].
    return std::clamp(bucket_value(i), min_, max_);
  };
  s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p99 = quantile(0.99);
  return s;
}

}  // namespace stackroute::obs
