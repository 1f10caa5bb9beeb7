// Floating-point helpers shared across the library.
//
// Equilibrium computations compare flows and latencies that come out of
// iterative solvers, so every comparison needs an explicit tolerance. The
// helpers here make the tolerance convention uniform: absolute tolerance
// for quantities known to live on an O(1)..O(r) scale, mixed abs/rel
// tolerance for everything else.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace stackroute {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// base^e for a small non-negative integer exponent, as e−1 sequential
/// multiplies. Strength reduction for the BPR power curve (p = 4 in the
/// standard parameterization), where std::pow dominates the solvers' edge
/// cost evaluations. Note the result differs from std::pow(base, double(e))
/// in the last ulps — callers choose one form and use it consistently.
inline double ipow_small(double base, int e) {
  if (e <= 0) return 1.0;
  double r = base;
  for (int k = 1; k < e; ++k) r *= base;
  return r;
}

/// Mixed absolute/relative comparison: |a-b| <= abs_tol + rel_tol*max(|a|,|b|).
inline bool almost_equal(double a, double b, double abs_tol = 1e-9,
                         double rel_tol = 1e-9) {
  const double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  const double scale = std::fmax(std::fabs(a), std::fabs(b));
  return diff <= rel_tol * scale;
}

/// a <= b up to tolerance.
inline bool almost_leq(double a, double b, double tol = 1e-9) {
  return a <= b + tol;
}

/// Kahan–Babuska compensated accumulator. Water-filling over 10^6 links and
/// whole-network objective evaluations sum many same-signed small terms; naive
/// summation loses enough precision to trip equilibrium checkers.
class KahanSum {
 public:
  void add(double x) {
    // Branchless select of the larger-magnitude operand: path-cost sums
    // run this hundreds of millions of times over similar-magnitude terms,
    // where a conditional branch mispredicts constantly. The selected
    // expressions are exactly the two classic Neumaier branches, so the
    // result is bit-identical to the branchy form.
    const double t = sum_ + x;
    const bool sum_big = std::fabs(sum_) >= std::fabs(x);
    const double big = sum_big ? sum_ : x;
    const double small = sum_big ? x : sum_;
    comp_ += (big - t) + small;
    sum_ = t;
  }
  [[nodiscard]] double value() const { return sum_ + comp_; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Compensated sum of a span.
inline double sum(std::span<const double> xs) {
  KahanSum s;
  for (double x : xs) s.add(x);
  return s.value();
}

/// Componentwise a + b.
inline std::vector<double> add(std::span<const double> a,
                               std::span<const double> b) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

/// Componentwise a - b.
inline std::vector<double> subtract(std::span<const double> a,
                                    std::span<const double> b) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

/// max_i |a_i - b_i|; spans must have equal length.
inline double max_abs_diff(std::span<const double> a,
                           std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::fmax(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

}  // namespace stackroute
