// The closed-form formulas of the primitive latency families, each written
// once, as inline free functions over plain parameters.
//
// Both evaluation paths call them: the virtual methods of the family classes
// (families.h) and the compiled LatencyTable kernels (table.h). A family
// object's members and a table entry's slots therefore run one expression
// sequence, and the two paths agree bit for bit by construction; the sweep
// determinism contract ("bitwise identical tables") rests on that.
// Inverses are clamped at 0 as documented in latency.h and assume a
// strictly increasing function (affine needs a > 0; constants have none).
#pragma once

#include <cmath>
#include <span>

#include "stackroute/util/numeric.h"

namespace stackroute::formula {

/// ℓ(x) = b.
namespace constant {
inline double value(double b) { return b; }
inline double derivative() { return 0.0; }
inline double integral(double b, double x) { return b * x; }
}  // namespace constant

/// ℓ(x) = a·x + b.
namespace affine {
inline double value(double a, double b, double x) { return a * x + b; }
inline double derivative(double a) { return a; }
inline double integral(double a, double b, double x) {
  return 0.5 * a * x * x + b * x;
}
inline double inverse(double a, double b, double target) {
  return std::fmax(0.0, (target - b) / a);
}
inline double inverse_marginal(double a, double b, double target) {
  return std::fmax(0.0, (target - b) / (2.0 * a));
}
}  // namespace affine

/// ℓ(x) = Σ_k c[k]·x^k (Horner). No closed-form inverse.
namespace polynomial {
inline double value(std::span<const double> c, double x) {
  double acc = 0.0;
  for (std::size_t k = c.size(); k-- > 0;) acc = acc * x + c[k];
  return acc;
}
inline double derivative(std::span<const double> c, double x) {
  double acc = 0.0;
  for (std::size_t k = c.size(); k-- > 1;) {
    acc = acc * x + static_cast<double>(k) * c[k];
  }
  return acc;
}
inline double integral(std::span<const double> c, double x) {
  double acc = 0.0;
  for (std::size_t k = c.size(); k-- > 0;) {
    acc = acc * x + c[k] / static_cast<double>(k + 1);
  }
  return acc * x;
}
}  // namespace polynomial

/// ℓ(x) = t0·(1 + B·(x/cap)^p). `ip` is int_power(p).
namespace bpr {
/// p when it is an integer in [1, 16] (p = 4 is the standard
/// parameterization), else 0. (x/cap)^p is then sequential multiplies
/// instead of std::pow, which otherwise dominates edge cost evaluation. The
/// range test comes first, so no out-of-range p reaches the int cast.
inline int int_power(double p) {
  return p >= 1.0 && p <= 16.0 && p == std::floor(p) ? static_cast<int>(p)
                                                     : 0;
}
inline double value(double t0, double cap, double b, double p, int ip,
                    double x) {
  const double r = x / cap;
  const double rp = ip > 0 ? ipow_small(r, ip) : std::pow(r, p);
  return t0 * (1.0 + b * rp);
}
inline double derivative(double t0, double cap, double b, double p, int ip,
                         double x) {
  const double r = x / cap;
  const double rp1 = ip > 0 ? ipow_small(r, ip - 1) : std::pow(r, p - 1.0);
  return t0 * b * p * rp1 / cap;
}
inline double integral(double t0, double cap, double b, double p, int ip,
                       double x) {
  const double r = x / cap;
  const double rp = ip > 0 ? ipow_small(r, ip) : std::pow(r, p);
  return t0 * x + t0 * b * rp * x / (p + 1.0);
}
inline double inverse(double t0, double cap, double b, double p,
                      double target) {
  if (target <= t0) return 0.0;
  return cap * std::pow((target / t0 - 1.0) / b, 1.0 / p);
}
/// marginal(x) = t0 + t0·B·(p+1)·(x/cap)^p.
inline double inverse_marginal(double t0, double cap, double b, double p,
                               double target) {
  if (target <= t0) return 0.0;
  return cap * std::pow((target / t0 - 1.0) / (b * (p + 1.0)), 1.0 / p);
}
}  // namespace bpr

/// ℓ(x) = 1/(mu − x), continued C¹-linearly beyond x_break(mu).
namespace mm1 {
inline double x_break(double mu) { return mu * (1.0 - 1e-7); }
inline double value(double mu, double x) {
  const double xb = x_break(mu);
  if (x <= xb) return 1.0 / (mu - x);
  const double v = 1.0 / (mu - xb);
  const double d = v * v;
  return v + d * (x - xb);
}
inline double derivative(double mu, double x) {
  const double xe = std::fmin(x, x_break(mu));
  const double v = 1.0 / (mu - xe);
  return v * v;
}
inline double integral(double mu, double x) {
  const double xb = x_break(mu);
  if (x <= xb) return std::log(mu / (mu - x));
  const double v = 1.0 / (mu - xb);
  const double d = v * v;
  const double t = x - xb;
  return std::log(mu / (mu - xb)) + v * t + 0.5 * d * t * t;
}
inline double inverse(double mu, double target) {
  if (target <= 1.0 / mu) return 0.0;
  const double xb = x_break(mu);
  const double vb = 1.0 / (mu - xb);
  if (target <= vb) return mu - 1.0 / target;
  return xb + (target - vb) / (vb * vb);
}
/// marginal(x) = mu/(mu − x)² inside the domain; beyond the break the value
/// is linear with slope s = vb², so the marginal vb + s·(x − xb) + x·s is too.
inline double inverse_marginal(double mu, double target) {
  if (target <= 1.0 / mu) return 0.0;
  const double xb = x_break(mu);
  const double vb = 1.0 / (mu - xb);
  const double mb = mu * vb * vb;
  if (target <= mb) return mu - std::sqrt(mu / target);
  const double s = vb * vb;
  return (target - vb + s * xb) / (2.0 * s);
}
}  // namespace mm1

}  // namespace stackroute::formula
