// One-dimensional root finding and minimization.
//
// These are the numeric primitives the equilibrium solvers are built on:
// inverting strictly increasing latency / marginal-cost functions, finding
// the common-latency level in water-filling, the flow shift of one path
// equalization step, and minimizing the convex split objective of Theorem 2.4.
// All routines are templates over callables so they inline into hot loops.
#pragma once

#include <cmath>

#include "stackroute/util/error.h"

namespace stackroute {

/// Root of a continuous non-decreasing f on [lo, hi]. Requires
/// f(lo) <= 0 <= f(hi) (within roundoff). Plain bisection: robust against
/// the piecewise-smooth functions water-filling produces.
template <typename F>
double bisect_increasing(F&& f, double lo, double hi, double tol = 1e-13,
                         int max_iter = 200) {
  SR_REQUIRE(lo <= hi, "bisect_increasing: empty bracket");
  // NaN probes must fail loudly: every ordered comparison against NaN is
  // false, so an unchecked NaN would steer every step to the upper branch
  // and the loop would "converge" to a meaningless midpoint.
  double flo = f(lo);
  SR_REQUIRE_FINITE(flo, "bisect_increasing: non-finite f(lo)");
  if (flo >= 0.0) return lo;
  double fhi = f(hi);
  SR_REQUIRE_FINITE(fhi, "bisect_increasing: non-finite f(hi)");
  if (fhi <= 0.0) return hi;
  for (int it = 0; it < max_iter && hi - lo > tol; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    SR_REQUIRE_FINITE(fm, "bisect_increasing: non-finite f(mid)");
    if (fm < 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Safeguarded Newton iteration for increasing f with derivative df on
/// [lo, hi]; falls back to bisection steps whenever Newton leaves the
/// bracket or stalls. Roughly quadratic convergence near the root, never
/// worse than bisection.
template <typename F, typename DF>
double newton_bisect(F&& f, DF&& df, double lo, double hi, double tol = 1e-13,
                     int max_iter = 100) {
  SR_REQUIRE(lo <= hi, "newton_bisect: empty bracket");
  const double flo = f(lo);
  SR_REQUIRE_FINITE(flo, "newton_bisect: non-finite f(lo)");
  if (flo >= 0.0) return lo;
  const double fhi = f(hi);
  SR_REQUIRE_FINITE(fhi, "newton_bisect: non-finite f(hi)");
  if (fhi <= 0.0) return hi;
  double x = 0.5 * (lo + hi);
  for (int it = 0; it < max_iter; ++it) {
    const double fx = f(x);
    SR_REQUIRE_FINITE(fx, "newton_bisect: non-finite f(x)");
    if (fx < 0.0) {
      lo = x;
    } else {
      hi = x;
    }
    if (hi - lo <= tol) break;
    const double d = df(x);
    double next = (d > 0.0) ? x - fx / d : lo - 1.0;  // force bisection if flat
    // Alternate with plain midpoint steps: even a badly wrong derivative
    // (tiny Newton steps hugging one end) then still halves the bracket
    // every other iteration, so max_iter bounds the precision.
    if (it % 2 == 1 || !(next > lo && next < hi)) next = 0.5 * (lo + hi);
    x = next;
  }
  return 0.5 * (lo + hi);
}

/// Root of a continuous non-decreasing f on a validated bracket:
/// f(lo) <= 0 <= f(hi), with both endpoint values already computed (the
/// warm-started solvers have just paid for them while bracketing). The
/// Illinois variant of false position: superlinear on smooth functions,
/// with a plain midpoint step every fourth iteration so the bracket
/// provably shrinks even on degenerate shapes. Same result contract as
/// bisect_increasing — a point within tol of the root.
template <typename F>
double illinois_increasing(F&& f, double lo, double hi, double flo, double fhi,
                           double tol = 1e-13, int max_iter = 200) {
  SR_REQUIRE(lo <= hi, "illinois_increasing: empty bracket");
  SR_REQUIRE_FINITE(flo, "illinois_increasing: non-finite f(lo)");
  SR_REQUIRE_FINITE(fhi, "illinois_increasing: non-finite f(hi)");
  if (flo >= 0.0) return lo;
  if (fhi <= 0.0) return hi;
  int last = 0;  // which endpoint the previous step replaced: -1 lo, +1 hi
  for (int it = 0; it < max_iter && hi - lo > tol; ++it) {
    double x;
    if (it % 4 == 3 || !(fhi > flo)) {
      x = 0.5 * (lo + hi);
    } else {
      x = (lo * fhi - hi * flo) / (fhi - flo);
      if (!(x > lo && x < hi)) x = 0.5 * (lo + hi);
    }
    const double fx = f(x);
    SR_REQUIRE_FINITE(fx, "illinois_increasing: non-finite f(x)");
    if (fx == 0.0) return x;
    if (fx < 0.0) {
      lo = x;
      flo = fx;
      // Illinois damping: the retained endpoint's value is halved when the
      // same side moves twice, so interpolation cannot pin one end. The
      // damped values only steer interpolation; bracketing uses true signs.
      if (last < 0) fhi *= 0.5;
      last = -1;
    } else {
      hi = x;
      fhi = fx;
      if (last > 0) flo *= 0.5;
      last = +1;
    }
  }
  return 0.5 * (lo + hi);
}

/// Expand an upper bound: smallest hi = lo + step * 2^k (k = 0, 1, ...) with
/// f(hi) >= 0, capped at `limit`. Returns `limit` if f stays negative.
/// Used to bracket latency inversions whose scale is not known a priori.
template <typename F>
double expand_upper(F&& f, double lo, double step, double limit) {
  double hi = lo + step;
  while (hi < limit && f(hi) < 0.0) {
    hi = lo + 2.0 * (hi - lo);
  }
  return hi < limit ? hi : limit;
}

/// Golden-section minimization of a unimodal f on [lo, hi]. Returns the
/// abscissa of the minimum to within tol.
template <typename F>
double golden_section_min(F&& f, double lo, double hi, double tol = 1e-12,
                          int max_iter = 200) {
  SR_REQUIRE(lo <= hi, "golden_section_min: empty interval");
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  for (int it = 0; it < max_iter && b - a > tol; ++it) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
  }
  return 0.5 * (a + b);
}

}  // namespace stackroute
