#include "stackroute/latency/families.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {
namespace {

TEST(ConstantLatency, ValueDerivativeIntegral) {
  ConstantLatency fn(0.7);
  EXPECT_DOUBLE_EQ(fn.value(0.0), 0.7);
  EXPECT_DOUBLE_EQ(fn.value(5.0), 0.7);
  EXPECT_DOUBLE_EQ(fn.derivative(3.0), 0.0);
  EXPECT_DOUBLE_EQ(fn.integral(2.0), 1.4);
  EXPECT_DOUBLE_EQ(fn.marginal(9.0), 0.7);
  EXPECT_TRUE(fn.is_constant());
}

TEST(ConstantLatency, InversesThrow) {
  ConstantLatency fn(1.0);
  EXPECT_THROW(fn.inverse(2.0), Error);
  EXPECT_THROW(fn.inverse_marginal(2.0), Error);
}

TEST(ConstantLatency, NegativeRejected) {
  EXPECT_THROW(ConstantLatency(-0.1), Error);
}

TEST(AffineLatency, PigouFastLink) {
  AffineLatency fn(1.0, 0.0);  // ℓ(x) = x
  EXPECT_DOUBLE_EQ(fn.value(0.5), 0.5);
  EXPECT_DOUBLE_EQ(fn.derivative(0.5), 1.0);
  EXPECT_DOUBLE_EQ(fn.integral(1.0), 0.5);
  EXPECT_DOUBLE_EQ(fn.marginal(0.5), 1.0);  // 2x
  EXPECT_DOUBLE_EQ(fn.inverse(2.0), 2.0);
  EXPECT_DOUBLE_EQ(fn.inverse_marginal(2.0), 1.0);
}

TEST(AffineLatency, Fig4FourthLink) {
  AffineLatency fn(2.5, 1.0 / 6.0);  // 5x/2 + 1/6
  EXPECT_NEAR(fn.value(8.0 / 75.0), 13.0 / 30.0, 1e-15);
  EXPECT_NEAR(fn.marginal(8.0 / 75.0), 0.7, 1e-15);  // optimum level of Fig 4
  EXPECT_NEAR(fn.inverse_marginal(0.7), 8.0 / 75.0, 1e-15);
}

TEST(AffineLatency, InverseClampsBelowIntercept) {
  AffineLatency fn(2.0, 1.0);
  EXPECT_DOUBLE_EQ(fn.inverse(0.5), 0.0);
  EXPECT_DOUBLE_EQ(fn.inverse_marginal(0.5), 0.0);
}

TEST(AffineLatency, ZeroSlopeIsConstant) {
  AffineLatency fn(0.0, 2.0);
  EXPECT_TRUE(fn.is_constant());
  EXPECT_THROW(fn.inverse(3.0), Error);
}

TEST(AffineLatency, NegativeParamsRejected) {
  EXPECT_THROW(AffineLatency(-1.0, 0.0), Error);
  EXPECT_THROW(AffineLatency(1.0, -1.0), Error);
}

TEST(PolynomialLatency, CubicEvaluation) {
  PolynomialLatency fn({1.0, 2.0, 0.0, 4.0});  // 1 + 2x + 4x³
  EXPECT_DOUBLE_EQ(fn.value(0.0), 1.0);
  EXPECT_DOUBLE_EQ(fn.value(1.0), 7.0);
  EXPECT_DOUBLE_EQ(fn.derivative(1.0), 2.0 + 12.0);
  EXPECT_DOUBLE_EQ(fn.integral(1.0), 1.0 + 1.0 + 1.0);
  EXPECT_FALSE(fn.is_constant());
}

TEST(PolynomialLatency, NumericInverseMatchesValue) {
  PolynomialLatency fn({0.5, 0.0, 3.0});  // 0.5 + 3x²
  const double target = fn.value(1.3);
  EXPECT_NEAR(fn.inverse(target), 1.3, 1e-9);
}

TEST(PolynomialLatency, NumericInverseMarginalMatchesMarginal) {
  PolynomialLatency fn({0.5, 0.0, 3.0});
  const double target = fn.marginal(0.8);
  EXPECT_NEAR(fn.inverse_marginal(target), 0.8, 1e-9);
}

TEST(PolynomialLatency, ConstantOnlyDetected) {
  PolynomialLatency fn({2.0});
  EXPECT_TRUE(fn.is_constant());
}

TEST(PolynomialLatency, BadCoefficientsRejected) {
  EXPECT_THROW(PolynomialLatency({}), Error);
  EXPECT_THROW(PolynomialLatency({1.0, -2.0}), Error);
  EXPECT_THROW(PolynomialLatency({0.0, 0.0}), Error);
}

TEST(BprLatency, FreeFlowAtZero) {
  BprLatency fn(2.0, 1.5);
  EXPECT_DOUBLE_EQ(fn.value(0.0), 2.0);
  EXPECT_DOUBLE_EQ(fn.derivative(0.0), 0.0);
}

TEST(BprLatency, CongestionAtCapacity) {
  BprLatency fn(1.0, 1.0, 0.15, 4.0);
  EXPECT_NEAR(fn.value(1.0), 1.15, 1e-15);  // t0(1 + B) at x = cap
}

TEST(BprLatency, ClosedFormInverses) {
  BprLatency fn(1.5, 2.0, 0.2, 3.0);
  const double x = 1.234;
  EXPECT_NEAR(fn.inverse(fn.value(x)), x, 1e-12);
  EXPECT_NEAR(fn.inverse_marginal(fn.marginal(x)), x, 1e-12);
}

TEST(BprLatency, IntegralMatchesQuadrature) {
  BprLatency fn(1.0, 1.0);
  // Trapezoid with fine steps vs closed form.
  double acc = 0.0;
  const int n = 20000;
  const double hi = 2.0, h = hi / n;
  for (int i = 0; i < n; ++i) {
    acc += 0.5 * (fn.value(i * h) + fn.value((i + 1) * h)) * h;
  }
  EXPECT_NEAR(fn.integral(hi), acc, 1e-6);
}

TEST(BprLatency, BadParamsRejected) {
  EXPECT_THROW(BprLatency(0.0, 1.0), Error);
  EXPECT_THROW(BprLatency(1.0, 0.0), Error);
  EXPECT_THROW(BprLatency(1.0, 1.0, 0.0), Error);
  EXPECT_THROW(BprLatency(1.0, 1.0, 0.15, 0.5), Error);
  EXPECT_THROW(BprLatency(1.0, 1.0, 0.15, -1e300), Error);
}

TEST(BprLatency, IntegerPowerRule) {
  EXPECT_EQ(formula::bpr::int_power(1.0), 1);
  EXPECT_EQ(formula::bpr::int_power(4.0), 4);
  EXPECT_EQ(formula::bpr::int_power(16.0), 16);
  EXPECT_EQ(formula::bpr::int_power(17.0), 0);
  EXPECT_EQ(formula::bpr::int_power(2.5), 0);
  // Outside int range: 0, with no out-of-range cast.
  EXPECT_EQ(formula::bpr::int_power(-1e300), 0);
}

TEST(Mm1Latency, QueueingDelayShape) {
  Mm1Latency fn(2.0);
  EXPECT_DOUBLE_EQ(fn.value(0.0), 0.5);
  EXPECT_DOUBLE_EQ(fn.value(1.0), 1.0);
  EXPECT_NEAR(fn.value(1.9), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(fn.capacity(), 2.0);
}

TEST(Mm1Latency, MarginalIsMuOverSquared) {
  Mm1Latency fn(2.0);
  EXPECT_NEAR(fn.marginal(1.0), 2.0, 1e-12);  // mu/(mu-x)^2 = 2/1
}

TEST(Mm1Latency, ClosedFormInverses) {
  Mm1Latency fn(3.0);
  const double x = 2.2;
  EXPECT_NEAR(fn.inverse(fn.value(x)), x, 1e-12);
  EXPECT_NEAR(fn.inverse_marginal(fn.marginal(x)), x, 1e-12);
}

TEST(Mm1Latency, InverseClampsBelowBase) {
  Mm1Latency fn(4.0);
  EXPECT_DOUBLE_EQ(fn.inverse(0.1), 0.0);  // 1/mu = 0.25 > 0.1
  EXPECT_DOUBLE_EQ(fn.inverse_marginal(0.2), 0.0);
}

TEST(Mm1Latency, BarrierExtensionIsFiniteAndIncreasing) {
  Mm1Latency fn(1.0);
  const double a = fn.value(1.0);     // beyond the break point
  const double b = fn.value(2.0);
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_TRUE(std::isfinite(b));
  EXPECT_GT(b, a);
  EXPECT_GT(fn.integral(2.0), fn.integral(1.0));
}

TEST(Mm1Latency, BadMuRejected) {
  EXPECT_THROW(Mm1Latency(0.0), Error);
  EXPECT_THROW(Mm1Latency(-1.0), Error);
}

TEST(ShiftedLatency, ActsAsPreloadedLink) {
  const LatencyPtr base = make_affine(2.0, 1.0);
  ShiftedLatency fn(base, 0.5);
  EXPECT_DOUBLE_EQ(fn.value(0.0), 2.0);   // ℓ(0.5)
  EXPECT_DOUBLE_EQ(fn.value(1.0), 4.0);   // ℓ(1.5)
  EXPECT_DOUBLE_EQ(fn.integral(0.0), 0.0);
  // ∫₀¹ ℓ(u+0.5) du = ∫_{0.5}^{1.5} ℓ = [x² + x] over the interval = 3.
  EXPECT_DOUBLE_EQ(fn.integral(1.0), 3.0);
}

TEST(ShiftedLatency, MarginalUsesFollowerFlowOnly) {
  // h(x) = ℓ(x+s) + x·ℓ'(x+s), not the shifted marginal.
  const LatencyPtr base = make_affine(1.0, 0.0);
  ShiftedLatency fn(base, 1.0);
  EXPECT_DOUBLE_EQ(fn.marginal(2.0), 3.0 + 2.0);
}

TEST(ShiftedLatency, InverseSubtractsShift) {
  const LatencyPtr base = make_affine(1.0, 0.0);
  ShiftedLatency fn(base, 2.0);
  EXPECT_DOUBLE_EQ(fn.inverse(5.0), 3.0);
  EXPECT_DOUBLE_EQ(fn.inverse(1.0), 0.0);  // clamped: target below ℓ(s)
}

TEST(ShiftedLatency, NestedShiftsCollapse) {
  const LatencyPtr once = make_shifted(make_affine(1.0, 0.0), 1.0);
  const LatencyPtr twice = make_shifted(once, 2.0);
  const auto* sh = dynamic_cast<const ShiftedLatency*>(twice.get());
  ASSERT_NE(sh, nullptr);
  EXPECT_DOUBLE_EQ(sh->shift(), 3.0);
  EXPECT_DOUBLE_EQ(twice->value(0.5), 3.5);
}

TEST(ShiftedLatency, ZeroShiftReturnsBase) {
  const LatencyPtr base = make_affine(1.0, 0.0);
  EXPECT_EQ(make_shifted(base, 0.0).get(), base.get());
}

TEST(ShiftedLatency, ShiftBeyondCapacityRejected) {
  EXPECT_THROW(ShiftedLatency(make_mm1(1.0), 2.0), Error);
}

TEST(ScaledLatency, ScalesEverything) {
  ScaledLatency fn(make_affine(1.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(fn.value(1.0), 6.0);
  EXPECT_DOUBLE_EQ(fn.derivative(1.0), 3.0);
  EXPECT_DOUBLE_EQ(fn.integral(2.0), 3.0 * (2.0 + 2.0));
  EXPECT_DOUBLE_EQ(fn.inverse(6.0), 1.0);
}

TEST(Factories, MonomialBuildsExpectedPolynomial) {
  const LatencyPtr fn = make_monomial(2.0, 3);  // 2x³
  EXPECT_DOUBLE_EQ(fn->value(2.0), 16.0);
  EXPECT_DOUBLE_EQ(fn->value(0.0), 0.0);
}

TEST(Factories, MakeLatencyRoundTripsSerializableKinds) {
  const std::vector<LatencyPtr> fns = {
      make_constant(0.7), make_affine(2.5, 1.0 / 6.0),
      make_polynomial({1.0, 0.0, 2.0}), make_bpr(1.0, 2.0, 0.15, 4.0),
      make_mm1(3.0)};
  for (const auto& fn : fns) {
    const LatencyPtr copy = make_latency(fn->kind(), fn->params());
    for (double x : {0.0, 0.3, 1.1, 2.4}) {
      EXPECT_DOUBLE_EQ(copy->value(x), fn->value(x)) << fn->describe();
    }
  }
}

TEST(Factories, ShiftedScaledNotSerializable) {
  EXPECT_THROW(make_latency(LatencyKind::kShifted, {1.0}), Error);
  EXPECT_THROW(make_latency(LatencyKind::kScaled, {1.0}), Error);
}

TEST(Describe, HumanReadableFormulas) {
  EXPECT_EQ(make_affine(1.5, 0.0)->describe(), "1.5x");
  EXPECT_EQ(make_constant(0.7)->describe(), "0.7");
  EXPECT_EQ(make_mm1(2.0)->describe(), "1/(2 - x)");
}

}  // namespace
}  // namespace stackroute
