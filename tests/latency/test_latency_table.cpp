// LatencyTable vs the virtual LatencyFunction interface: the compiled
// kernels must agree with the objects they were compiled from — bitwise for
// value/derivative/integral/marginal and the closed-form inverses (both
// sides run the formulas.h expressions; the solver hot paths lean on this
// for the sweep determinism contract), and to tight tolerance for inverses
// that fall back to the numeric default.
// Covers every LatencyKind, nested shifted/scaled/offset wrappers, and the
// opaque fallback for unknown subclasses.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "stackroute/latency/families.h"
#include "stackroute/latency/table.h"
#include "stackroute/util/error.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

struct TableCase {
  std::string name;
  LatencyPtr fn;
  double x_max;  // sample loads in [0, x_max], inside capacity
};

std::vector<TableCase> table_cases() {
  Rng rng(77);
  std::vector<TableCase> cases;
  cases.push_back({"constant", make_constant(0.7), 8.0});
  cases.push_back({"constant_zero", make_constant(0.0), 8.0});
  cases.push_back({"affine", make_affine(2.5, 1.0 / 6.0), 8.0});
  cases.push_back({"affine_zero_slope", make_affine(0.0, 1.5), 8.0});
  cases.push_back({"linear", make_linear(3.0), 8.0});
  cases.push_back({"poly_quadratic", make_polynomial({0.5, 0.0, 2.0}), 5.0});
  cases.push_back({"poly_cubic", make_polynomial({0.1, 1.0, 0.0, 0.5}), 4.0});
  cases.push_back({"monomial_d7", make_monomial(0.3, 7), 2.5});
  cases.push_back({"bpr_default", make_bpr(1.0, 1.0), 3.0});
  cases.push_back({"bpr_steep", make_bpr(2.0, 0.5, 0.3, 6.0), 1.5});
  cases.push_back({"bpr_linear", make_bpr(1.0, 2.0, 0.5, 1.0), 4.0});
  // Exponents off the small-integer rule take the std::pow branch.
  cases.push_back({"bpr_fractional", make_bpr(1.0, 2.0, 0.15, 2.5), 4.0});
  cases.push_back({"bpr_p20", make_bpr(1.5, 1.0, 0.15, 20.0), 1.4});
  cases.push_back({"mm1", make_mm1(2.0), 1.8});
  cases.push_back({"mm1_past_break", make_mm1(1.0), 3.0});  // barrier region
  // Single wrappers around every wrappable family.
  cases.push_back({"shifted_affine", make_shifted(make_affine(2.0, 0.5), 1.25), 6.0});
  cases.push_back({"shifted_poly", make_shifted(make_polynomial({0.2, 0.1, 0.7}), 0.4), 4.0});
  cases.push_back({"shifted_bpr", make_shifted(make_bpr(1.5, 2.0), 0.8), 3.0});
  cases.push_back({"shifted_bpr_fractional",
                   make_shifted(make_bpr(2.0, 1.5, 0.2, 3.7), 0.3), 3.0});
  cases.push_back({"shifted_mm1", make_shifted(make_mm1(4.0), 1.0), 2.5});
  cases.push_back({"scaled_poly", make_scaled(make_polynomial({0.2, 0.3, 0.4}), 2.5), 4.0});
  cases.push_back({"scaled_mm1", make_scaled(make_mm1(3.0), 0.25), 2.5});
  cases.push_back({"scaled_bpr_fractional",
                   make_scaled(make_bpr(1.0, 1.0, 0.15, 4.5), 1.3), 2.0});
  cases.push_back({"offset_affine", make_offset(make_affine(1.2, 0.3), 0.9), 6.0});
  cases.push_back({"offset_constant", make_offset(make_constant(0.5), 0.25), 6.0});
  // Nested wrappers (both orders of scale/offset, shift inside and outside).
  cases.push_back({"scaled_offset_affine",
                   make_scaled(make_offset(make_affine(1.0, 0.2), 0.4), 1.5), 5.0});
  cases.push_back({"offset_scaled_poly",
                   make_offset(make_scaled(make_polynomial({0.3, 0.6}), 2.0), 0.7), 5.0});
  cases.push_back({"shifted_scaled_bpr",
                   make_shifted(make_scaled(make_bpr(1.0, 1.5), 1.2), 0.6), 2.0});
  cases.push_back({"scaled_shifted_mm1",
                   make_scaled(make_shifted(make_mm1(5.0), 1.5), 0.8), 2.0});
  cases.push_back({"offset_shifted_scaled_affine",
                   make_offset(make_scaled(make_shifted(make_affine(0.9, 0.1), 0.5), 1.7), 0.3),
                   4.0});
  for (int i = 0; i < 6; ++i) {
    cases.push_back({"random_affine_" + std::to_string(i),
                     make_affine(rng.uniform(0.1, 5.0), rng.uniform(0.0, 3.0)),
                     6.0});
    std::vector<double> coeffs(static_cast<std::size_t>(rng.uniform_int(1, 5)));
    for (auto& c : coeffs) c = rng.uniform(0.0, 2.0);
    coeffs.back() += 0.1;
    cases.push_back({"random_poly_" + std::to_string(i),
                     make_polynomial(std::move(coeffs)), 3.0});
  }
  return cases;
}

class TableEquivalence : public ::testing::TestWithParam<TableCase> {};

TEST_P(TableEquivalence, MatchesVirtualInterfaceBitwise) {
  const TableCase& c = GetParam();
  const std::vector<LatencyPtr> lats = {c.fn};
  const LatencyTable table = LatencyTable::compiled(lats);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.is_constant(0), c.fn->is_constant()) << c.name;

  Rng rng(4242);
  for (int k = 0; k < 200; ++k) {
    const double x = k == 0 ? 0.0 : rng.uniform(0.0, c.x_max);
    EXPECT_EQ(table.value(0, x), c.fn->value(x)) << c.name << " value @" << x;
    EXPECT_EQ(table.derivative(0, x), c.fn->derivative(x))
        << c.name << " derivative @" << x;
    EXPECT_EQ(table.integral(0, x), c.fn->integral(x))
        << c.name << " integral @" << x;
    EXPECT_EQ(table.marginal(0, x), c.fn->marginal(x))
        << c.name << " marginal @" << x;
  }
}

// Affine, BPR and M/M/1 invert in closed form, alone or wrapped; the
// marginal inverse only when no shift intervenes (a shifted marginal is not
// the marginal shifted).
struct ClosedForms {
  bool inverse = false;
  bool marginal = false;
};

ClosedForms closed_forms(const LatencyFunction& f) {
  const LatencyFunction* cur = &f;
  bool shifted = false;
  while (const LatencyFunction* base = peel_wrapper(*cur).base) {
    shifted = shifted || cur->kind() == LatencyKind::kShifted;
    cur = base;
  }
  const LatencyKind k = cur->kind();
  const bool inverse = k == LatencyKind::kAffine || k == LatencyKind::kBpr ||
                       k == LatencyKind::kMm1;
  return {inverse, inverse && !shifted};
}

void expect_inverse_match(double a, double b, bool bitwise,
                          const std::string& what) {
  if (bitwise) {
    EXPECT_EQ(a, b) << what;
  } else {
    EXPECT_NEAR(a, b, 1e-9 * std::fmax(1.0, std::fabs(b))) << what;
  }
}

TEST_P(TableEquivalence, InversesMatch) {
  const TableCase& c = GetParam();
  if (c.fn->is_constant()) return;  // inverses throw for constants
  const std::vector<LatencyPtr> lats = {c.fn};
  const LatencyTable table = LatencyTable::compiled(lats);
  const ClosedForms closed = closed_forms(*c.fn);

  Rng rng(1717);
  for (int k = 0; k < 100; ++k) {
    const double x = rng.uniform(0.0, c.x_max);
    const double t = c.fn->value(x);
    expect_inverse_match(table.inverse(0, t), c.fn->inverse(t), closed.inverse,
                         c.name + " inverse @" + std::to_string(t));
    const double tm = c.fn->marginal(x);
    expect_inverse_match(table.inverse_marginal(0, tm),
                         c.fn->inverse_marginal(tm), closed.marginal,
                         c.name + " inverse_marginal @" + std::to_string(tm));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TableEquivalence, ::testing::ValuesIn(table_cases()),
    [](const ::testing::TestParamInfo<TableCase>& info) {
      return info.param.name;
    });

// An unknown subclass must compile to an opaque entry that forwards to the
// virtual object rather than mis-evaluating.
class WeirdLatency final : public LatencyFunction {
 public:
  double value(double x) const override { return x * x + 3.0; }
  double derivative(double x) const override { return 2.0 * x; }
  double integral(double x) const override { return x * x * x / 3.0 + 3.0 * x; }
  LatencyKind kind() const override { return LatencyKind::kPolynomial; }
  std::vector<double> params() const override { return {}; }  // malformed
  std::string describe() const override { return "weird"; }
};

TEST(LatencyTable, OpaqueFallbackForUnknownSubclass) {
  const std::vector<LatencyPtr> lats = {std::make_shared<WeirdLatency>()};
  const LatencyTable table = LatencyTable::compiled(lats);
  for (double x : {0.0, 0.5, 2.0, 7.25}) {
    EXPECT_EQ(table.value(0, x), lats[0]->value(x));
    EXPECT_EQ(table.derivative(0, x), lats[0]->derivative(x));
    EXPECT_EQ(table.integral(0, x), lats[0]->integral(x));
    EXPECT_EQ(table.marginal(0, x), lats[0]->marginal(x));
  }
}

// A subclass claiming a wrapper kind is not a wrapper: peel_wrapper does
// not see through it, so the table never dereferences it as one and the
// whole entry (an offset around it, too) forwards opaquely.
class ClaimsShifted final : public LatencyFunction {
 public:
  double value(double x) const override { return 2.0 * x + 1.0; }
  double derivative(double) const override { return 2.0; }
  double integral(double x) const override { return x * x + x; }
  LatencyKind kind() const override { return LatencyKind::kShifted; }
  std::vector<double> params() const override { return {0.5}; }
  std::string describe() const override { return "claims shifted"; }
};

TEST(LatencyTable, ClaimedWrapperKindStaysOpaque) {
  const LatencyPtr fake = std::make_shared<ClaimsShifted>();
  EXPECT_EQ(peel_wrapper(*fake).base, nullptr);
  const std::vector<LatencyPtr> lats = {fake, make_offset(fake, 0.25)};
  const LatencyTable table = LatencyTable::compiled(lats);
  for (std::size_t i = 0; i < lats.size(); ++i) {
    for (double x : {0.0, 0.5, 2.0}) {
      EXPECT_EQ(table.value(i, x), lats[i]->value(x)) << i;
      EXPECT_EQ(table.integral(i, x), lats[i]->integral(x)) << i;
      EXPECT_EQ(table.marginal(i, x), lats[i]->marginal(x)) << i;
    }
  }
}

TEST(LatencyTable, CompileReusesStorageAndRejectsNull) {
  LatencyTable table;
  const std::vector<LatencyPtr> a = {make_affine(1.0, 0.5), make_mm1(2.0)};
  table.compile(a);
  EXPECT_EQ(table.size(), 2u);
  const std::vector<LatencyPtr> b = {make_constant(1.0)};
  table.compile(b);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.value(0, 3.0), 1.0);

  const std::vector<LatencyPtr> bad = {nullptr};
  EXPECT_THROW(table.compile(bad), Error);
}

}  // namespace
}  // namespace stackroute
