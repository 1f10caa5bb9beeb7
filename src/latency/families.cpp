#include "stackroute/latency/families.h"

#include <cmath>
#include <sstream>

#include "stackroute/util/error.h"

namespace stackroute {

namespace {
std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}
}  // namespace

// ---- ConstantLatency -----------------------------------------------------

ConstantLatency::ConstantLatency(double b) : b_(b) {
  SR_REQUIRE(b >= 0.0 && std::isfinite(b),
             "constant latency needs b >= 0, got " + fmt(b));
}

double ConstantLatency::inverse(double) const {
  throw Error("cannot invert constant latency " + describe());
}

double ConstantLatency::inverse_marginal(double) const {
  throw Error("cannot invert marginal of constant latency " + describe());
}

std::string ConstantLatency::describe() const { return fmt(b_); }

// ---- AffineLatency ---------------------------------------------------------

AffineLatency::AffineLatency(double slope, double intercept)
    : a_(slope), b_(intercept) {
  SR_REQUIRE(slope >= 0.0 && std::isfinite(slope),
             "affine latency needs slope >= 0, got " + fmt(slope));
  SR_REQUIRE(intercept >= 0.0 && std::isfinite(intercept),
             "affine latency needs intercept >= 0, got " + fmt(intercept));
}

double AffineLatency::inverse(double target) const {
  SR_REQUIRE(a_ > 0.0, "cannot invert constant (zero-slope) latency");
  return formula::affine::inverse(a_, b_, target);
}

double AffineLatency::inverse_marginal(double target) const {
  SR_REQUIRE(a_ > 0.0, "cannot invert marginal of constant latency");
  return formula::affine::inverse_marginal(a_, b_, target);
}

std::string AffineLatency::describe() const {
  if (a_ == 0.0) return fmt(b_);
  if (b_ == 0.0) return fmt(a_) + "x";
  return fmt(a_) + "x + " + fmt(b_);
}

// ---- PolynomialLatency -----------------------------------------------------

PolynomialLatency::PolynomialLatency(std::vector<double> coeffs)
    : coeffs_(std::move(coeffs)) {
  SR_REQUIRE(!coeffs_.empty(), "polynomial latency needs >= 1 coefficient");
  bool any_positive = false;
  for (double c : coeffs_) {
    SR_REQUIRE(c >= 0.0 && std::isfinite(c),
               "polynomial latency needs coefficients >= 0, got " + fmt(c));
    any_positive = any_positive || c > 0.0;
  }
  SR_REQUIRE(any_positive, "polynomial latency must not be identically zero");
}

bool PolynomialLatency::is_constant() const {
  for (std::size_t k = 1; k < coeffs_.size(); ++k) {
    if (coeffs_[k] > 0.0) return false;
  }
  return true;
}

std::string PolynomialLatency::describe() const {
  std::ostringstream os;
  bool first = true;
  for (std::size_t k = 0; k < coeffs_.size(); ++k) {
    if (coeffs_[k] == 0.0) continue;
    if (!first) os << " + ";
    first = false;
    os << coeffs_[k];
    if (k == 1) os << "x";
    if (k >= 2) os << "x^" << k;
  }
  if (first) os << "0";
  return os.str();
}

// ---- BprLatency ------------------------------------------------------------

BprLatency::BprLatency(double free_flow_time, double capacity, double b,
                       double power)
    : t0_(free_flow_time),
      cap_(capacity),
      b_(b),
      p_(power),
      ip_(formula::bpr::int_power(power)) {
  SR_REQUIRE(t0_ > 0.0, "BPR latency needs free-flow time > 0");
  SR_REQUIRE(cap_ > 0.0, "BPR latency needs capacity > 0");
  SR_REQUIRE(b_ > 0.0, "BPR latency needs B > 0");
  SR_REQUIRE(p_ >= 1.0, "BPR latency needs power >= 1");
}

std::string BprLatency::describe() const {
  std::ostringstream os;
  os << t0_ << "(1 + " << b_ << "(x/" << cap_ << ")^" << p_ << ")";
  return os.str();
}

// ---- Mm1Latency ------------------------------------------------------------

Mm1Latency::Mm1Latency(double mu) : mu_(mu) {
  SR_REQUIRE(mu > 0.0 && std::isfinite(mu),
             "M/M/1 latency needs service rate mu > 0, got " + fmt(mu));
}

std::string Mm1Latency::describe() const {
  return "1/(" + fmt(mu_) + " - x)";
}

// ---- ShiftedLatency --------------------------------------------------------

ShiftedLatency::ShiftedLatency(LatencyPtr base, double shift)
    : base_(std::move(base)), s_(shift) {
  SR_REQUIRE(base_ != nullptr, "shifted latency needs a base function");
  SR_REQUIRE(shift >= 0.0 && std::isfinite(shift),
             "shifted latency needs shift >= 0, got " + fmt(shift));
  SR_REQUIRE(shift < base_->capacity(),
             "shift " + fmt(shift) + " exceeds capacity of " +
                 base_->describe());
}

double ShiftedLatency::inverse(double target) const {
  return std::fmax(0.0, base_->inverse(target) - s_);
}

double ShiftedLatency::capacity() const {
  const double c = base_->capacity();
  return std::isfinite(c) ? c - s_ : c;
}

std::string ShiftedLatency::describe() const {
  return "[" + base_->describe() + "](x + " + fmt(s_) + ")";
}

// ---- OffsetLatency ---------------------------------------------------------

OffsetLatency::OffsetLatency(LatencyPtr base, double offset)
    : base_(std::move(base)), c_(offset) {
  SR_REQUIRE(base_ != nullptr, "offset latency needs a base function");
  SR_REQUIRE(offset >= 0.0 && std::isfinite(offset),
             "offset latency needs offset >= 0, got " + fmt(offset));
}

std::string OffsetLatency::describe() const {
  return "[" + base_->describe() + "] + " + fmt(c_);
}

// ---- ScaledLatency ---------------------------------------------------------

ScaledLatency::ScaledLatency(LatencyPtr base, double factor)
    : base_(std::move(base)), c_(factor) {
  SR_REQUIRE(base_ != nullptr, "scaled latency needs a base function");
  SR_REQUIRE(factor > 0.0 && std::isfinite(factor),
             "scaled latency needs factor > 0, got " + fmt(factor));
}

std::string ScaledLatency::describe() const {
  return fmt(c_) + "·[" + base_->describe() + "]";
}

// ---- Wrapper peeling -------------------------------------------------------

PeeledWrapper peel_wrapper(const LatencyFunction& f) {
  if (const auto* w = dynamic_cast<const ShiftedLatency*>(&f)) {
    return {w->base().get(), w->shift()};
  }
  if (const auto* w = dynamic_cast<const ScaledLatency*>(&f)) {
    return {w->base().get(), w->factor()};
  }
  if (const auto* w = dynamic_cast<const OffsetLatency*>(&f)) {
    return {w->base().get(), w->offset()};
  }
  return {};
}

// ---- Factories -------------------------------------------------------------

LatencyPtr make_constant(double b) {
  return std::make_shared<ConstantLatency>(b);
}

LatencyPtr make_affine(double slope, double intercept) {
  return std::make_shared<AffineLatency>(slope, intercept);
}

LatencyPtr make_linear(double slope) { return make_affine(slope, 0.0); }

LatencyPtr make_polynomial(std::vector<double> coeffs) {
  return std::make_shared<PolynomialLatency>(std::move(coeffs));
}

LatencyPtr make_monomial(double coeff, int degree) {
  SR_REQUIRE(degree >= 0, "monomial latency needs degree >= 0");
  std::vector<double> coeffs(static_cast<std::size_t>(degree) + 1, 0.0);
  coeffs.back() = coeff;
  return make_polynomial(std::move(coeffs));
}

LatencyPtr make_bpr(double free_flow_time, double capacity, double b,
                    double power) {
  return std::make_shared<BprLatency>(free_flow_time, capacity, b, power);
}

LatencyPtr make_mm1(double mu) { return std::make_shared<Mm1Latency>(mu); }

LatencyPtr make_shifted(LatencyPtr base, double shift) {
  if (shift == 0.0) return base;
  // Collapse nested shifts so long preload chains stay O(1) deep.
  if (const auto* sh = dynamic_cast<const ShiftedLatency*>(base.get())) {
    return std::make_shared<ShiftedLatency>(sh->base(), sh->shift() + shift);
  }
  return std::make_shared<ShiftedLatency>(std::move(base), shift);
}

LatencyPtr make_scaled(LatencyPtr base, double factor) {
  return std::make_shared<ScaledLatency>(std::move(base), factor);
}

LatencyPtr make_offset(LatencyPtr base, double offset) {
  if (offset == 0.0) return base;
  // Collapse nested offsets (toll on top of toll).
  if (const auto* off = dynamic_cast<const OffsetLatency*>(base.get())) {
    return std::make_shared<OffsetLatency>(off->base(),
                                           off->offset() + offset);
  }
  return std::make_shared<OffsetLatency>(std::move(base), offset);
}

LatencyPtr make_latency(LatencyKind kind, const std::vector<double>& params) {
  switch (kind) {
    case LatencyKind::kConstant:
      SR_REQUIRE(params.size() == 1, "constant latency takes 1 parameter");
      return make_constant(params[0]);
    case LatencyKind::kAffine:
      SR_REQUIRE(params.size() == 2, "affine latency takes 2 parameters");
      return make_affine(params[0], params[1]);
    case LatencyKind::kPolynomial:
      return make_polynomial(params);
    case LatencyKind::kBpr:
      SR_REQUIRE(params.size() == 4, "BPR latency takes 4 parameters");
      return make_bpr(params[0], params[1], params[2], params[3]);
    case LatencyKind::kMm1:
      SR_REQUIRE(params.size() == 1, "M/M/1 latency takes 1 parameter");
      return make_mm1(params[0]);
    case LatencyKind::kShifted:
    case LatencyKind::kScaled:
    case LatencyKind::kOffset:
      break;
  }
  throw Error("make_latency: kind " + to_string(kind) +
              " is not serializable");
}

}  // namespace stackroute
