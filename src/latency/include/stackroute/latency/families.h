// Concrete latency families and their factories.
//
// Every family validates its parameters at construction (throwing
// stackroute::Error), provides closed-form integrals, and overrides the
// inverses with closed forms wherever one exists; the formulas themselves
// live in formulas.h, shared with LatencyTable. Parameter encodings for
// params()/make_latency():
//   Constant    {b}
//   Affine      {a, b}                 ℓ(x) = a·x + b
//   Polynomial  {c0, c1, ..., cd}      ℓ(x) = Σ c_k x^k
//   BPR         {t0, cap, B, p}        ℓ(x) = t0·(1 + B·(x/cap)^p)
//   MM1         {mu}                   ℓ(x) = 1/(mu − x)
// Shifted/Scaled wrap another latency and are not serializable.
#pragma once

#include "stackroute/latency/formulas.h"
#include "stackroute/latency/latency.h"

namespace stackroute {

/// ℓ(x) = b. Constant latencies are the Remark 2.5 extension: not strictly
/// increasing, so inverse()/inverse_marginal() throw and the equilibrium
/// solvers special-case them (they absorb residual flow at level b).
class ConstantLatency final : public LatencyFunction {
 public:
  explicit ConstantLatency(double b);

  double value(double) const override { return formula::constant::value(b_); }
  double derivative(double) const override {
    return formula::constant::derivative();
  }
  double integral(double x) const override {
    return formula::constant::integral(b_, x);
  }
  double inverse(double target) const override;
  double inverse_marginal(double target) const override;
  bool is_constant() const override { return true; }
  LatencyKind kind() const override { return LatencyKind::kConstant; }
  std::vector<double> params() const override { return {b_}; }
  std::string describe() const override;

 private:
  double b_;
};

/// ℓ(x) = a·x + b with a >= 0, b >= 0. a == 0 degenerates to a constant.
class AffineLatency final : public LatencyFunction {
 public:
  AffineLatency(double slope, double intercept);

  double value(double x) const override {
    return formula::affine::value(a_, b_, x);
  }
  double derivative(double) const override {
    return formula::affine::derivative(a_);
  }
  double integral(double x) const override {
    return formula::affine::integral(a_, b_, x);
  }
  double inverse(double target) const override;
  double inverse_marginal(double target) const override;
  bool is_constant() const override { return a_ == 0.0; }
  LatencyKind kind() const override { return LatencyKind::kAffine; }
  std::vector<double> params() const override { return {a_, b_}; }
  std::string describe() const override;

  [[nodiscard]] double slope() const { return a_; }
  [[nodiscard]] double intercept() const { return b_; }

 private:
  double a_;
  double b_;
};

/// ℓ(x) = Σ_k c_k x^k with all c_k >= 0 and at least one coefficient > 0.
class PolynomialLatency final : public LatencyFunction {
 public:
  explicit PolynomialLatency(std::vector<double> coeffs);

  double value(double x) const override {
    return formula::polynomial::value(coeffs_, x);
  }
  double derivative(double x) const override {
    return formula::polynomial::derivative(coeffs_, x);
  }
  double integral(double x) const override {
    return formula::polynomial::integral(coeffs_, x);
  }
  bool is_constant() const override;
  LatencyKind kind() const override { return LatencyKind::kPolynomial; }
  std::vector<double> params() const override { return coeffs_; }
  std::string describe() const override;

 private:
  std::vector<double> coeffs_;  // coeffs_[k] multiplies x^k
};

/// Bureau of Public Roads congestion curve ℓ(x) = t0·(1 + B·(x/cap)^p),
/// the standard road-traffic latency (defaults B = 0.15, p = 4).
class BprLatency final : public LatencyFunction {
 public:
  BprLatency(double free_flow_time, double capacity, double b = 0.15,
             double power = 4.0);

  double value(double x) const override {
    return formula::bpr::value(t0_, cap_, b_, p_, ip_, x);
  }
  double derivative(double x) const override {
    return formula::bpr::derivative(t0_, cap_, b_, p_, ip_, x);
  }
  double integral(double x) const override {
    return formula::bpr::integral(t0_, cap_, b_, p_, ip_, x);
  }
  double inverse(double target) const override {
    return formula::bpr::inverse(t0_, cap_, b_, p_, target);
  }
  double inverse_marginal(double target) const override {
    return formula::bpr::inverse_marginal(t0_, cap_, b_, p_, target);
  }
  LatencyKind kind() const override { return LatencyKind::kBpr; }
  std::vector<double> params() const override { return {t0_, cap_, b_, p_}; }
  std::string describe() const override;

 private:
  double t0_, cap_, b_, p_;
  int ip_;  // formula::bpr::int_power(p_)
};

/// M/M/1 queueing delay ℓ(x) = 1/(mu − x) on [0, mu). To keep intermediate
/// solver iterates finite (a bisection bracket end or a Newton flow shift
/// can overshoot mu) the function continues C¹-linearly beyond
/// the break point formula::mm1::x_break(mu), a relative 1e-7 below mu;
/// every feasible equilibrium with demand < mu lies far below it.
class Mm1Latency final : public LatencyFunction {
 public:
  explicit Mm1Latency(double mu);

  double value(double x) const override { return formula::mm1::value(mu_, x); }
  double derivative(double x) const override {
    return formula::mm1::derivative(mu_, x);
  }
  double integral(double x) const override {
    return formula::mm1::integral(mu_, x);
  }
  double inverse(double target) const override {
    return formula::mm1::inverse(mu_, target);
  }
  double inverse_marginal(double target) const override {
    return formula::mm1::inverse_marginal(mu_, target);
  }
  double capacity() const override { return mu_; }
  LatencyKind kind() const override { return LatencyKind::kMm1; }
  std::vector<double> params() const override { return {mu_}; }
  std::string describe() const override;

  [[nodiscard]] double mu() const { return mu_; }

 private:
  double mu_;
};

/// ℓ̃(x) = base(x + shift): the a-posteriori latency a follower sees on a
/// link carrying Stackelberg preload `shift` (§4 of the paper).
class ShiftedLatency final : public LatencyFunction {
 public:
  ShiftedLatency(LatencyPtr base, double shift);

  double value(double x) const override { return base_->value(x + s_); }
  double derivative(double x) const override {
    return base_->derivative(x + s_);
  }
  double integral(double x) const override {
    return base_->integral(x + s_) - base_->integral(s_);
  }
  double inverse(double target) const override;
  // inverse_marginal falls back to the numeric default: the marginal of a
  // shifted latency is not the shifted marginal.
  bool is_constant() const override { return base_->is_constant(); }
  double capacity() const override;
  LatencyKind kind() const override { return LatencyKind::kShifted; }
  std::vector<double> params() const override { return {s_}; }
  std::string describe() const override;

  [[nodiscard]] const LatencyPtr& base() const { return base_; }
  [[nodiscard]] double shift() const { return s_; }

 private:
  LatencyPtr base_;
  double s_;
};

/// ℓ̃(x) = base(x) + offset, offset >= 0 — a flow-independent surcharge.
/// This is how tolls enter the game: a tolled edge behaves like its
/// latency plus a constant (pricing/tolls.h), keeping all monotonicity
/// and convexity properties intact.
class OffsetLatency final : public LatencyFunction {
 public:
  OffsetLatency(LatencyPtr base, double offset);

  double value(double x) const override { return base_->value(x) + c_; }
  double derivative(double x) const override { return base_->derivative(x); }
  double integral(double x) const override {
    return base_->integral(x) + c_ * x;
  }
  double inverse(double target) const override {
    return base_->inverse(target - c_);
  }
  double inverse_marginal(double target) const override {
    return base_->inverse_marginal(target - c_);
  }
  bool is_constant() const override { return base_->is_constant(); }
  double capacity() const override { return base_->capacity(); }
  LatencyKind kind() const override { return LatencyKind::kOffset; }
  std::vector<double> params() const override { return {c_}; }
  std::string describe() const override;

  [[nodiscard]] const LatencyPtr& base() const { return base_; }
  [[nodiscard]] double offset() const { return c_; }

 private:
  LatencyPtr base_;
  double c_;
};

/// ℓ̃(x) = factor · base(x), factor > 0.
class ScaledLatency final : public LatencyFunction {
 public:
  ScaledLatency(LatencyPtr base, double factor);

  double value(double x) const override { return c_ * base_->value(x); }
  double derivative(double x) const override {
    return c_ * base_->derivative(x);
  }
  double integral(double x) const override { return c_ * base_->integral(x); }
  double inverse(double target) const override {
    return base_->inverse(target / c_);
  }
  double inverse_marginal(double target) const override {
    return base_->inverse_marginal(target / c_);
  }
  bool is_constant() const override { return base_->is_constant(); }
  double capacity() const override { return base_->capacity(); }
  LatencyKind kind() const override { return LatencyKind::kScaled; }
  std::vector<double> params() const override { return {c_}; }
  std::string describe() const override;

  [[nodiscard]] const LatencyPtr& base() const { return base_; }
  [[nodiscard]] double factor() const { return c_; }

 private:
  LatencyPtr base_;
  double c_;
};

/// One level of a shifted/scaled/offset wrapper: the wrapped latency and
/// the wrapper's own parameter (shift, factor or offset; kind() says which).
struct PeeledWrapper {
  const LatencyFunction* base = nullptr;
  double param = 0.0;
};

/// Peels one wrapper level; `base` is null when `f` is none of the three
/// wrapper classes. It matches the concrete classes, not kind(), so an
/// unknown subclass claiming a wrapper kind is never dereferenced as one.
PeeledWrapper peel_wrapper(const LatencyFunction& f);

// ---- Factories ----------------------------------------------------------

LatencyPtr make_constant(double b);
LatencyPtr make_affine(double slope, double intercept);
/// ℓ(x) = slope·x (affine with zero intercept).
LatencyPtr make_linear(double slope);
LatencyPtr make_polynomial(std::vector<double> coeffs);
/// ℓ(x) = coeff·x^degree.
LatencyPtr make_monomial(double coeff, int degree);
LatencyPtr make_bpr(double free_flow_time, double capacity, double b = 0.15,
                    double power = 4.0);
LatencyPtr make_mm1(double mu);
LatencyPtr make_shifted(LatencyPtr base, double shift);
LatencyPtr make_scaled(LatencyPtr base, double factor);
LatencyPtr make_offset(LatencyPtr base, double offset);

/// Deserialization entry point; supports the four serializable kinds.
LatencyPtr make_latency(LatencyKind kind, const std::vector<double>& params);

}  // namespace stackroute
