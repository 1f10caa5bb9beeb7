// Flat, cache-friendly compilation of latency functions — the evaluation
// kernel underneath the solver hot loops.
//
// compile() walks each LatencyPtr once, peeling shifted/scaled/offset
// wrappers into a short per-entry op chain and packing the primitive family
// underneath into struct-of-arrays slots (family tag + coefficient slots,
// polynomial coefficients in a shared pool). The kernels then evaluate
// without virtual dispatch or shared_ptr chasing. Each family case calls the
// same inline formula (formulas.h) as the family class's virtual method, and
// each wrapper op mirrors the one-line wrapper method in families.h, so the
// two representations are *bit-identical* and solvers can switch between
// them freely without perturbing equilibria — the sweep determinism
// contract ("bitwise identical tables") relies on this.
//
// Unknown LatencyFunction subclasses (or wrapper chains compile() cannot
// see through) degrade to an opaque entry that forwards to the original
// virtual object, so compilation is total; inverses without a closed-form
// chain (constants, polynomials, marginal-inverses under a shift) fall back
// to the source object's own implementation the same way.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "stackroute/latency/formulas.h"
#include "stackroute/latency/latency.h"

namespace stackroute {

class LatencyTable {
 public:
  LatencyTable() = default;

  /// Compiles the given latencies, reusing this table's storage. Throws on
  /// null entries.
  void compile(std::span<const LatencyPtr> lats);

  /// One-shot convenience: a fresh table compiled from `lats`.
  [[nodiscard]] static LatencyTable compiled(std::span<const LatencyPtr> lats);

  /// compile(), skipped entirely when `lats` is pointer-identical to the
  /// currently compiled set (same size, same objects elementwise). Latency
  /// objects are immutable, so identical pointers imply an identical
  /// compilation; and because the table keeps shared ownership of the last
  /// compiled set, a *new* object can never coincidentally reuse a still-
  /// compared address. Returns true when a recompilation actually ran —
  /// chained sweeps observe this through revision(). This is the fast path
  /// that lets adjacent grid points differing only in scalar knobs (demand,
  /// preload-free re-solves) reuse the compiled kernel.
  bool ensure_compiled(std::span<const LatencyPtr> lats);

  /// True when `lats` is pointer-identical to the currently compiled set —
  /// the test ensure_compiled short-circuits on, exposed so callers (the
  /// engine's table cache) can probe without risking a compile.
  [[nodiscard]] bool compiled_for(std::span<const LatencyPtr> lats) const;

  /// Takes over `other`'s compiled arrays as the compilation of `lats`,
  /// skipping the compile walk. Sound only when `lats` is *value-equal* to
  /// the set `other` was compiled from — same kinds, parameters and wrapper
  /// chains elementwise — which the caller must guarantee (the engine
  /// checks a content hash plus full structural equality). The sources are
  /// re-pointed at `lats`, so opaque entries and inverse fallbacks dispatch
  /// to the new (equal-valued) objects and subsequent ensure_compiled(lats)
  /// calls take the fast path. Counts as a recompilation for revision().
  void adopt(const LatencyTable& other, std::span<const LatencyPtr> lats);

  /// Monotonic count of actual recompilations of this table — the
  /// instance-revision tag a SolverWorkspace carries across chained solves.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// Heap bytes held by this compilation (entry/wrapper/coefficient
  /// arrays, source pointers, affine fast-path arrays), by *capacity* —
  /// what the allocator actually holds, not what is in use. This is the
  /// figure the engine's byte-budgeted table cache charges per entry.
  [[nodiscard]] std::size_t footprint_bytes() const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  // ---- Scalar kernels (indexed by compile order) -------------------------

  /// ℓ_i(x).
  [[nodiscard]] double value(std::size_t i, double x) const {
    if (all_affine_) return formula::affine::value(aff_a_[i], aff_b_[i], x);
    const Entry& en = entries_[i];
    if (en.fam == Fam::kOpaque) return src_[i]->value(x);
    return en.wrap_count == 0 ? prim_value(en, x) : wrapped_value(en, 0, x);
  }

  /// ℓ_i'(x).
  [[nodiscard]] double derivative(std::size_t i, double x) const {
    if (all_affine_) return formula::affine::derivative(aff_a_[i]);
    const Entry& en = entries_[i];
    if (en.fam == Fam::kOpaque) return src_[i]->derivative(x);
    return en.wrap_count == 0 ? prim_derivative(en, x)
                              : wrapped_derivative(en, 0, x);
  }

  /// ∫₀ˣ ℓ_i.
  [[nodiscard]] double integral(std::size_t i, double x) const {
    if (all_affine_) return formula::affine::integral(aff_a_[i], aff_b_[i], x);
    const Entry& en = entries_[i];
    if (en.fam == Fam::kOpaque) return src_[i]->integral(x);
    return en.wrap_count == 0 ? prim_integral(en, x)
                              : wrapped_integral(en, 0, x);
  }

  /// ℓ_i(x) + x·ℓ_i'(x) — same combination as LatencyFunction::marginal.
  [[nodiscard]] double marginal(std::size_t i, double x) const {
    if (all_affine_) {
      const double a = aff_a_[i];
      return formula::affine::value(a, aff_b_[i], x) +
             x * formula::affine::derivative(a);
    }
    return value(i, x) + x * derivative(i, x);
  }

  /// Clamped inverse of ℓ_i; closed-form when the whole wrapper chain has
  /// one, otherwise the source object's own (possibly numeric) inverse.
  [[nodiscard]] double inverse(std::size_t i, double target) const {
    const Entry& en = entries_[i];
    if (!(en.flags & kFlagClosedInverse)) return src_[i]->inverse(target);
    return wrapped_inverse(en, 0, target);
  }

  /// Clamped inverse of the marginal cost; closed-form only when no shift
  /// wrapper intervenes (a shifted marginal is not the marginal shifted).
  [[nodiscard]] double inverse_marginal(std::size_t i, double target) const {
    const Entry& en = entries_[i];
    if (!(en.flags & kFlagClosedInverseMarginal)) {
      return src_[i]->inverse_marginal(target);
    }
    return wrapped_inverse_marginal(en, 0, target);
  }

  [[nodiscard]] bool is_constant(std::size_t i) const {
    return (entries_[i].flags & kFlagConstant) != 0;
  }

  /// The latency this entry was compiled from.
  [[nodiscard]] const LatencyPtr& source(std::size_t i) const {
    return src_[i];
  }

 private:
  enum class Fam : std::uint8_t { kConstant, kAffine, kPoly, kBpr, kMm1, kOpaque };
  enum class Op : std::uint8_t { kShift, kScale, kOffset };
  enum Flag : std::uint8_t {
    kFlagConstant = 1,
    kFlagClosedInverse = 2,
    kFlagClosedInverseMarginal = 4,
  };

  struct Wrap {
    Op op;
    double p;
  };

  struct Entry {
    Fam fam = Fam::kOpaque;
    std::uint8_t flags = 0;
    std::uint16_t wrap_count = 0;
    std::uint32_t wrap_begin = 0;
    std::uint32_t coeff_begin = 0;
    std::uint32_t coeff_count = 0;
    std::int32_t aux = 0;  // BPR: formula::bpr::int_power(p)
    // Family slots: Constant {b,-,-,-}, Affine {a,b,-,-},
    // BPR {t0,cap,B,p}, MM1 {mu,-,-,-}; Poly uses the coefficient pool.
    double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  };

  void append_entry(const LatencyFunction& f);

  [[nodiscard]] std::span<const double> poly(const Entry& en) const {
    return {coeffs_.data() + en.coeff_begin, en.coeff_count};
  }

  // The family cases dispatch to formulas.h; opaque entries never reach
  // them, and the inverse cases are gated by the closed-inverse flags.

  [[nodiscard]] double prim_value(const Entry& en, double x) const {
    switch (en.fam) {
      case Fam::kConstant:
        return formula::constant::value(en.p0);
      case Fam::kAffine:
        return formula::affine::value(en.p0, en.p1, x);
      case Fam::kPoly:
        return formula::polynomial::value(poly(en), x);
      case Fam::kBpr:
        return formula::bpr::value(en.p0, en.p1, en.p2, en.p3, en.aux, x);
      case Fam::kMm1:
        return formula::mm1::value(en.p0, x);
      case Fam::kOpaque:
        break;
    }
    return 0.0;
  }

  [[nodiscard]] double prim_derivative(const Entry& en, double x) const {
    switch (en.fam) {
      case Fam::kConstant:
        return formula::constant::derivative();
      case Fam::kAffine:
        return formula::affine::derivative(en.p0);
      case Fam::kPoly:
        return formula::polynomial::derivative(poly(en), x);
      case Fam::kBpr:
        return formula::bpr::derivative(en.p0, en.p1, en.p2, en.p3, en.aux, x);
      case Fam::kMm1:
        return formula::mm1::derivative(en.p0, x);
      case Fam::kOpaque:
        break;
    }
    return 0.0;
  }

  [[nodiscard]] double prim_integral(const Entry& en, double x) const {
    switch (en.fam) {
      case Fam::kConstant:
        return formula::constant::integral(en.p0, x);
      case Fam::kAffine:
        return formula::affine::integral(en.p0, en.p1, x);
      case Fam::kPoly:
        return formula::polynomial::integral(poly(en), x);
      case Fam::kBpr:
        return formula::bpr::integral(en.p0, en.p1, en.p2, en.p3, en.aux, x);
      case Fam::kMm1:
        return formula::mm1::integral(en.p0, x);
      case Fam::kOpaque:
        break;
    }
    return 0.0;
  }

  [[nodiscard]] double prim_inverse(const Entry& en, double target) const {
    switch (en.fam) {
      case Fam::kAffine:
        return formula::affine::inverse(en.p0, en.p1, target);
      case Fam::kBpr:
        return formula::bpr::inverse(en.p0, en.p1, en.p2, en.p3, target);
      case Fam::kMm1:
        return formula::mm1::inverse(en.p0, target);
      default:
        break;
    }
    return 0.0;
  }

  [[nodiscard]] double prim_inverse_marginal(const Entry& en,
                                             double target) const {
    switch (en.fam) {
      case Fam::kAffine:
        return formula::affine::inverse_marginal(en.p0, en.p1, target);
      case Fam::kBpr:
        return formula::bpr::inverse_marginal(en.p0, en.p1, en.p2, en.p3,
                                              target);
      case Fam::kMm1:
        return formula::mm1::inverse_marginal(en.p0, target);
      default:
        break;
    }
    return 0.0;
  }

  [[nodiscard]] double wrapped_value(const Entry& en, std::uint32_t w,
                                     double x) const {
    if (w == en.wrap_count) return prim_value(en, x);
    const Wrap& wr = wraps_[en.wrap_begin + w];
    if (wr.op == Op::kShift) return wrapped_value(en, w + 1, x + wr.p);
    if (wr.op == Op::kScale) return wr.p * wrapped_value(en, w + 1, x);
    return wrapped_value(en, w + 1, x) + wr.p;
  }

  [[nodiscard]] double wrapped_derivative(const Entry& en, std::uint32_t w,
                                          double x) const {
    if (w == en.wrap_count) return prim_derivative(en, x);
    const Wrap& wr = wraps_[en.wrap_begin + w];
    if (wr.op == Op::kShift) return wrapped_derivative(en, w + 1, x + wr.p);
    if (wr.op == Op::kScale) return wr.p * wrapped_derivative(en, w + 1, x);
    return wrapped_derivative(en, w + 1, x);
  }

  [[nodiscard]] double wrapped_integral(const Entry& en, std::uint32_t w,
                                        double x) const {
    if (w == en.wrap_count) return prim_integral(en, x);
    const Wrap& wr = wraps_[en.wrap_begin + w];
    if (wr.op == Op::kShift) {
      return wrapped_integral(en, w + 1, x + wr.p) -
             wrapped_integral(en, w + 1, wr.p);
    }
    if (wr.op == Op::kScale) return wr.p * wrapped_integral(en, w + 1, x);
    return wrapped_integral(en, w + 1, x) + wr.p * x;
  }

  [[nodiscard]] double wrapped_inverse(const Entry& en, std::uint32_t w,
                                       double target) const {
    if (w == en.wrap_count) return prim_inverse(en, target);
    const Wrap& wr = wraps_[en.wrap_begin + w];
    if (wr.op == Op::kShift) {
      return std::fmax(0.0, wrapped_inverse(en, w + 1, target) - wr.p);
    }
    if (wr.op == Op::kScale) return wrapped_inverse(en, w + 1, target / wr.p);
    return wrapped_inverse(en, w + 1, target - wr.p);
  }

  [[nodiscard]] double wrapped_inverse_marginal(const Entry& en,
                                                std::uint32_t w,
                                                double target) const {
    if (w == en.wrap_count) return prim_inverse_marginal(en, target);
    const Wrap& wr = wraps_[en.wrap_begin + w];
    if (wr.op == Op::kScale) {
      return wrapped_inverse_marginal(en, w + 1, target / wr.p);
    }
    return wrapped_inverse_marginal(en, w + 1, target - wr.p);  // offset
  }

  std::vector<Entry> entries_;
  std::vector<Wrap> wraps_;
  std::vector<double> coeffs_;
  std::vector<LatencyPtr> src_;
  std::uint64_t revision_ = 0;
  bool all_affine_ = false;
  std::vector<double> aff_a_;  // filled only when all_affine_
  std::vector<double> aff_b_;
};

}  // namespace stackroute
