#include "stackroute/latency/table.h"

#include <algorithm>

#include "stackroute/latency/families.h"
#include "stackroute/util/error.h"

namespace stackroute {

namespace {

// Paranoia bound: wrapper chains are O(1) deep in practice (make_shifted /
// make_offset collapse direct nesting); anything deeper than this is almost
// certainly a pathological construction — treat it as opaque.
constexpr std::size_t kMaxWrapDepth = 64;

}  // namespace

bool LatencyTable::ensure_compiled(std::span<const LatencyPtr> lats) {
  if (compiled_for(lats)) return false;
  compile(lats);
  return true;
}

bool LatencyTable::compiled_for(std::span<const LatencyPtr> lats) const {
  return src_.size() == lats.size() &&
         std::equal(src_.begin(), src_.end(), lats.begin());
}

void LatencyTable::adopt(const LatencyTable& other,
                         std::span<const LatencyPtr> lats) {
  SR_REQUIRE(other.src_.size() == lats.size(),
             "LatencyTable::adopt size mismatch");
  const std::uint64_t revision = revision_ + 1;  // self-adopt keeps counting
  entries_ = other.entries_;
  wraps_ = other.wraps_;
  coeffs_ = other.coeffs_;
  all_affine_ = other.all_affine_;
  aff_a_ = other.aff_a_;
  aff_b_ = other.aff_b_;
  src_.assign(lats.begin(), lats.end());
  revision_ = revision;
}

void LatencyTable::compile(std::span<const LatencyPtr> lats) {
  ++revision_;
  entries_.clear();
  wraps_.clear();
  coeffs_.clear();
  src_.assign(lats.begin(), lats.end());
  entries_.reserve(lats.size());
  for (const LatencyPtr& lat : lats) {
    SR_REQUIRE(lat != nullptr, "LatencyTable::compile got a null latency");
    append_entry(*lat);
  }
  // Homogeneous-affine fast path: flat slope/intercept arrays.
  all_affine_ = !entries_.empty();
  for (const Entry& en : entries_) {
    if (en.fam != Fam::kAffine || en.wrap_count != 0) {
      all_affine_ = false;
      break;
    }
  }
  aff_a_.clear();
  aff_b_.clear();
  if (all_affine_) {
    aff_a_.reserve(entries_.size());
    aff_b_.reserve(entries_.size());
    for (const Entry& en : entries_) {
      aff_a_.push_back(en.p0);
      aff_b_.push_back(en.p1);
    }
  }
}

LatencyTable LatencyTable::compiled(std::span<const LatencyPtr> lats) {
  LatencyTable t;
  t.compile(lats);
  return t;
}

std::size_t LatencyTable::footprint_bytes() const {
  return sizeof(*this) + entries_.capacity() * sizeof(Entry) +
         wraps_.capacity() * sizeof(Wrap) +
         coeffs_.capacity() * sizeof(double) +
         src_.capacity() * sizeof(LatencyPtr) +
         (aff_a_.capacity() + aff_b_.capacity()) * sizeof(double);
}

void LatencyTable::append_entry(const LatencyFunction& f) {
  Entry en;
  en.wrap_begin = static_cast<std::uint32_t>(wraps_.size());

  // Peel wrappers outermost-first. An unknown subclass claiming a wrapper
  // kind is not peeled by peel_wrapper, which makes the whole entry opaque.
  const LatencyFunction* cur = &f;
  bool opaque = false;
  bool shifted = false;
  for (;;) {
    if (wraps_.size() - en.wrap_begin > kMaxWrapDepth) {
      opaque = true;
      break;
    }
    const LatencyKind k = cur->kind();
    if (k != LatencyKind::kShifted && k != LatencyKind::kScaled &&
        k != LatencyKind::kOffset) {
      break;
    }
    const PeeledWrapper w = peel_wrapper(*cur);
    if (w.base == nullptr) {
      opaque = true;
      break;
    }
    const Op op = k == LatencyKind::kShifted ? Op::kShift
                  : k == LatencyKind::kScaled ? Op::kScale
                                              : Op::kOffset;
    wraps_.push_back(Wrap{op, w.param});
    shifted = shifted || op == Op::kShift;
    cur = w.base;
  }

  // Pack the primitive underneath. kind() + params() is the documented
  // round-trip contract, so honoring it here also covers well-behaved
  // third-party subclasses.
  if (!opaque) {
    const std::vector<double> p = cur->params();
    switch (cur->kind()) {
      case LatencyKind::kConstant:
        opaque = p.size() != 1;
        if (!opaque) {
          en.fam = Fam::kConstant;
          en.p0 = p[0];
        }
        break;
      case LatencyKind::kAffine:
        opaque = p.size() != 2;
        if (!opaque) {
          en.fam = Fam::kAffine;
          en.p0 = p[0];
          en.p1 = p[1];
          if (en.p0 > 0.0) {
            en.flags |= kFlagClosedInverse | kFlagClosedInverseMarginal;
          }
        }
        break;
      case LatencyKind::kPolynomial:
        opaque = p.empty();
        if (!opaque) {
          en.fam = Fam::kPoly;
          en.coeff_begin = static_cast<std::uint32_t>(coeffs_.size());
          en.coeff_count = static_cast<std::uint32_t>(p.size());
          coeffs_.insert(coeffs_.end(), p.begin(), p.end());
        }
        break;
      case LatencyKind::kBpr:
        opaque = p.size() != 4;
        if (!opaque) {
          en.fam = Fam::kBpr;
          en.p0 = p[0];
          en.p1 = p[1];
          en.p2 = p[2];
          en.p3 = p[3];
          en.aux = formula::bpr::int_power(en.p3);
          en.flags |= kFlagClosedInverse | kFlagClosedInverseMarginal;
        }
        break;
      case LatencyKind::kMm1:
        opaque = p.size() != 1;
        if (!opaque) {
          en.fam = Fam::kMm1;
          en.p0 = p[0];
          en.flags |= kFlagClosedInverse | kFlagClosedInverseMarginal;
        }
        break;
      default:
        opaque = true;
        break;
    }
  }

  if (opaque) {
    wraps_.resize(en.wrap_begin);  // drop any partially-peeled chain
    en = Entry{};
    en.fam = Fam::kOpaque;
  } else {
    en.wrap_count =
        static_cast<std::uint16_t>(wraps_.size() - en.wrap_begin);
    // The marginal of a shifted latency is not the shifted marginal
    // (ShiftedLatency::inverse_marginal uses the numeric default).
    if (shifted) en.flags &= static_cast<std::uint8_t>(~kFlagClosedInverseMarginal);
  }
  if (f.is_constant()) en.flags |= kFlagConstant;
  entries_.push_back(en);
}

}  // namespace stackroute
