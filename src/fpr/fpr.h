#pragma once
// Soft-float emulation of IEEE-754 binary64, mirroring FALCON's FPEMU.
//
// FALCON mandates a specific floating-point behaviour (round-to-nearest-
// even binary64 with subnormals flushed to zero) and ships an integer-only
// emulation for targets without an FPU — the ARM Cortex-M4 of the paper's
// experiment runs exactly that code. The multiplication splits each 53-bit
// mantissa into a low 25-bit and a high 28-bit half and performs schoolbook
// multiplication with intermediate additions; those intermediates are the
// paper's attack targets, so this module both computes them and (optionally)
// leaks them through fd::fpr::leak().
//
// The bit layout is standard binary64, so conversions to/from native
// double are bit casts, and every arithmetic op here is testable against
// the host FPU.

#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>

#include "fpr/leakage.h"

// The native fast path below relies on the host doing binary64 with no
// excess precision (no x87 evaluation) and on no FMA contraction, which
// fd_fpr's PUBLIC -ffp-contract=off gives every consumer.
static_assert(std::numeric_limits<double>::is_iec559, "fpr: host double must be IEEE-754 binary64");
static_assert(FLT_EVAL_METHOD == 0, "fpr: host must evaluate double arithmetic in double");

namespace fd::fpr {

class Fpr {
 public:
  constexpr Fpr() = default;

  [[nodiscard]] static constexpr Fpr from_bits(std::uint64_t bits) { return Fpr(bits); }
  [[nodiscard]] static constexpr Fpr from_double(double d) {
    return Fpr(std::bit_cast<std::uint64_t>(d));
  }

  [[nodiscard]] constexpr std::uint64_t bits() const { return v_; }
  [[nodiscard]] constexpr double to_double() const { return std::bit_cast<double>(v_); }

  [[nodiscard]] constexpr bool sign() const { return (v_ >> 63) != 0; }
  [[nodiscard]] constexpr unsigned biased_exponent() const {
    return static_cast<unsigned>((v_ >> 52) & 0x7FF);
  }
  [[nodiscard]] constexpr std::uint64_t mantissa_field() const {
    return v_ & 0x000FFFFFFFFFFFFFULL;
  }
  // Full 53-bit significand with the hidden bit set (normal values only).
  [[nodiscard]] constexpr std::uint64_t significand() const {
    return mantissa_field() | 0x0010000000000000ULL;
  }
  [[nodiscard]] constexpr bool is_zero() const { return (v_ << 1) == 0; }

  friend constexpr bool operator==(Fpr a, Fpr b) { return a.v_ == b.v_; }

 private:
  explicit constexpr Fpr(std::uint64_t bits) : v_(bits) {}
  std::uint64_t v_ = 0;
};

// Every intermediate of the reference fpr_mul mantissa pipeline, in
// execution order. This is the single source of truth shared by the
// arithmetic (below) and by the attack's hypothesis models: both sides
// compute byte-identical values, just like device and attacker share the
// instruction stream on real hardware.
struct MulMantissaSteps {
  std::uint32_t x0, x1;  // secret operand: low 25 / high 28 bits
  std::uint32_t y0, y1;  // known operand:  low 25 / high 28 bits
  std::uint64_t prod_ll;  // x0*y0
  std::uint64_t prod_lh;  // x0*y1
  std::uint64_t prod_hl;  // x1*y0
  std::uint64_t prod_hh;  // x1*y1
  std::uint32_t z1a;      // (prod_ll>>25) + (prod_lh & mask25): prune target (low)
  std::uint32_t z1b;      // z1a + (prod_hl & mask25)
  std::uint32_t z2;       // (prod_lh>>25) + (prod_hl>>25)
  std::uint64_t zu;       // prod_hh + z2 + (z1b>>25): prune target (high)
  std::uint32_t z1;       // z1b & mask25
  std::uint32_t z0;       // prod_ll & mask25
};

inline constexpr std::uint32_t kMantLowMask = 0x01FFFFFF;  // 25 bits
inline constexpr unsigned kMantLowBits = 25;
inline constexpr unsigned kMantHighBits = 28;

// Pure function: runs the split/schoolbook pipeline on two 53-bit
// significands (hidden bit included).
[[nodiscard]] constexpr MulMantissaSteps mul_mantissa_steps(std::uint64_t xm, std::uint64_t ym) {
  MulMantissaSteps s{};
  s.x0 = static_cast<std::uint32_t>(xm) & kMantLowMask;
  s.x1 = static_cast<std::uint32_t>(xm >> kMantLowBits);
  s.y0 = static_cast<std::uint32_t>(ym) & kMantLowMask;
  s.y1 = static_cast<std::uint32_t>(ym >> kMantLowBits);
  s.prod_ll = static_cast<std::uint64_t>(s.x0) * s.y0;
  s.prod_lh = static_cast<std::uint64_t>(s.x0) * s.y1;
  s.prod_hl = static_cast<std::uint64_t>(s.x1) * s.y0;
  s.prod_hh = static_cast<std::uint64_t>(s.x1) * s.y1;
  s.z0 = static_cast<std::uint32_t>(s.prod_ll) & kMantLowMask;
  s.z1a = static_cast<std::uint32_t>(s.prod_ll >> kMantLowBits) +
          (static_cast<std::uint32_t>(s.prod_lh) & kMantLowMask);
  s.z1b = s.z1a + (static_cast<std::uint32_t>(s.prod_hl) & kMantLowMask);
  s.z2 = static_cast<std::uint32_t>(s.prod_lh >> kMantLowBits) +
         static_cast<std::uint32_t>(s.prod_hl >> kMantLowBits);
  s.zu = s.prod_hh + s.z2 + (s.z1b >> kMantLowBits);
  s.z1 = s.z1b & kMantLowMask;
  return s;
}

// Arithmetic (round-to-nearest-even; subnormal inputs/outputs flushed to
// zero; NaN/Inf behaviour unspecified, as in FALCON's FPEMU).
//
// The emulated bodies live in detail::*_emu (fpr.cpp). The public ops
// below return the host FPU's binary64 result instead whenever nobody
// can observe the difference (DESIGN.md section 19):
//  - fpr_add/fpr_sub/fpr_mul leak their intermediates, so they go native
//    only while the thread has no data route (no sink, or a windowed
//    sink outside its trigger window);
//  - the other ops never leak and always go native;
// and in both cases only when every operand is a normal number and the
// result's biased exponent is 2..2046. There FPEMU and IEEE-754 RNE
// binary64 agree bit for bit; everywhere else (zeros, subnormals,
// underflow, overflow, out-of-range integers) the emulation runs,
// except for two closed forms off the data route: a mul with a
// zero-exponent operand is FPEMU's early signed zero, and an add of a
// zero-exponent operand to a native one is the native one.
namespace detail {
[[nodiscard]] Fpr fpr_add_emu(Fpr x, Fpr y);
[[nodiscard]] Fpr fpr_mul_emu(Fpr x, Fpr y);
[[nodiscard]] Fpr fpr_div_emu(Fpr x, Fpr y);
[[nodiscard]] Fpr fpr_sqrt_emu(Fpr x);
[[nodiscard]] Fpr fpr_scaled_emu(std::int64_t i, int sc);
[[nodiscard]] std::int64_t fpr_rint_emu(Fpr x);
[[nodiscard]] std::int64_t fpr_trunc_emu(Fpr x);
[[nodiscard]] std::int64_t fpr_floor_emu(Fpr x);

inline constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;
inline constexpr unsigned kExp2p52 = 1075;  // biased exponent of 2^52
inline constexpr unsigned kExp2p63 = 1086;  // biased exponent of 2^63

// Biased exponent 1..limit-1: a nonzero normal x with |x| < 2^(limit-1023).
[[nodiscard]] constexpr bool normal_below(Fpr x, unsigned limit) {
  return x.biased_exponent() - 1U < limit - 1U;
}
// A nonzero, normal, finite operand.
[[nodiscard]] constexpr bool native_operand(Fpr x) { return normal_below(x, 2047); }
// Biased exponent 0: zero or subnormal, which FPEMU flushes to zero.
[[nodiscard]] constexpr bool zero_exponent(Fpr x) { return x.biased_exponent() == 0; }
// Biased exponent 2..2046: a result FPEMU neither flushes nor overflows,
// with one binade of margin below the smallest normal.
[[nodiscard]] constexpr bool native_result(Fpr r) { return r.biased_exponent() - 2U < 2045U; }
// |i| <= 2^53: converts to binary64 exactly.
[[nodiscard]] constexpr bool exact_int(std::int64_t i) {
  return static_cast<std::uint64_t>(i) + (std::uint64_t{1} << 53) <= (std::uint64_t{1} << 54);
}
// No data route: leaking ops have nobody to leak to.
[[nodiscard]] inline bool unobserved() { return tl_route.data == nullptr; }
}  // namespace detail

[[nodiscard]] inline Fpr fpr_neg(Fpr x) { return Fpr::from_bits(x.bits() ^ detail::kSignBit); }

[[nodiscard]] inline Fpr fpr_add(Fpr x, Fpr y) {
  if (detail::unobserved()) {
    const bool nx = detail::native_operand(x);
    const bool ny = detail::native_operand(y);
    if (nx && ny) {
      const Fpr r = Fpr::from_double(x.to_double() + y.to_double());
      if (detail::native_result(r)) return r;
    } else if (nx && detail::zero_exponent(y)) {
      // FPEMU flushes y to 0; aligning and renormalizing x is exact.
      return x;
    } else if (ny && detail::zero_exponent(x)) {
      return y;
    }
  }
  return detail::fpr_add_emu(x, y);
}

[[nodiscard]] inline Fpr fpr_sub(Fpr x, Fpr y) { return fpr_add(x, fpr_neg(y)); }

[[nodiscard]] inline Fpr fpr_mul(Fpr x, Fpr y) {
  if (detail::unobserved()) {
    if (detail::native_operand(x) && detail::native_operand(y)) {
      const Fpr r = Fpr::from_double(x.to_double() * y.to_double());
      if (detail::native_result(r)) return r;
    } else if (detail::zero_exponent(x) || detail::zero_exponent(y)) {
      // FPEMU's early exit: the sign of the product, zero magnitude.
      return Fpr::from_bits((x.bits() ^ y.bits()) & detail::kSignBit);
    }
  }
  return detail::fpr_mul_emu(x, y);
}

[[nodiscard]] inline Fpr fpr_div(Fpr x, Fpr y) {
  if (detail::native_operand(x) && detail::native_operand(y)) {
    const Fpr r = Fpr::from_double(x.to_double() / y.to_double());
    if (detail::native_result(r)) return r;
  }
  return detail::fpr_div_emu(x, y);
}

[[nodiscard]] inline Fpr fpr_sqrt(Fpr x) {
  // Negative operands keep FPEMU's sqrt(|x|) instead of a NaN.
  if (!x.sign() && detail::native_operand(x)) {
    const Fpr r = Fpr::from_double(__builtin_sqrt(x.to_double()));
    if (detail::native_result(r)) return r;
  }
  return detail::fpr_sqrt_emu(x);
}

// x * 0.5 (exponent decrement; biased exponent 0 or 1 flushes to zero).
[[nodiscard]] inline Fpr fpr_half(Fpr x) {
  if (x.biased_exponent() <= 1) return Fpr::from_bits(x.bits() & detail::kSignBit);
  return Fpr::from_bits(x.bits() - (std::uint64_t{1} << 52));
}
// x * 2 (exponent increment; zero and subnormals flush to zero).
[[nodiscard]] inline Fpr fpr_double(Fpr x) {
  if (x.biased_exponent() == 0) return Fpr::from_bits(x.bits() & detail::kSignBit);
  return Fpr::from_bits(x.bits() + (std::uint64_t{1} << 52));
}
[[nodiscard]] inline Fpr fpr_sqr(Fpr x) { return fpr_mul(x, x); }
[[nodiscard]] inline Fpr fpr_inv(Fpr x) { return fpr_div(Fpr::from_double(1.0), x); }

// Conversions.
[[nodiscard]] inline Fpr fpr_of(std::int64_t i) {
  if (detail::exact_int(i)) return Fpr::from_double(static_cast<double>(i));
  return detail::fpr_scaled_emu(i, 0);
}

// i * 2^sc, as FALCON's fpr_scaled.
[[nodiscard]] inline Fpr fpr_scaled(std::int64_t i, int sc) {
  if (detail::exact_int(i) && sc >= -1022 && sc <= 1023) {
    const double p2 = Fpr::from_bits(static_cast<std::uint64_t>(sc + 1023) << 52).to_double();
    const Fpr r = Fpr::from_double(static_cast<double>(i) * p2);
    if (detail::native_result(r)) return r;
  }
  return detail::fpr_scaled_emu(i, sc);
}

// Round to nearest even. Natively for |x| < 2^52: adding and removing
// 2^52 (with x's sign) rounds away the fraction under RNE.
[[nodiscard]] inline std::int64_t fpr_rint(Fpr x) {
  if (detail::normal_below(x, detail::kExp2p52)) {
    const double big =
        Fpr::from_bits((x.bits() & detail::kSignBit) | (std::uint64_t{detail::kExp2p52} << 52))
            .to_double();
    return static_cast<std::int64_t>((x.to_double() + big) - big);
  }
  return detail::fpr_rint_emu(x);
}

// Round toward zero (callers keep |x| < 2^63).
[[nodiscard]] inline std::int64_t fpr_trunc(Fpr x) {
  if (detail::normal_below(x, detail::kExp2p63)) return static_cast<std::int64_t>(x.to_double());
  return detail::fpr_trunc_emu(x);
}

// Round toward -inf (callers keep |x| < 2^63).
[[nodiscard]] inline std::int64_t fpr_floor(Fpr x) {
  if (detail::normal_below(x, detail::kExp2p63)) {
    const double d = x.to_double();
    const auto t = static_cast<std::int64_t>(d);
    return t - static_cast<std::int64_t>(d < static_cast<double>(t));
  }
  return detail::fpr_floor_emu(x);
}

// Comparison: x < y (total order on the values; -0 < +0).
[[nodiscard]] bool fpr_lt(Fpr x, Fpr y);

// round(2^63 * ccs * exp(-x)) for x in [0, ln 2], ccs in [0, 1).
// Used by the BerExp rejection step of SamplerZ. Taylor-16 fixed-point
// Horner evaluation (FALCON uses a degree-12 minimax variant of the same
// scheme; both are far below the sampler's statistical noise floor).
[[nodiscard]] std::uint64_t fpr_expm_p63(Fpr x, Fpr ccs);

// Operator sugar.
inline Fpr operator+(Fpr a, Fpr b) { return fpr_add(a, b); }
inline Fpr operator-(Fpr a, Fpr b) { return fpr_sub(a, b); }
inline Fpr operator*(Fpr a, Fpr b) { return fpr_mul(a, b); }
inline Fpr operator/(Fpr a, Fpr b) { return fpr_div(a, b); }
inline Fpr operator-(Fpr a) { return fpr_neg(a); }

// Common constants.
inline constexpr Fpr kZero = Fpr::from_double(0.0);
inline constexpr Fpr kOne = Fpr::from_double(1.0);
inline constexpr Fpr kTwo = Fpr::from_double(2.0);
inline constexpr Fpr kOneHalf = Fpr::from_double(0.5);
inline constexpr Fpr kLn2 = Fpr::from_double(0.69314718055994531);
inline constexpr Fpr kInvLn2 = Fpr::from_double(1.4426950408889634);
inline constexpr Fpr kInvSqrt2 = Fpr::from_double(0.70710678118654752);
inline constexpr Fpr kPtwo63 = Fpr::from_double(9223372036854775808.0);

}  // namespace fd::fpr
