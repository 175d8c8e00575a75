#pragma once
// Leakage hypothesis models.
//
// Given a guess for one component of the secret (sign, 11-bit exponent,
// 25-bit low mantissa half, 28-bit high mantissa half) and the known
// operand of a trace, each model predicts the Hamming weight of the
// corresponding soft-float intermediate. The models call the exact same
// mul_mantissa_steps() pipeline as the device, so predictions match the
// leaked values bit for bit; only the measurement noise separates them.

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/popcount.h"
#include "fpr/fpr.h"

namespace fd::attack {

// Decomposition of a known 64-bit operand as the y-side of fpr_mul.
struct KnownOperand {
  std::uint32_t y0;   // low 25 bits of the significand
  std::uint32_t y1;   // high 28 bits
  unsigned exponent;  // biased 11-bit exponent
  bool sign;

  [[nodiscard]] static KnownOperand from(fpr::Fpr v) {
    const std::uint64_t m = v.significand();
    return {static_cast<std::uint32_t>(m) & fpr::kMantLowMask,
            static_cast<std::uint32_t>(m >> fpr::kMantLowBits), v.biased_exponent(), v.sign()};
  }
};

// One known operand per trace, held as the four u32 arrays the CPA
// kernel's hypothesis columns read (HypothesisColumn::ops) and
// assembled into a KnownOperand on access. A dataset's hypothesis
// columns point straight at these arrays.
struct KnownOperands {
  std::span<const std::uint32_t> y0, y1, exponent, sign;

  [[nodiscard]] std::size_t size() const { return y0.size(); }
  [[nodiscard]] KnownOperand operator[](std::size_t t) const {
    return {y0[t], y1[t], exponent[t], sign[t] != 0};
  }

  struct Iterator {
    const KnownOperands* ops;
    std::size_t t;
    KnownOperand operator*() const { return (*ops)[t]; }
    Iterator& operator++() {
      ++t;
      return *this;
    }
    bool operator==(const Iterator& o) const { return t == o.t; }
  };
  [[nodiscard]] Iterator begin() const { return {this, 0}; }
  [[nodiscard]] Iterator end() const { return {this, size()}; }
};

// --- sign / exponent ------------------------------------------------------

[[nodiscard]] inline double hyp_sign(bool guess_sign, const KnownOperand& k) {
  return static_cast<double>(guess_sign != k.sign);  // HW of a single XOR bit
}

// Models the signed 32-bit intermediate e = Eg + Ey - 2100 of the
// reference FPEMU exponent datapath; the two's-complement wrap around
// zero is what separates exponent guesses whose plain sums would be
// Hamming-weight aliases.
[[nodiscard]] inline double hyp_exponent(unsigned guess_exp, const KnownOperand& k) {
  const auto e = static_cast<std::uint32_t>(
      static_cast<std::int32_t>(guess_exp + k.exponent) - 2100);
  return popcount64(e);
}

// --- mantissa low half (25 bits, the paper's "D" with known "B"=y0, "A"=y1)

// Extend targets: the two schoolbook partial products involving x0.
[[nodiscard]] inline double hyp_low_mul_ll(std::uint32_t x0, const KnownOperand& k) {
  return popcount64(static_cast<std::uint64_t>(x0) * k.y0);
}
[[nodiscard]] inline double hyp_low_mul_lh(std::uint32_t x0, const KnownOperand& k) {
  return popcount64(static_cast<std::uint64_t>(x0) * k.y1);
}

// Prune target: the z1a accumulation (depends on x0 and knowns only --
// the alignment of the two x0 products differs, which is exactly what
// breaks the shift false positives).
[[nodiscard]] inline double hyp_low_add_z1a(std::uint32_t x0, const KnownOperand& k) {
  const std::uint64_t ym =
      (static_cast<std::uint64_t>(k.y1) << fpr::kMantLowBits) | k.y0;
  // z1a is independent of x1 (property-tested); use any valid high half.
  const std::uint64_t xm = (std::uint64_t{1} << 52) | x0;
  return popcount64(static_cast<std::uint64_t>(fpr::mul_mantissa_steps(xm, ym).z1a));
}

// --- mantissa high half (28 bits, top bit always 1: 2^27 guesses) ---------

[[nodiscard]] inline double hyp_high_mul_hl(std::uint32_t x1, const KnownOperand& k) {
  return popcount64(static_cast<std::uint64_t>(x1) * k.y0);
}
[[nodiscard]] inline double hyp_high_mul_hh(std::uint32_t x1, const KnownOperand& k) {
  return popcount64(static_cast<std::uint64_t>(x1) * k.y1);
}

// Prune target: the final zu accumulation; requires the previously
// recovered low half x0.
[[nodiscard]] inline double hyp_high_add_zu(std::uint32_t x1, std::uint32_t x0,
                                            const KnownOperand& k) {
  const std::uint64_t ym =
      (static_cast<std::uint64_t>(k.y1) << fpr::kMantLowBits) | k.y0;
  const std::uint64_t xm = (static_cast<std::uint64_t>(x1) << fpr::kMantLowBits) | x0;
  return popcount64(fpr::mul_mantissa_steps(xm, ym).zu);
}

// Secondary prune target z1b (also x0- and x1-dependent).
[[nodiscard]] inline double hyp_high_add_z1b(std::uint32_t x1, std::uint32_t x0,
                                             const KnownOperand& k) {
  const std::uint64_t ym =
      (static_cast<std::uint64_t>(k.y1) << fpr::kMantLowBits) | k.y0;
  const std::uint64_t xm = (static_cast<std::uint64_t>(x1) << fpr::kMantLowBits) | x0;
  return popcount64(static_cast<std::uint64_t>(fpr::mul_mantissa_steps(xm, ym).z1b));
}

}  // namespace fd::attack
