#include "fpr/fpr.h"

#include <array>
#include <cassert>

namespace fd::fpr {

namespace detail {
constinit thread_local LeakRoute tl_route;
}

const char* leakage_tag_name(LeakageTag tag) {
  switch (tag) {
    case LeakageTag::kTriggerBegin: return "TRIGGER_BEGIN";
    case LeakageTag::kTriggerEnd: return "TRIGGER_END";
    case LeakageTag::kMulOperandXLo: return "MUL_X_LO";
    case LeakageTag::kMulOperandXHi: return "MUL_X_HI";
    case LeakageTag::kMulOperandYLo: return "MUL_Y_LO";
    case LeakageTag::kMulOperandYHi: return "MUL_Y_HI";
    case LeakageTag::kMulProdLL: return "MUL_PROD_LL";
    case LeakageTag::kMulProdLH: return "MUL_PROD_LH";
    case LeakageTag::kMulProdHL: return "MUL_PROD_HL";
    case LeakageTag::kMulProdHH: return "MUL_PROD_HH";
    case LeakageTag::kMulAccZ1a: return "MUL_ACC_Z1A";
    case LeakageTag::kMulAccZ1b: return "MUL_ACC_Z1B";
    case LeakageTag::kMulAccZ2: return "MUL_ACC_Z2";
    case LeakageTag::kMulAccZu: return "MUL_ACC_ZU";
    case LeakageTag::kMulExpX: return "MUL_EXP_X";
    case LeakageTag::kMulExpY: return "MUL_EXP_Y";
    case LeakageTag::kMulExpSum: return "MUL_EXP_SUM";
    case LeakageTag::kMulSign: return "MUL_SIGN";
    case LeakageTag::kMulResult: return "MUL_RESULT";
    case LeakageTag::kAddAlignShift: return "ADD_ALIGN_SHIFT";
    case LeakageTag::kAddMantSum: return "ADD_MANT_SUM";
    case LeakageTag::kAddResult: return "ADD_RESULT";
    case LeakageTag::kNttProd: return "NTT_PROD";
    case LeakageTag::kNttReduced: return "NTT_REDUCED";
    case LeakageTag::kNttButterflyAdd: return "NTT_BFLY_ADD";
    case LeakageTag::kNttButterflySub: return "NTT_BFLY_SUB";
    case LeakageTag::kNumTags: break;
  }
  return "?";
}

namespace {

constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;
constexpr std::uint64_t kMagMask = 0x7FFFFFFFFFFFFFFFULL;

// Assembles (-1)^s * m * 2^e with m in [2^54, 2^55), where m's bit 1 is
// the round bit and bit 0 the sticky bit; round-to-nearest-even via the
// 0xC8 lookup trick of FALCON's FPR(). m == 0 or an underflowing exponent
// yields a (signed) zero.
Fpr make_fpr(unsigned s, int e, std::uint64_t m) {
  e += 1076;
  if (m == 0 || e < 0) return Fpr::from_bits(static_cast<std::uint64_t>(s) << 63);
  std::uint64_t x = (static_cast<std::uint64_t>(s) << 63) | (m >> 2);
  x += static_cast<std::uint64_t>(static_cast<std::uint32_t>(e)) << 52;
  const unsigned f = static_cast<unsigned>(m) & 7U;
  x += (0xC8U >> f) & 1U;
  return Fpr::from_bits(x);
}

}  // namespace

Fpr fpr_mul(Fpr x, Fpr y) {
  const unsigned s = static_cast<unsigned>((x.bits() ^ y.bits()) >> 63);
  leak(LeakageTag::kMulSign, s);

  const unsigned ex_field = x.biased_exponent();
  const unsigned ey_field = y.biased_exponent();
  // Zero or subnormal operand: flush to (signed) zero.
  if (ex_field == 0 || ey_field == 0) {
    return Fpr::from_bits(static_cast<std::uint64_t>(s) << 63);
  }

  leak(LeakageTag::kMulExpX, ex_field);
  leak(LeakageTag::kMulExpY, ey_field);
  // The reference FPEMU computes the signed intermediate
  // e = ex + ey - 2100 in a 32-bit register; its two's-complement
  // pattern (typically a small negative) is what switches on the bus.
  leak(LeakageTag::kMulExpSum,
       static_cast<std::uint32_t>(static_cast<std::int32_t>(ex_field + ey_field) - 2100));

  const MulMantissaSteps st = mul_mantissa_steps(x.significand(), y.significand());
  leak(LeakageTag::kMulOperandXLo, st.x0);
  leak(LeakageTag::kMulOperandXHi, st.x1);
  leak(LeakageTag::kMulOperandYLo, st.y0);
  leak(LeakageTag::kMulOperandYHi, st.y1);
  leak(LeakageTag::kMulProdLL, st.prod_ll);
  leak(LeakageTag::kMulProdLH, st.prod_lh);
  leak(LeakageTag::kMulAccZ1a, st.z1a);
  leak(LeakageTag::kMulProdHL, st.prod_hl);
  leak(LeakageTag::kMulAccZ1b, st.z1b);
  leak(LeakageTag::kMulAccZ2, st.z2);
  leak(LeakageTag::kMulProdHH, st.prod_hh);
  leak(LeakageTag::kMulAccZu, st.zu);

  // Reassemble: product P = zu*2^50 + z1*2^25 + z0 in [2^104, 2^106).
  const int ex = static_cast<int>(ex_field) - 1075;
  const int ey = static_cast<int>(ey_field) - 1075;
  std::uint64_t m;
  int e;
  if ((st.zu >> 55) != 0) {  // P >= 2^105
    const bool sticky = ((st.zu & 3) | st.z1 | st.z0) != 0;
    m = ((st.zu >> 2) << 1) | static_cast<std::uint64_t>(sticky);
    e = ex + ey + 51;
  } else {  // P < 2^105
    const bool sticky = ((st.zu & 1) | st.z1 | st.z0) != 0;
    m = ((st.zu >> 1) << 1) | static_cast<std::uint64_t>(sticky);
    e = ex + ey + 50;
  }
  const Fpr r = make_fpr(s, e, m);
  leak(LeakageTag::kMulResult, r.bits());
  return r;
}

Fpr fpr_add(Fpr x, Fpr y) {
  std::uint64_t xb = x.bits();
  std::uint64_t yb = y.bits();
  // Operand with the larger magnitude goes first.
  if ((xb & kMagMask) < (yb & kMagMask)) std::swap(xb, yb);

  const unsigned sx = static_cast<unsigned>(xb >> 63);
  const unsigned sy = static_cast<unsigned>(yb >> 63);
  const unsigned ex_field = static_cast<unsigned>((xb >> 52) & 0x7FF);
  const unsigned ey_field = static_cast<unsigned>((yb >> 52) & 0x7FF);

  // Mantissas scaled to 2^55..2^56-1 (3 guard bits); subnormals flush to 0.
  std::uint64_t xu = xb & 0x000FFFFFFFFFFFFFULL;
  std::uint64_t yu = yb & 0x000FFFFFFFFFFFFFULL;
  if (ex_field != 0) xu |= 0x0010000000000000ULL; else xu = 0;
  if (ey_field != 0) yu |= 0x0010000000000000ULL; else yu = 0;
  xu <<= 3;
  yu <<= 3;

  // Align y to x's exponent; dropped bits collapse into the sticky bit 0.
  const unsigned delta = ex_field - ey_field;  // >= 0 by the swap above
  leak(LeakageTag::kAddAlignShift, delta);
  if (delta > 59) {
    yu = (yu != 0) ? 1 : 0;
  } else if (delta > 0) {
    const std::uint64_t dropped = yu & ((std::uint64_t{1} << delta) - 1);
    yu = (yu >> delta) | static_cast<std::uint64_t>(dropped != 0);
  }

  std::uint64_t zm = (sx == sy) ? (xu + yu) : (xu - yu);
  leak(LeakageTag::kAddMantSum, zm);
  if (zm == 0) {
    // Exact cancellation rounds to +0; (-0)+(-0) stays -0.
    return Fpr::from_bits(static_cast<std::uint64_t>(sx & sy) << 63);
  }

  int e = static_cast<int>(ex_field) - 1078;  // value == zm * 2^e
  while (zm >= (std::uint64_t{1} << 55)) {
    zm = (zm >> 1) | (zm & 1);
    ++e;
  }
  while (zm < (std::uint64_t{1} << 54)) {
    zm <<= 1;
    --e;
  }
  const Fpr r = make_fpr(sx, e, zm);
  leak(LeakageTag::kAddResult, r.bits());
  return r;
}

Fpr fpr_sub(Fpr x, Fpr y) { return fpr_add(x, fpr_neg(y)); }

Fpr fpr_neg(Fpr x) { return Fpr::from_bits(x.bits() ^ kSignBit); }

Fpr fpr_half(Fpr x) {
  const unsigned e = x.biased_exponent();
  if (e <= 1) return Fpr::from_bits(x.bits() & kSignBit);  // underflow flush
  return Fpr::from_bits(x.bits() - (std::uint64_t{1} << 52));
}

Fpr fpr_double(Fpr x) {
  if (x.biased_exponent() == 0) return Fpr::from_bits(x.bits() & kSignBit);
  return Fpr::from_bits(x.bits() + (std::uint64_t{1} << 52));
}

Fpr fpr_div(Fpr x, Fpr y) {
  const unsigned s = static_cast<unsigned>((x.bits() ^ y.bits()) >> 63);
  if (x.biased_exponent() == 0 || y.biased_exponent() == 0) {
    // x == 0 (or subnormal) -> signed zero; division by zero is
    // unspecified in FPEMU, we return signed zero as well.
    return Fpr::from_bits(static_cast<std::uint64_t>(s) << 63);
  }
  const std::uint64_t xm = x.significand();
  const std::uint64_t ym = y.significand();
  const unsigned __int128 num = static_cast<unsigned __int128>(xm) << 55;
  std::uint64_t q = static_cast<std::uint64_t>(num / ym);
  bool sticky = (num % ym) != 0;
  int e = static_cast<int>(x.biased_exponent()) - static_cast<int>(y.biased_exponent()) - 55;
  if ((q >> 55) != 0) {
    sticky = sticky || (q & 1);
    q >>= 1;
    ++e;
  }
  const std::uint64_t m = q | static_cast<std::uint64_t>(sticky);
  return make_fpr(s, e, m);
}

Fpr fpr_inv(Fpr x) { return fpr_div(kOne, x); }

namespace {

unsigned __int128 isqrt_u128(unsigned __int128 t) {
  unsigned __int128 r = 0;
  unsigned __int128 bit = static_cast<unsigned __int128>(1) << 126;
  while (bit > t) bit >>= 2;
  while (bit != 0) {
    if (t >= r + bit) {
      t -= r + bit;
      r = (r >> 1) + bit;
    } else {
      r >>= 1;
    }
    bit >>= 2;
  }
  return r;
}

}  // namespace

Fpr fpr_sqrt(Fpr x) {
  assert(!x.sign() || x.is_zero());
  if (x.biased_exponent() == 0) return Fpr::from_bits(0);
  std::uint64_t xm = x.significand();
  int e = static_cast<int>(x.biased_exponent()) - 1075;  // value = xm * 2^e
  if (e & 1) {
    xm <<= 1;
    --e;
  }
  const unsigned __int128 t = static_cast<unsigned __int128>(xm) << 56;
  const unsigned __int128 rt = isqrt_u128(t);
  const bool sticky = rt * rt != t;
  const std::uint64_t m = static_cast<std::uint64_t>(rt) | static_cast<std::uint64_t>(sticky);
  return make_fpr(0, e / 2 - 28, m);
}

Fpr fpr_scaled(std::int64_t i, int sc) {
  if (i == 0) return Fpr::from_bits(0);
  const unsigned s = i < 0;
  std::uint64_t m = s ? ~static_cast<std::uint64_t>(i) + 1 : static_cast<std::uint64_t>(i);
  int e = sc;
  while (m >= (std::uint64_t{1} << 55)) {
    m = (m >> 1) | (m & 1);
    ++e;
  }
  while (m < (std::uint64_t{1} << 54)) {
    m <<= 1;
    --e;
  }
  return make_fpr(s, e, m);
}

Fpr fpr_of(std::int64_t i) { return fpr_scaled(i, 0); }

std::int64_t fpr_trunc(Fpr x) {
  if (x.biased_exponent() == 0) return 0;
  const int e = static_cast<int>(x.biased_exponent()) - 1075;  // value = xm * 2^e
  const std::uint64_t xm = x.significand();
  std::uint64_t mag;
  if (e >= 0) {
    mag = (e >= 11) ? (xm << 11) : (xm << e);  // callers keep |x| < 2^63
  } else {
    const unsigned sh = static_cast<unsigned>(-e);
    mag = (sh >= 64) ? 0 : (xm >> sh);
  }
  const std::int64_t r = static_cast<std::int64_t>(mag);
  return x.sign() ? -r : r;
}

std::int64_t fpr_rint(Fpr x) {
  if (x.biased_exponent() == 0) return 0;
  const int e = static_cast<int>(x.biased_exponent()) - 1075;
  const std::uint64_t xm = x.significand();
  std::uint64_t mag;
  if (e >= 0) {
    mag = (e >= 11) ? (xm << 11) : (xm << e);
  } else {
    const unsigned sh = static_cast<unsigned>(-e);
    if (sh >= 54) {
      mag = 0;  // |x| < 0.5 rounds to 0; |x| == 0.5 rounds to 0 (even)
    } else {
      const std::uint64_t kept = xm >> sh;
      const std::uint64_t rem = xm & ((std::uint64_t{1} << sh) - 1);
      const std::uint64_t half = std::uint64_t{1} << (sh - 1);
      mag = kept + ((rem > half || (rem == half && (kept & 1))) ? 1 : 0);
    }
  }
  const std::int64_t r = static_cast<std::int64_t>(mag);
  return x.sign() ? -r : r;
}

std::int64_t fpr_floor(Fpr x) {
  const std::int64_t t = fpr_trunc(x);
  if (!x.sign()) return t;
  // Negative: subtract 1 when x has a fractional part.
  const int e = static_cast<int>(x.biased_exponent()) - 1075;
  if (x.biased_exponent() == 0 || e >= 0) return t;
  const unsigned sh = static_cast<unsigned>(-e);
  const std::uint64_t xm = x.significand();
  const bool fractional = (sh >= 64) ? (xm != 0) : ((xm & ((std::uint64_t{1} << sh) - 1)) != 0);
  return fractional ? t - 1 : t;
}

bool fpr_lt(Fpr x, Fpr y) {
  const auto key = [](std::uint64_t b) {
    return (b >> 63) ? ~b : (b | kSignBit);
  };
  return key(x.bits()) < key(y.bits());
}

namespace {

constexpr int kExpmTerms = 16;

constexpr std::array<std::uint64_t, kExpmTerms + 1> make_expm_table() {
  std::array<std::uint64_t, kExpmTerms + 1> c{};
  for (int i = 0; i <= kExpmTerms; ++i) {
    const int k = kExpmTerms - i;  // coefficient of x^k is 2^63 / k!
    std::uint64_t fact = 1;
    for (int j = 2; j <= k; ++j) fact *= static_cast<std::uint64_t>(j);
    if (k == 0) {
      c[i] = std::uint64_t{1} << 63;
    } else {
      const std::uint64_t q = (std::uint64_t{1} << 63) / fact;
      const std::uint64_t r = (std::uint64_t{1} << 63) % fact;
      c[i] = q + ((2 * r >= fact) ? 1 : 0);
    }
  }
  return c;
}

constexpr std::array<std::uint64_t, kExpmTerms + 1> kExpmTable = make_expm_table();

inline std::uint64_t mul_hi64(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b)) >> 64);
}

}  // namespace

std::uint64_t fpr_expm_p63(Fpr x, Fpr ccs) {
  assert(fpr_lt(x, kOne) && !x.sign());
  // z = x in 0.64 fixed point (x < 1).
  const std::uint64_t z = static_cast<std::uint64_t>(fpr_trunc(fpr_mul(x, kPtwo63))) << 1;
  std::uint64_t y = kExpmTable[0];
  for (std::size_t u = 1; u < kExpmTable.size(); ++u) {
    y = kExpmTable[u] - mul_hi64(z, y);
  }
  // Scale by ccs; ccs == 1 saturates the 0.64 fixed-point representation
  // (it occurs when a sampling sigma equals sigma_min exactly).
  const std::uint64_t zc =
      fpr_lt(ccs, kOne)
          ? (static_cast<std::uint64_t>(fpr_trunc(fpr_mul(ccs, kPtwo63))) << 1)
          : ~std::uint64_t{0};
  return mul_hi64(zc, y);
}

}  // namespace fd::fpr
