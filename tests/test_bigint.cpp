// BigInt unit + property tests. The NTRUSolve recursion depends on exact
// multi-thousand-bit arithmetic, so these exercise carries, Knuth-D
// division corner cases, Karatsuba thresholds, and xgcd identities.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/bigint.h"
#include "common/rng.h"

namespace fd {
namespace {

BigInt random_bigint(RandomSource& rng, std::size_t max_bits) {
  const std::size_t bits = 1 + rng.uniform(max_bits);
  BigInt r;
  for (std::size_t i = 0; i < (bits + 31) / 32; ++i) {
    r <<= 32;
    r += BigInt(static_cast<std::int64_t>(rng.next_u64() & 0xFFFFFFFFULL));
  }
  r >>= (r.bit_length() > bits ? r.bit_length() - bits : 0);
  if (rng.next_u8() & 1) r = -r;
  return r;
}

TEST(BigInt, SmallValues) {
  EXPECT_TRUE(BigInt(0).is_zero());
  EXPECT_EQ(BigInt(42).to_int64(), 42);
  EXPECT_EQ(BigInt(-42).to_int64(), -42);
  EXPECT_EQ(BigInt(INT64_MIN).to_int64(), INT64_MIN);
  EXPECT_EQ(BigInt(INT64_MAX).to_int64(), INT64_MAX);
  EXPECT_EQ((BigInt(5) + BigInt(-7)).to_int64(), -2);
  EXPECT_EQ((BigInt(-5) * BigInt(-7)).to_int64(), 35);
}

TEST(BigInt, DecimalRoundTrip) {
  const std::string s = "-123456789012345678901234567890123456789";
  EXPECT_EQ(BigInt::from_decimal(s).to_decimal(), s);
  EXPECT_EQ(BigInt::from_decimal("0").to_decimal(), "0");
  EXPECT_EQ(BigInt::from_decimal("-0").to_decimal(), "0");
  EXPECT_THROW(BigInt::from_decimal(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_decimal("12x"), std::invalid_argument);
}

TEST(BigInt, AddSubPropertiesInt64Oracle) {
  ChaCha20Prng rng(0x2001);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t a = static_cast<std::int64_t>(rng.next_u64()) >> 2;
    const std::int64_t b = static_cast<std::int64_t>(rng.next_u64()) >> 2;
    EXPECT_EQ((BigInt(a) + BigInt(b)).to_int64(), a + b);
    EXPECT_EQ((BigInt(a) - BigInt(b)).to_int64(), a - b);
  }
}

TEST(BigInt, MulInt64Oracle) {
  ChaCha20Prng rng(0x2002);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t a = static_cast<std::int64_t>(rng.next_u64()) >> 33;
    const std::int64_t b = static_cast<std::int64_t>(rng.next_u64()) >> 33;
    EXPECT_EQ((BigInt(a) * BigInt(b)).to_int64(), a * b);
  }
}

TEST(BigInt, AlgebraicProperties) {
  ChaCha20Prng rng(0x2003);
  for (int i = 0; i < 300; ++i) {
    const BigInt a = random_bigint(rng, 2500);
    const BigInt b = random_bigint(rng, 2500);
    const BigInt c = random_bigint(rng, 600);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_EQ(a - a, BigInt(0));
    EXPECT_EQ((a * b) + (a * c), a * (b + c));
  }
}

TEST(BigInt, KaratsubaMatchesSchoolbookSizes) {
  // Cross the Karatsuba threshold with structured values: (2^k - 1)^2 =
  // 2^(2k) - 2^(k+1) + 1.
  for (const std::size_t k : {64U, 256U, 1024U, 4096U, 8192U}) {
    BigInt x = BigInt(1);
    x <<= k;
    x -= BigInt(1);
    const BigInt sq = x * x;
    BigInt expect = BigInt(1);
    expect <<= 2 * k;
    BigInt mid = BigInt(1);
    mid <<= k + 1;
    expect -= mid;
    expect += BigInt(1);
    EXPECT_EQ(sq, expect) << "k=" << k;
  }
}

TEST(BigInt, ShiftRoundTrip) {
  ChaCha20Prng rng(0x2004);
  for (int i = 0; i < 2000; ++i) {
    const BigInt a = random_bigint(rng, 1000);
    const std::size_t s = rng.uniform(200);
    BigInt shifted = a << s;
    EXPECT_EQ(shifted >> s, a);
    EXPECT_EQ((a << s).bit_length(), a.is_zero() ? 0 : a.bit_length() + s);
  }
}

TEST(BigInt, DivModInvariant) {
  ChaCha20Prng rng(0x2005);
  for (int i = 0; i < 3000; ++i) {
    const BigInt a = random_bigint(rng, 1200);
    BigInt b = random_bigint(rng, 1 + rng.uniform(1200));
    if (b.is_zero()) b = BigInt(1);
    const auto [q, r] = BigInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    // |r| < |b| and r has the dividend's sign (or is zero).
    BigInt abs_r = r.is_negative() ? -r : r;
    BigInt abs_b = b.is_negative() ? -b : b;
    EXPECT_LT(abs_r, abs_b);
    if (!r.is_zero()) {
      EXPECT_EQ(r.is_negative(), a.is_negative());
    }
  }
}

TEST(BigInt, DivByZeroThrows) {
  EXPECT_THROW((void)BigInt::divmod(BigInt(5), BigInt(0)), std::domain_error);
}

TEST(BigInt, KnuthDAddBackCase) {
  // Divisors with all-ones top limbs provoke the rare "add back" branch.
  BigInt num = BigInt(1);
  num <<= 192;
  num -= BigInt(1);
  BigInt den = BigInt(1);
  den <<= 96;
  den -= BigInt(1);
  const auto [q, r] = BigInt::divmod(num, den);
  EXPECT_EQ(q * den + r, num);
}

TEST(BigInt, Xgcd) {
  ChaCha20Prng rng(0x2006);
  for (int i = 0; i < 1000; ++i) {
    const BigInt a = random_bigint(rng, 400);
    const BigInt b = random_bigint(rng, 400);
    if (a.is_zero() && b.is_zero()) continue;
    const auto [g, u, v] = BigInt::xgcd(a, b);
    EXPECT_FALSE(g.is_negative());
    EXPECT_EQ(u * a + v * b, g);
    if (!a.is_zero()) {
      EXPECT_TRUE((a % g).is_zero());
    }
    if (!b.is_zero()) {
      EXPECT_TRUE((b % g).is_zero());
    }
  }
}

TEST(BigInt, XgcdCoprime) {
  const auto [g, u, v] = BigInt::xgcd(BigInt(240), BigInt(46));
  EXPECT_EQ(g.to_int64(), 2);
  EXPECT_EQ((u * BigInt(240) + v * BigInt(46)).to_int64(), 2);
}

TEST(BigInt, ToDoubleScaled) {
  ChaCha20Prng rng(0x2007);
  for (int i = 0; i < 2000; ++i) {
    const BigInt a = random_bigint(rng, 900);
    if (a.is_zero()) continue;
    int e = 0;
    const double m = a.to_double_scaled(e);
    const double mag = std::fabs(m);
    EXPECT_GE(mag, 0x1.0p52);
    EXPECT_LT(mag, 0x1.0p53);
    if (e <= 0) {
      // Value has at most 53 bits: the conversion is exact.
      EXPECT_EQ(std::ldexp(m, e), a.to_double());
      BigInt exact = BigInt(static_cast<std::int64_t>(std::ldexp(m, e)));
      EXPECT_EQ(exact, a);
    } else {
      // Truncation toward zero: |m*2^e - a| < 2^e.
      BigInt approx = BigInt(static_cast<std::int64_t>(m));
      approx <<= static_cast<std::size_t>(e);
      BigInt diff = a - approx;
      if (diff.is_negative()) diff = -diff;
      EXPECT_LE(diff.bit_length(), static_cast<std::size_t>(e));
    }
  }
}

TEST(BigInt, ToDoubleSmall) {
  EXPECT_EQ(BigInt(12345).to_double(), 12345.0);
  EXPECT_EQ(BigInt(-3).to_double(), -3.0);
  EXPECT_EQ(BigInt(0).to_double(), 0.0);
}

TEST(BigInt, BitAccessors) {
  BigInt x = BigInt(0b1011);
  EXPECT_TRUE(x.bit(0));
  EXPECT_TRUE(x.bit(1));
  EXPECT_FALSE(x.bit(2));
  EXPECT_TRUE(x.bit(3));
  EXPECT_FALSE(x.bit(64));
  EXPECT_EQ(x.bit_length(), 4U);
  EXPECT_TRUE(x.is_odd());
  EXPECT_FALSE(BigInt(4).is_odd());
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt(7), BigInt(3));
  EXPECT_EQ(BigInt(0), BigInt(0));
  BigInt big = BigInt(1);
  big <<= 100;
  EXPECT_GT(big, BigInt(INT64_MAX));
  EXPECT_LT(-big, BigInt(INT64_MIN));
}

TEST(BigInt, Int64Bounds) {
  BigInt just_over = BigInt(INT64_MAX);
  just_over += BigInt(1);
  EXPECT_FALSE(just_over.fits_int64());
  EXPECT_THROW((void)just_over.to_int64(), std::overflow_error);
  EXPECT_TRUE((-just_over).fits_int64());  // INT64_MIN
  EXPECT_EQ((-just_over).to_int64(), INT64_MIN);
}

TEST(BigInt, MagnitudeRoundTrip) {
  ChaCha20Prng rng(0xB16B);
  for (int t = 0; t < 200; ++t) {
    const BigInt x = random_bigint(rng, 300);
    const auto mag = x.magnitude();
    EXPECT_TRUE(mag.empty() || mag.back() != 0);
    EXPECT_EQ(BigInt::from_magnitude(x.is_negative(), mag), x);
  }
  const std::uint32_t padded[] = {5, 0, 0};
  EXPECT_EQ(BigInt::from_magnitude(true, padded), BigInt(-5));
  const std::uint32_t zeros[] = {0, 0};
  EXPECT_EQ(BigInt::from_magnitude(true, zeros), BigInt(0));  // no negative zero
  EXPECT_FALSE(BigInt::from_magnitude(true, zeros).is_negative());
  EXPECT_TRUE(BigInt(0).magnitude().empty());
}

}  // namespace
}  // namespace fd
