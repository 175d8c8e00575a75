#pragma once
// Arbitrary-precision signed integers (sign-magnitude, 32-bit limbs).
//
// This is the exact-arithmetic substrate for FALCON key generation:
// NTRUSolve's field-norm recursion squares coefficient sizes at each
// descent level, so polynomial coefficients routinely grow to thousands
// of bits. The operation set is tailored to that use: ring arithmetic
// (add/sub/mul), Euclidean division, extended GCD (for the depth-0 Bezout
// step), shifts, and lossy extraction of the top 53 bits + exponent for
// the FFT-approximated Babai reduction.

#include <cstdint>
#include <compare>
#include <span>
#include <string>
#include <vector>

namespace fd {

class BigInt;

struct BigIntDivResult;
struct BigIntXgcdResult;

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::int64_t v);  // NOLINT(google-explicit-constructor) - ints are values
  // Parses an optionally '-'-prefixed decimal string. Throws std::invalid_argument.
  static BigInt from_decimal(const std::string& s);
  // (negative ? -1 : 1) * |limbs| for little-endian 32-bit limbs; leading
  // zero limbs are allowed.
  static BigInt from_magnitude(bool negative, std::span<const std::uint32_t> limbs);

  // |x| as little-endian 32-bit limbs without leading zeros (empty for 0).
  [[nodiscard]] std::span<const std::uint32_t> magnitude() const { return limbs_; }

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_negative() const { return negative_; }
  [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1U); }

  // Number of significant bits in |x|; bit_length(0) == 0.
  [[nodiscard]] std::size_t bit_length() const;

  // Value of bit i of |x| (i may exceed bit_length; returns 0 then).
  [[nodiscard]] bool bit(std::size_t i) const;

  BigInt& operator+=(const BigInt& o);
  BigInt& operator-=(const BigInt& o);
  BigInt& operator*=(const BigInt& o) { *this = *this * o; return *this; }
  BigInt& operator<<=(std::size_t n);
  BigInt& operator>>=(std::size_t n);  // arithmetic toward zero on magnitude

  friend BigInt operator+(BigInt a, const BigInt& b) { a += b; return a; }
  friend BigInt operator-(BigInt a, const BigInt& b) { a -= b; return a; }
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  friend BigInt operator<<(BigInt a, std::size_t n) { a <<= n; return a; }
  friend BigInt operator>>(BigInt a, std::size_t n) { a >>= n; return a; }
  BigInt operator-() const;

  friend bool operator==(const BigInt& a, const BigInt& b) = default;
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  using DivResult = BigIntDivResult;
  using XgcdResult = BigIntXgcdResult;
  // Truncating division; throws std::domain_error on division by zero.
  [[nodiscard]] static DivResult divmod(const BigInt& num, const BigInt& den);
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  friend BigInt operator%(const BigInt& a, const BigInt& b);
  [[nodiscard]] static XgcdResult xgcd(const BigInt& a, const BigInt& b);

  // Lossy conversions -------------------------------------------------------

  // Requires the value to fit in int64; throws std::overflow_error otherwise.
  [[nodiscard]] std::int64_t to_int64() const;
  [[nodiscard]] bool fits_int64() const;

  // Returns m, sets e, such that the value is approximately m * 2^e with
  // |m| in [2^52, 2^53) (or m == 0, e == 0). Rounds toward zero.
  // Used by NTRUSolve's Babai reduction to feed bigints into the FFT.
  [[nodiscard]] double to_double_scaled(int& e) const;
  // Convenience: closest double (may overflow to +-inf for huge values).
  [[nodiscard]] double to_double() const;

  [[nodiscard]] std::string to_decimal() const;

 private:
  void trim();
  [[nodiscard]] static int cmp_mag(const BigInt& a, const BigInt& b);
  static void add_mag(std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
  // Requires |a| >= |b|.
  static void sub_mag(std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);

  bool negative_ = false;            // never true when limbs_ is empty
  std::vector<std::uint32_t> limbs_; // little-endian magnitude, no leading zeros
};

struct BigIntDivResult {
  BigInt quotient;
  BigInt remainder;  // same sign as the dividend (C-style truncation)
};

struct BigIntXgcdResult {
  BigInt g;  // gcd >= 0
  BigInt u;  // u*a + v*b == g
  BigInt v;
};

inline BigInt operator/(const BigInt& a, const BigInt& b) {
  return BigInt::divmod(a, b).quotient;
}
inline BigInt operator%(const BigInt& a, const BigInt& b) {
  return BigInt::divmod(a, b).remainder;
}

}  // namespace fd
