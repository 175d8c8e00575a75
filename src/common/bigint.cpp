#include "common/bigint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace fd {
namespace {

constexpr std::size_t kKaratsubaThreshold = 32;  // limbs

// Schoolbook magnitude multiplication.
std::vector<std::uint32_t> mul_mag_school(const std::vector<std::uint32_t>& a,
                                          const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> r(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::uint64_t t = ai * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<std::uint32_t>(t);
      carry = t >> 32;
    }
    r[i + b.size()] = static_cast<std::uint32_t>(carry);
  }
  while (!r.empty() && r.back() == 0) r.pop_back();
  return r;
}

void add_into(std::vector<std::uint32_t>& acc, const std::vector<std::uint32_t>& x,
              std::size_t shift_limbs) {
  if (x.empty()) return;
  if (acc.size() < x.size() + shift_limbs + 1) acc.resize(x.size() + shift_limbs + 1, 0);
  std::uint64_t carry = 0;
  std::size_t i = 0;
  for (; i < x.size(); ++i) {
    const std::uint64_t t = static_cast<std::uint64_t>(acc[i + shift_limbs]) + x[i] + carry;
    acc[i + shift_limbs] = static_cast<std::uint32_t>(t);
    carry = t >> 32;
  }
  for (; carry != 0; ++i) {
    const std::uint64_t t = static_cast<std::uint64_t>(acc[i + shift_limbs]) + carry;
    acc[i + shift_limbs] = static_cast<std::uint32_t>(t);
    carry = t >> 32;
  }
}

// Requires element-wise a >= b as magnitudes starting at acc offset 0.
void sub_from(std::vector<std::uint32_t>& acc, const std::vector<std::uint32_t>& x) {
  std::int64_t borrow = 0;
  std::size_t i = 0;
  for (; i < x.size(); ++i) {
    std::int64_t t = static_cast<std::int64_t>(acc[i]) - x[i] - borrow;
    borrow = t < 0 ? 1 : 0;
    if (t < 0) t += (std::int64_t{1} << 32);
    acc[i] = static_cast<std::uint32_t>(t);
  }
  for (; borrow != 0; ++i) {
    std::int64_t t = static_cast<std::int64_t>(acc[i]) - borrow;
    borrow = t < 0 ? 1 : 0;
    if (t < 0) t += (std::int64_t{1} << 32);
    acc[i] = static_cast<std::uint32_t>(t);
  }
}

std::vector<std::uint32_t> mul_mag(const std::vector<std::uint32_t>& a,
                                   const std::vector<std::uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  if (std::min(a.size(), b.size()) < kKaratsubaThreshold) return mul_mag_school(a, b);

  const std::size_t half = std::max(a.size(), b.size()) / 2;
  const auto lo = [&](const std::vector<std::uint32_t>& v) {
    std::vector<std::uint32_t> r(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(std::min(half, v.size())));
    while (!r.empty() && r.back() == 0) r.pop_back();
    return r;
  };
  const auto hi = [&](const std::vector<std::uint32_t>& v) {
    if (v.size() <= half) return std::vector<std::uint32_t>{};
    return std::vector<std::uint32_t>(v.begin() + static_cast<std::ptrdiff_t>(half), v.end());
  };
  const auto a0 = lo(a), a1 = hi(a), b0 = lo(b), b1 = hi(b);
  const auto z0 = mul_mag(a0, b0);
  const auto z2 = mul_mag(a1, b1);
  // (a0+a1)(b0+b1) = z0 + z2 + cross
  auto as = a0; add_into(as, a1, 0); while (!as.empty() && as.back() == 0) as.pop_back();
  auto bs = b0; add_into(bs, b1, 0); while (!bs.empty() && bs.back() == 0) bs.pop_back();
  auto z1 = mul_mag(as, bs);
  sub_from(z1, z0);
  sub_from(z1, z2);
  while (!z1.empty() && z1.back() == 0) z1.pop_back();

  std::vector<std::uint32_t> r = z0;
  add_into(r, z1, half);
  add_into(r, z2, 2 * half);
  while (!r.empty() && r.back() == 0) r.pop_back();
  return r;
}

}  // namespace

BigInt::BigInt(std::int64_t v) {
  negative_ = v < 0;
  std::uint64_t m = negative_ ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
  while (m != 0) {
    limbs_.push_back(static_cast<std::uint32_t>(m));
    m >>= 32;
  }
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::from_magnitude(bool negative, std::span<const std::uint32_t> limbs) {
  while (!limbs.empty() && limbs.back() == 0) limbs = limbs.first(limbs.size() - 1);
  BigInt r;
  r.limbs_.assign(limbs.begin(), limbs.end());
  r.negative_ = negative && !r.limbs_.empty();
  return r;
}

BigInt BigInt::from_decimal(const std::string& s) {
  if (s.empty()) throw std::invalid_argument("BigInt::from_decimal: empty string");
  std::size_t i = 0;
  bool neg = false;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    i = 1;
    if (s.size() == 1) throw std::invalid_argument("BigInt::from_decimal: sign only");
  }
  BigInt r;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') throw std::invalid_argument("BigInt::from_decimal: bad digit");
    r = r * BigInt(10) + BigInt(s[i] - '0');
  }
  if (neg && !r.is_zero()) r.negative_ = true;
  return r;
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 32 + (32 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1U;
}

int BigInt::cmp_mag(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

void BigInt::add_mag(std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  add_into(a, b, 0);
  while (!a.empty() && a.back() == 0) a.pop_back();
}

void BigInt::sub_mag(std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  sub_from(a, b);
  while (!a.empty() && a.back() == 0) a.pop_back();
}

BigInt& BigInt::operator+=(const BigInt& o) {
  if (negative_ == o.negative_) {
    add_mag(limbs_, o.limbs_);
  } else if (cmp_mag(*this, o) >= 0) {
    sub_mag(limbs_, o.limbs_);
  } else {
    auto tmp = o.limbs_;
    sub_from(tmp, limbs_);
    limbs_ = std::move(tmp);
    negative_ = o.negative_;
  }
  trim();
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& o) {
  BigInt t = o;
  if (!t.is_zero()) t.negative_ = !t.negative_;
  return *this += t;
}

BigInt BigInt::operator-() const {
  BigInt r = *this;
  if (!r.is_zero()) r.negative_ = !r.negative_;
  return r;
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  BigInt r;
  r.limbs_ = mul_mag(a.limbs_, b.limbs_);
  r.negative_ = !r.limbs_.empty() && (a.negative_ != b.negative_);
  return r;
}

BigInt& BigInt::operator<<=(std::size_t n) {
  if (limbs_.empty() || n == 0) return *this;
  const std::size_t limb_shift = n / 32;
  const unsigned bit_shift = static_cast<unsigned>(n % 32);
  std::vector<std::uint32_t> r(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    r[i + limb_shift] |= static_cast<std::uint32_t>(v);
    r[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  limbs_ = std::move(r);
  trim();
  return *this;
}

BigInt& BigInt::operator>>=(std::size_t n) {
  if (limbs_.empty() || n == 0) return *this;
  const std::size_t limb_shift = n / 32;
  const unsigned bit_shift = static_cast<unsigned>(n % 32);
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    negative_ = false;
    return *this;
  }
  std::vector<std::uint32_t> r(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < r.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    r[i] = static_cast<std::uint32_t>(v);
  }
  limbs_ = std::move(r);
  trim();
  return *this;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_) {
    return a.negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  const int c = BigInt::cmp_mag(a, b);
  const int signed_c = a.negative_ ? -c : c;
  if (signed_c < 0) return std::strong_ordering::less;
  if (signed_c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigInt::DivResult BigInt::divmod(const BigInt& num, const BigInt& den) {
  if (den.is_zero()) throw std::domain_error("BigInt::divmod: division by zero");
  DivResult res;
  if (cmp_mag(num, den) < 0) {
    res.remainder = num;
    return res;
  }

  // Knuth Algorithm D on magnitudes (with single-limb fast path).
  const auto& d = den.limbs_;
  if (d.size() == 1) {
    const std::uint64_t dd = d[0];
    std::vector<std::uint32_t> q(num.limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = num.limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | num.limbs_[i];
      q[i] = static_cast<std::uint32_t>(cur / dd);
      rem = cur % dd;
    }
    res.quotient.limbs_ = std::move(q);
    res.quotient.trim();
    res.remainder = BigInt(static_cast<std::int64_t>(rem));
  } else {
    const unsigned shift = static_cast<unsigned>(std::countl_zero(d.back()));
    BigInt u = num;
    u.negative_ = false;
    u <<= shift;
    BigInt v = den;
    v.negative_ = false;
    v <<= shift;
    const std::size_t n = v.limbs_.size();
    const std::size_t m = u.limbs_.size() - n;
    u.limbs_.resize(u.limbs_.size() + 1, 0);  // u[m+n] slot

    std::vector<std::uint32_t> q(m + 1, 0);
    const std::uint64_t vtop = v.limbs_[n - 1];
    const std::uint64_t vsec = v.limbs_[n - 2];
    for (std::size_t j = m + 1; j-- > 0;) {
      const std::uint64_t numer =
          (static_cast<std::uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
      std::uint64_t qhat = numer / vtop;
      std::uint64_t rhat = numer % vtop;
      while (qhat >= (std::uint64_t{1} << 32) ||
             qhat * vsec > ((rhat << 32) | u.limbs_[j + n - 2])) {
        --qhat;
        rhat += vtop;
        if (rhat >= (std::uint64_t{1} << 32)) break;
      }
      // Multiply-and-subtract qhat * v from u[j .. j+n].
      std::int64_t borrow = 0;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t p = qhat * v.limbs_[i] + carry;
        carry = p >> 32;
        std::int64_t t = static_cast<std::int64_t>(u.limbs_[i + j]) -
                         static_cast<std::int64_t>(p & 0xFFFFFFFFULL) - borrow;
        borrow = t < 0 ? 1 : 0;
        if (t < 0) t += (std::int64_t{1} << 32);
        u.limbs_[i + j] = static_cast<std::uint32_t>(t);
      }
      std::int64_t t = static_cast<std::int64_t>(u.limbs_[j + n]) -
                       static_cast<std::int64_t>(carry) - borrow;
      const bool negative = t < 0;
      if (t < 0) t += (std::int64_t{1} << 32);
      u.limbs_[j + n] = static_cast<std::uint32_t>(t);

      if (negative) {  // qhat was one too large: add back
        --qhat;
        std::uint64_t c = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t s = static_cast<std::uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + c;
          u.limbs_[i + j] = static_cast<std::uint32_t>(s);
          c = s >> 32;
        }
        u.limbs_[j + n] = static_cast<std::uint32_t>(u.limbs_[j + n] + c);
      }
      q[j] = static_cast<std::uint32_t>(qhat);
    }
    u.limbs_.resize(n);
    u.trim();
    u >>= shift;
    res.quotient.limbs_ = std::move(q);
    res.quotient.trim();
    res.remainder = std::move(u);
  }

  // Apply C-style truncation signs.
  if (!res.quotient.is_zero()) res.quotient.negative_ = num.negative_ != den.negative_;
  if (!res.remainder.is_zero()) res.remainder.negative_ = num.negative_;
  return res;
}

BigInt::XgcdResult BigInt::xgcd(const BigInt& a, const BigInt& b) {
  // Iterative extended Euclid on the magnitudes; fix up signs at the end.
  BigInt r0 = a, r1 = b;
  r0.negative_ = false;
  r1.negative_ = false;
  BigInt s0 = 1, s1 = 0, t0 = 0, t1 = 1;
  while (!r1.is_zero()) {
    auto [q, r] = divmod(r0, r1);
    r0 = std::move(r1);
    r1 = std::move(r);
    BigInt s2 = s0 - q * s1;
    s0 = std::move(s1);
    s1 = std::move(s2);
    BigInt t2 = t0 - q * t1;
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  XgcdResult out;
  out.g = std::move(r0);
  out.u = a.is_negative() ? -s0 : s0;
  out.v = b.is_negative() ? -t0 : t0;
  return out;
}

bool BigInt::fits_int64() const {
  if (bit_length() < 64) return true;
  // INT64_MIN: magnitude 2^63 exactly, negative.
  return negative_ && bit_length() == 64 && bit(63) && limbs_[0] == 0 && limbs_[1] == 0x80000000U;
}

std::int64_t BigInt::to_int64() const {
  if (!fits_int64()) throw std::overflow_error("BigInt::to_int64: out of range");
  std::uint64_t m = 0;
  for (std::size_t i = std::min<std::size_t>(limbs_.size(), 2); i-- > 0;) {
    m = (m << 32) | limbs_[i];
  }
  // Negate in unsigned arithmetic: INT64_MIN's magnitude 2^63 has no
  // signed counterpart.
  return static_cast<std::int64_t>(negative_ ? 0 - m : m);
}

double BigInt::to_double_scaled(int& e) const {
  if (is_zero()) {
    e = 0;
    return 0.0;
  }
  const std::size_t bl = bit_length();
  if (bl <= 53) {
    e = 0;
    std::uint64_t m = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) m = (m << 32) | limbs_[i];
    // Normalize to [2^52, 2^53).
    const int up = 52 - static_cast<int>(bl - 1);
    e = -up;
    const double d = static_cast<double>(m) * std::ldexp(1.0, up);
    return negative_ ? -d : d;
  }
  const std::size_t drop = bl - 53;
  BigInt top = *this;
  top.negative_ = false;
  top >>= drop;
  std::uint64_t m = 0;
  for (std::size_t i = top.limbs_.size(); i-- > 0;) m = (m << 32) | top.limbs_[i];
  e = static_cast<int>(drop);
  const double d = static_cast<double>(m);
  return negative_ ? -d : d;
}

double BigInt::to_double() const {
  int e = 0;
  const double m = to_double_scaled(e);
  return std::ldexp(m, e);
}

std::string BigInt::to_decimal() const {
  if (is_zero()) return "0";
  BigInt v = *this;
  v.negative_ = false;
  std::string digits;
  const BigInt ten(10);
  while (!v.is_zero()) {
    auto [q, r] = divmod(v, ten);
    digits.push_back(static_cast<char>('0' + (r.is_zero() ? 0 : r.limbs_[0])));
    v = std::move(q);
  }
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

}  // namespace fd
