#include "falcon/ntru_solve.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "fft/fft.h"

namespace fd::falcon {

using fpr::Fpr;

namespace {

unsigned logn_of(std::size_t n) {
  unsigned logn = 0;
  while ((std::size_t{1} << logn) < n) ++logn;
  return logn;
}

BigInt from_i128(__int128 v) {
  const bool negative = v < 0;
  unsigned __int128 m = static_cast<unsigned __int128>(v);
  if (negative) m = ~m + 1;
  std::uint32_t limbs[4];
  for (auto& l : limbs) {
    l = static_cast<std::uint32_t>(m);
    m >>= 32;
  }
  return BigInt::from_magnitude(negative, limbs);
}

// Every |a_i|, |b_j| < 2^63 and n * max|a| * max|b| < 2^127: each term
// and each partial sum of a product coefficient fits in __int128.
ZPoly mul_i128(const ZPoly& a, const ZPoly& b) {
  const std::size_t n = a.size();
  std::vector<std::int64_t> av(n), bv(n);
  for (std::size_t i = 0; i < n; ++i) {
    av[i] = a[i].to_int64();
    bv[i] = b[i].to_int64();
  }
  // r_k = sum_{i <= k} a_i b_{k-i} - sum_{i > k} a_i b_{n+k-i}, summed in
  // a register.
  ZPoly r(n);
  for (std::size_t k = 0; k < n; ++k) {
    __int128 acc = 0;
    for (std::size_t i = 0; i <= k; ++i) acc += static_cast<__int128>(av[i]) * bv[k - i];
    for (std::size_t i = k + 1; i < n; ++i) acc -= static_cast<__int128>(av[i]) * bv[n + k - i];
    r[k] = from_i128(acc);
  }
  return r;
}

std::size_t limbs64(const BigInt& c) { return (c.magnitude().size() + 1) / 2; }

// |p[i]| as 64-bit limbs at out[i * w, i * w + limbs64(p[i])); zero above.
void flatten(const ZPoly& p, std::size_t w, std::uint64_t* out) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    const auto mag = p[i].magnitude();
    for (std::size_t k = 0; k < mag.size(); ++k) {
      out[i * w + k / 2] |= static_cast<std::uint64_t>(mag[k]) << (32 * (k & 1));
    }
  }
}

// acc += x * y over w limbs; the caller's bound keeps the sum below 2^(64 w).
void mac(std::uint64_t* acc, std::size_t w, const std::uint64_t* x, std::size_t lx,
         const std::uint64_t* y, std::size_t ly) {
  for (std::size_t i = 0; i < lx; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < ly; ++j) {
      const unsigned __int128 t = static_cast<unsigned __int128>(x[i]) * y[j] + acc[i + j] + carry;
      acc[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    for (std::size_t k = i + ly; carry != 0 && k < w; ++k) {
      acc[k] += carry;
      carry = acc[k] < carry ? 1 : 0;
    }
  }
}

// Any sizes: each product coefficient gathers its positive and its
// negative terms in two unsigned w-limb accumulators, w covering
// bitlen(a) + bitlen(b) + logn bits, and takes their difference.
ZPoly mul_wide(const ZPoly& a, const ZPoly& b, std::size_t ba, std::size_t bb, unsigned logn) {
  const std::size_t n = a.size();
  const std::size_t wa = (ba + 63) / 64;
  const std::size_t wb = (bb + 63) / 64;
  const std::size_t w = (ba + bb + logn + 63) / 64;
  std::vector<std::uint64_t> buf(n * wa + n * wb + 2 * w, 0);
  std::uint64_t* const fa = buf.data();
  std::uint64_t* const fb = fa + n * wa;
  std::uint64_t* const pos = fb + n * wb;
  std::uint64_t* const neg = pos + w;
  flatten(a, wa, fa);
  flatten(b, wb, fb);
  std::vector<std::uint32_t> mag(2 * w);
  ZPoly r(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::fill(pos, neg + w, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const bool wrap = i > k;  // x^i * x^(n+k-i) = -x^k
      const std::size_t j = wrap ? n + k - i : k - i;
      const std::size_t la = limbs64(a[i]);
      const std::size_t lb = limbs64(b[j]);
      if (la == 0 || lb == 0) continue;
      std::uint64_t* acc = (a[i].is_negative() != b[j].is_negative()) != wrap ? neg : pos;
      // The longer operand in the inner loop: one carry chain per limb of
      // the shorter one (a lift multiplies ~50 limbs by one).
      if (la <= lb) {
        mac(acc, w, fa + i * wa, la, fb + j * wb, lb);
      } else {
        mac(acc, w, fb + j * wb, lb, fa + i * wa, la);
      }
    }
    const bool negative = std::lexicographical_compare(
        std::make_reverse_iterator(pos + w), std::make_reverse_iterator(pos),
        std::make_reverse_iterator(neg + w), std::make_reverse_iterator(neg));
    const std::uint64_t* hi = negative ? neg : pos;
    const std::uint64_t* lo = negative ? pos : neg;
    std::uint64_t borrow = 0;
    for (std::size_t l = 0; l < w; ++l) {
      const std::uint64_t d = hi[l] - lo[l];
      const std::uint64_t v = d - borrow;
      borrow = (hi[l] < lo[l] ? 1 : 0) + (d < borrow ? 1 : 0);
      mag[2 * l] = static_cast<std::uint32_t>(v);
      mag[2 * l + 1] = static_cast<std::uint32_t>(v >> 32);
    }
    r[k] = BigInt::from_magnitude(negative, mag);
  }
  return r;
}

}  // namespace

ZPoly zpoly_mul(const ZPoly& a, const ZPoly& b) {
  if (a.size() != b.size()) throw std::invalid_argument("zpoly_mul: operand sizes differ");
  const std::size_t ba = zpoly_max_bitlen(a);
  const std::size_t bb = zpoly_max_bitlen(b);
  if (ba == 0 || bb == 0) return ZPoly(a.size(), BigInt(0));
  const unsigned logn = logn_of(a.size());
  if (ba <= 63 && bb <= 63 && ba + bb + logn <= 127) return mul_i128(a, b);
  return mul_wide(a, b, ba, bb, logn);
}

ZPoly zpoly_add(const ZPoly& a, const ZPoly& b) {
  ZPoly r = a;
  for (std::size_t i = 0; i < r.size(); ++i) r[i] += b[i];
  return r;
}

ZPoly zpoly_sub(const ZPoly& a, const ZPoly& b) {
  ZPoly r = a;
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
  return r;
}

ZPoly zpoly_galois_conjugate(const ZPoly& f) {
  ZPoly r = f;
  for (std::size_t i = 1; i < r.size(); i += 2) r[i] = -r[i];
  return r;
}

ZPoly zpoly_field_norm(const ZPoly& f) {
  const std::size_t n = f.size();
  if (n < 2 || n % 2 != 0) {
    throw std::invalid_argument("zpoly_field_norm: length not even and >= 2");
  }
  const std::size_t hn = n / 2;
  ZPoly fe(hn), fo(hn);
  for (std::size_t i = 0; i < hn; ++i) {
    fe[i] = f[2 * i];
    fo[i] = f[2 * i + 1];
  }
  // N(f)(y) = fe(y)^2 - y * fo(y)^2  in Z[y]/(y^hn + 1).
  ZPoly r = zpoly_mul(fe, fe);
  const ZPoly fo2 = zpoly_mul(fo, fo);
  // Multiply fo2 by y (negacyclic shift) and subtract.
  r[0] += fo2[hn - 1];  // y * y^(hn-1) = y^hn = -1, so -( -fo2[hn-1] ) = +
  for (std::size_t i = 1; i < hn; ++i) r[i] -= fo2[i - 1];
  return r;
}

ZPoly zpoly_lift(const ZPoly& f) {
  ZPoly r(f.size() * 2, BigInt(0));
  for (std::size_t i = 0; i < f.size(); ++i) r[2 * i] = f[i];
  return r;
}

std::size_t zpoly_max_bitlen(const ZPoly& f) {
  std::size_t m = 0;
  for (const auto& c : f) m = std::max(m, c.bit_length());
  return m;
}

namespace {

// Top-53-bits approximation of c / 2^shift as a double.
double approx_shifted(const BigInt& c, std::size_t shift) {
  if (shift == 0) return c.to_double();
  BigInt t = c;
  t >>= shift;
  return t.to_double();
}

// One Babai round at n == 1: exact nearest-integer quotient.
bool reduce_once_deg1(BigInt& big_f, BigInt& big_g, const BigInt& f, const BigInt& g) {
  const BigInt num = big_f * f + big_g * g;
  const BigInt den = f * f + g * g;
  // k = round(num / den), exact.
  const BigInt two_num = num + num;
  BigInt k = (two_num + den) / (den + den);
  // C-style truncation differs for negatives: recompute via floor-style.
  if (two_num < -den) {
    // floor((2num + den) / (2den)) for negative operands.
    const BigInt d2 = den + den;
    auto [q, r] = BigInt::divmod(two_num + den, d2);
    if (!r.is_zero() && r.is_negative()) q -= BigInt(1);
    k = q;
  }
  if (k.is_zero()) return false;
  big_f -= k * f;
  big_g -= k * g;
  return true;
}

}  // namespace

int zpoly_reduce(ZPoly& big_f, ZPoly& big_g, const ZPoly& f, const ZPoly& g) {
  const std::size_t n = f.size();
  int rounds = 0;

  if (n == 1) {
    while (reduce_once_deg1(big_f[0], big_g[0], f[0], g[0])) {
      if (++rounds > 200) break;
    }
    return rounds;
  }

  const unsigned logn = logn_of(n);
  // FFT of (f, g) at their natural scale, reused every round.
  const std::size_t bl_fg = std::max<std::size_t>(zpoly_max_bitlen(f), zpoly_max_bitlen(g));
  const std::size_t sc_fg = bl_fg > 53 ? bl_fg - 53 : 0;
  std::vector<Fpr> ft(n), gt(n);
  for (std::size_t i = 0; i < n; ++i) {
    ft[i] = Fpr::from_double(approx_shifted(f[i], sc_fg));
    gt[i] = Fpr::from_double(approx_shifted(g[i], sc_fg));
  }
  fft::fft(ft, logn);
  fft::fft(gt, logn);
  // den = f*adj(f) + g*adj(g) (real per slot).
  std::vector<Fpr> den(n);
  {
    auto f2 = ft;
    auto g2 = gt;
    fft::poly_mulselfadj_fft(f2, logn);
    fft::poly_mulselfadj_fft(g2, logn);
    for (std::size_t i = 0; i < n; ++i) den[i] = fpr::fpr_add(f2[i], g2[i]);
  }

  for (;;) {
    const std::size_t bl_FG =
        std::max<std::size_t>(zpoly_max_bitlen(big_f), zpoly_max_bitlen(big_g));
    const std::size_t sc_FG = bl_FG > 53 ? bl_FG - 53 : 0;
    const std::size_t shift = sc_FG > sc_fg ? sc_FG - sc_fg : 0;

    std::vector<Fpr> Ft(n), Gt(n);
    for (std::size_t i = 0; i < n; ++i) {
      Ft[i] = Fpr::from_double(approx_shifted(big_f[i], sc_FG));
      Gt[i] = Fpr::from_double(approx_shifted(big_g[i], sc_FG));
    }
    fft::fft(Ft, logn);
    fft::fft(Gt, logn);

    // num = F*adj(f) + G*adj(g); k = rint(num / den) slot-wise.
    std::vector<Fpr> num(n);
    fft::poly_add_muladj_fft(num, Ft, ft, Gt, gt, logn);
    fft::poly_div_autoadj_fft(num, den, logn);
    fft::ifft(num, logn);

    ZPoly k(n, BigInt(0));
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      const double kv = num[i].to_double();
      // Clamp defensively; the quotient is O(1) at matching scales.
      const double clamped = std::fmin(std::fmax(kv, -1e15), 1e15);
      const std::int64_t ki = std::llrint(clamped);
      if (ki != 0) any = true;
      k[i] = BigInt(ki);
    }
    if (!any) break;

    // (F, G) -= (k * 2^shift) * (f, g).
    ZPoly kf = zpoly_mul(k, f);
    ZPoly kg = zpoly_mul(k, g);
    const std::size_t before = std::max(zpoly_max_bitlen(big_f), zpoly_max_bitlen(big_g));
    for (std::size_t i = 0; i < n; ++i) {
      kf[i] <<= shift;
      kg[i] <<= shift;
      big_f[i] -= kf[i];
      big_g[i] -= kg[i];
    }
    ++rounds;
    const std::size_t after = std::max(zpoly_max_bitlen(big_f), zpoly_max_bitlen(big_g));
    if (after >= before && shift == 0) break;  // no further progress possible
    if (rounds > 2000) break;                  // defensive cap
  }
  return rounds;
}

std::optional<NtruSolution> ntru_solve(const ZPoly& f, const ZPoly& g, std::uint32_t q) {
  const std::size_t n = f.size();
  if (g.size() != n) throw std::invalid_argument("ntru_solve: f and g sizes differ");

  if (n == 1) {
    const auto [d, u, v] = BigInt::xgcd(f[0], g[0]);
    if (d != BigInt(1)) return std::nullopt;
    // u*f + v*g = 1  =>  f*(u*q) - g*(-v*q) = q.
    NtruSolution sol;
    sol.big_g = {u * BigInt(static_cast<std::int64_t>(q))};
    sol.big_f = {-(v * BigInt(static_cast<std::int64_t>(q)))};
    zpoly_reduce(sol.big_f, sol.big_g, f, g);
    return sol;
  }

  const ZPoly fp = zpoly_field_norm(f);
  const ZPoly gp = zpoly_field_norm(g);
  auto sub = ntru_solve(fp, gp, q);
  if (!sub) return std::nullopt;

  // F = F'(x^2) * g(-x);  G = G'(x^2) * f(-x).
  NtruSolution sol;
  sol.big_f = zpoly_mul(zpoly_lift(sub->big_f), zpoly_galois_conjugate(g));
  sol.big_g = zpoly_mul(zpoly_lift(sub->big_g), zpoly_galois_conjugate(f));
  zpoly_reduce(sol.big_f, sol.big_g, f, g);
  return sol;
}

}  // namespace fd::falcon
