#include "falcon/keygen.h"

#include <cmath>
#include <stdexcept>

#include "falcon/ntru_solve.h"
#include "falcon/sampler.h"
#include "falcon/tree.h"
#include "fft/fft.h"
#include "zq/zq.h"

namespace fd::falcon {

using fpr::Fpr;

namespace {

fft::PolyFft to_fft(std::span<const std::int32_t> poly, unsigned logn, bool negate = false) {
  fft::PolyFft r(poly.size());
  for (std::size_t i = 0; i < poly.size(); ++i) {
    r[i] = fpr::fpr_of(negate ? -static_cast<std::int64_t>(poly[i]) : poly[i]);
  }
  fft::fft(r, logn);
  return r;
}

// Squared Gram-Schmidt quality gamma^2 = (1.17^2) * q; keys whose first
// or orthogonalized basis vector exceed it are rejected (spec 3.8.2).
constexpr double kGammaSq = 1.17 * 1.17 * static_cast<double>(kQ);

bool gram_schmidt_checks(std::span<const std::int32_t> f, std::span<const std::int32_t> g,
                         unsigned logn) {
  // First vector: ||(g, -f)||^2 <= gamma^2.
  double norm1 = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    norm1 += static_cast<double>(f[i]) * f[i] + static_cast<double>(g[i]) * g[i];
  }
  if (norm1 > kGammaSq) return false;

  // Orthogonalized vector: || q * (adj f, adj g) / (f adj f + g adj g) ||^2.
  const std::size_t n = f.size();
  auto ft = to_fft(f, logn);
  auto gt = to_fft(g, logn);
  std::vector<Fpr> inv_norm(n);
  fft::poly_invnorm2_fft(inv_norm, ft, gt, logn);
  fft::poly_adj_fft(ft, logn);
  fft::poly_adj_fft(gt, logn);
  fft::poly_mulconst(ft, fpr::fpr_of(kQ), logn);
  fft::poly_mulconst(gt, fpr::fpr_of(kQ), logn);
  fft::poly_mul_autoadj_fft(ft, inv_norm, logn);
  fft::poly_mul_autoadj_fft(gt, inv_norm, logn);
  fft::ifft(ft, logn);
  fft::ifft(gt, logn);
  double norm2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    norm2 += ft[i].to_double() * ft[i].to_double() + gt[i].to_double() * gt[i].to_double();
  }
  return norm2 <= kGammaSq;
}

std::vector<std::uint32_t> to_zq(std::span<const std::int32_t> poly) {
  std::vector<std::uint32_t> r(poly.size());
  for (std::size_t i = 0; i < poly.size(); ++i) r[i] = zq::from_signed(poly[i]);
  return r;
}

}  // namespace

bool ntru_equation_holds(std::span<const std::int32_t> f, std::span<const std::int32_t> g,
                         std::span<const std::int32_t> big_f,
                         std::span<const std::int32_t> big_g) {
  const std::size_t n = f.size();
  if (g.size() != n || big_f.size() != n || big_g.size() != n || n == 0) return false;
  constexpr std::int64_t kMaxFG = std::int64_t{1} << 30;
  std::int64_t l1_f = 0, l1_g = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::llabs(big_f[i]) >= kMaxFG || std::llabs(big_g[i]) >= kMaxFG) return false;
    l1_f += std::llabs(f[i]);
    l1_g += std::llabs(g[i]);
    if (l1_f >= kMaxFG * 2 || l1_g >= kMaxFG * 2) return false;
  }
  // Every partial sum is at most (l1_f + l1_g) * 2^30 < 2^62 in magnitude.
  std::vector<std::int64_t> r(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t fi = f[i], gi = g[i];
    for (std::size_t j = 0; j < n - i; ++j) r[i + j] += fi * big_g[j] - gi * big_f[j];
    for (std::size_t j = n - i; j < n; ++j) r[i + j - n] -= fi * big_g[j] - gi * big_f[j];
  }
  if (r[0] != static_cast<std::int64_t>(kQ)) return false;
  for (std::size_t i = 1; i < n; ++i) {
    if (r[i] != 0) return false;
  }
  return true;
}

bool compute_public_key(PublicKey& pk, std::span<const std::int32_t> f,
                        std::span<const std::int32_t> g, unsigned logn) {
  const auto inv_f = zq::poly_inverse(to_zq(f), logn);
  if (inv_f.empty()) return false;
  pk.params = Params::get(logn);
  pk.h = zq::poly_mul(to_zq(g), inv_f, logn);
  return true;
}

bool expand_secret_key(SecretKey& sk) {
  const unsigned logn = sk.params.logn;
  const std::size_t n = sk.params.n;
  if (sk.f.size() != n || sk.g.size() != n || sk.big_f.size() != n || sk.big_g.size() != n) {
    return false;
  }

  // Basis rows in FFT representation: [[g, -f], [G, -F]].
  sk.b00 = to_fft(sk.g, logn);
  sk.b01 = to_fft(sk.f, logn, /*negate=*/true);
  sk.b10 = to_fft(sk.big_g, logn);
  sk.b11 = to_fft(sk.big_f, logn, /*negate=*/true);

  // Gram matrix G = B B*.
  std::vector<Fpr> g00(n), g01(n), g11(n);
  {
    auto t = sk.b00;
    fft::poly_mulselfadj_fft(t, logn);
    g00 = t;
    t = sk.b01;
    fft::poly_mulselfadj_fft(t, logn);
    fft::poly_add(g00, t, logn);

    g01 = sk.b00;
    fft::poly_muladj_fft(g01, sk.b10, logn);
    t = sk.b01;
    fft::poly_muladj_fft(t, sk.b11, logn);
    fft::poly_add(g01, t, logn);

    g11 = sk.b10;
    fft::poly_mulselfadj_fft(g11, logn);
    t = sk.b11;
    fft::poly_mulselfadj_fft(t, logn);
    fft::poly_add(g11, t, logn);
  }

  sk.tree.assign(tree_size(logn), fpr::kZero);
  ffldl_build(sk.tree, g00, g01, g11, logn);
  normalize_tree_leaves(sk.tree, logn, Fpr::from_double(sk.params.sigma));

  const LeafRange range = tree_leaf_range(sk.tree, logn);
  return range.min_value >= sk.params.sigma_min * 0.99 &&
         range.max_value <= sk.params.sigma_max * 1.01;
}

KeyPair keygen(unsigned logn, RandomSource& rng) {
  const Params params = Params::get(logn);
  const KeygenGaussian gauss(params.sigma_fg);

  for (int attempt = 0; attempt < 1000; ++attempt) {
    KeyPair kp;
    kp.sk.params = params;
    kp.sk.f.assign(params.n, 0);
    kp.sk.g.assign(params.n, 0);
    gauss.sample_poly(rng, kp.sk.f);
    gauss.sample_poly(rng, kp.sk.g);

    if (!gram_schmidt_checks(kp.sk.f, kp.sk.g, logn)) continue;
    if (!zq::poly_invertible(to_zq(kp.sk.f), logn)) continue;

    // Solve the NTRU equation.
    ZPoly zf(params.n), zg(params.n);
    for (std::size_t i = 0; i < params.n; ++i) {
      zf[i] = BigInt(kp.sk.f[i]);
      zg[i] = BigInt(kp.sk.g[i]);
    }
    auto sol = ntru_solve(zf, zg, kQ);
    if (!sol) continue;

    // F, G must fit comfortably in int32; then f*G - g*F == q exactly.
    bool small = true;
    for (std::size_t i = 0; i < params.n && small; ++i) {
      small = sol->big_f[i].fits_int64() && sol->big_g[i].fits_int64() &&
              std::llabs(sol->big_f[i].to_int64()) < (1LL << 30) &&
              std::llabs(sol->big_g[i].to_int64()) < (1LL << 30);
    }
    if (!small) continue;
    kp.sk.big_f.resize(params.n);
    kp.sk.big_g.resize(params.n);
    for (std::size_t i = 0; i < params.n; ++i) {
      kp.sk.big_f[i] = static_cast<std::int32_t>(sol->big_f[i].to_int64());
      kp.sk.big_g[i] = static_cast<std::int32_t>(sol->big_g[i].to_int64());
    }
    // The Gram-Schmidt check bounds ||(f, g)||^2 below 2^15, so the
    // coefficient sums of f and g stay far below the int64 guard.
    if (!ntru_equation_holds(kp.sk.f, kp.sk.g, kp.sk.big_f, kp.sk.big_g)) continue;

    if (!compute_public_key(kp.pk, kp.sk.f, kp.sk.g, logn)) continue;
    if (!expand_secret_key(kp.sk)) continue;
    return kp;
  }
  throw std::runtime_error("keygen: could not generate a key (should not happen)");
}

}  // namespace fd::falcon
