#include "falcon/sign.h"
#include "falcon/masked_sign.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/shake256.h"
#include "falcon/sampler.h"
#include "falcon/tree.h"
#include "fft/fft.h"
#include "zq/zq.h"

namespace fd::falcon {

using fpr::Fpr;
using fpr::fpr_add;
using fpr::fpr_mul;
using fpr::fpr_of;
using fpr::fpr_rint;
using fpr::fpr_sub;
using fpr::leak;
using fpr::LeakageTag;

std::vector<std::uint32_t> hash_to_point(std::span<const std::uint8_t> salt,
                                         std::string_view message, unsigned logn) {
  const std::size_t n = std::size_t{1} << logn;
  Shake256 sh;
  sh.inject(salt);
  sh.inject(message);
  sh.flip();
  std::vector<std::uint32_t> c;
  c.reserve(n);
  // One rate-sized squeeze at a time: the squeeze starts block-aligned
  // and the rate is even, so the 16-bit words are the ones
  // extract_u16_be would return.
  std::uint8_t block[Shake256::kRate];
  while (c.size() < n) {
    sh.extract(block);
    for (std::size_t i = 0; i < sizeof block && c.size() < n; i += 2) {
      const std::uint32_t t = (std::uint32_t{block[i]} << 8) | block[i + 1];
      // Rejection bound 61445 = 5 * 12289 keeps the residues unbiased.
      if (t < 61445) c.push_back(t % kQ);
    }
  }
  return c;
}

namespace {

// The paper's target: coefficient-wise multiplication of the secret
// basis row (FFT(-f) or FFT(-F)) by the known FFT(c). The secret operand
// goes FIRST into fpr_mul so its mantissa halves drive the x-side of the
// schoolbook pipeline (see src/fpr/leakage.h); trigger markers bracket
// each complex slot.
void mul_fft_secret_by_known(std::span<Fpr> out, std::span<const Fpr> secret,
                             std::span<const Fpr> known, unsigned logn) {
  const std::size_t hn = std::size_t{1} << (logn - 1);
  for (std::size_t u = 0; u < hn; ++u) {
    leak(LeakageTag::kTriggerBegin, u);
    const Fpr t_rr = fpr_mul(secret[u], known[u]);
    const Fpr t_ii = fpr_mul(secret[u + hn], known[u + hn]);
    const Fpr t_ri = fpr_mul(secret[u], known[u + hn]);
    const Fpr t_ir = fpr_mul(secret[u + hn], known[u]);
    out[u] = fpr_sub(t_rr, t_ii);
    out[u + hn] = fpr_add(t_ri, t_ir);
    leak(LeakageTag::kTriggerEnd, u);
  }
}

// Computes the target vector t = (t0, t1) from the FFT of the hashed
// point; the plain path multiplies the secret rows directly (the
// attacked computation), the masked path goes through sign_masked's
// share splitting.
using TargetFn = void (*)(const SecretKey&, std::span<const Fpr> cf, std::span<Fpr> t0,
                          std::span<Fpr> t1, RandomSource& rng);

void plain_targets(const SecretKey& sk, std::span<const Fpr> cf, std::span<Fpr> t0,
                   std::span<Fpr> t1, RandomSource& /*rng*/) {
  const unsigned logn = sk.params.logn;
  const Fpr inv_q = fpr::fpr_inv(fpr_of(kQ));
  // t0 = -1/q * FFT(c) (.) FFT(F) = 1/q * FFT(c) (.) b11
  // t1 =  1/q * FFT(c) (.) FFT(f) = -1/q * FFT(c) (.) b01
  // (b01 = FFT(-f), b11 = FFT(-F)). The multiplication by the secret
  // row is the attacked computation.
  mul_fft_secret_by_known(t1, sk.b01, cf, logn);
  fft::poly_mulconst(t1, fpr::fpr_neg(inv_q), logn);
  mul_fft_secret_by_known(t0, sk.b11, cf, logn);
  fft::poly_mulconst(t0, inv_q, logn);
}

// The one signing body. A capture run (`capture`) returns right after
// targets(): every trigger window of both basis rows lies behind that
// line and nothing after it opens one, so its salt and windows are those
// of a full run whose first salt passes. It never retries and carries
// no s2.
Signature sign_core(const SecretKey& sk, std::string_view message, RandomSource& rng,
                    TargetFn targets, bool capture) {
  const unsigned logn = sk.params.logn;
  const std::size_t n = sk.params.n;

  // Every attempt works in the same buffers: ten polynomials, then
  // ff_sampling's scratch (a capture run uses the first three only).
  std::vector<Fpr> work(capture ? 3 * n : 10 * n + ff_sampling_scratch(logn));
  const auto poly = [&](std::size_t i) { return std::span<Fpr>(work).subspan(i * n, n); };
  const auto cf = poly(0), t0 = poly(1), t1 = poly(2);
  std::vector<std::int16_t> s2(capture ? 0 : n);

  Signature sig;
  for (int salt_attempt = 0; salt_attempt < 64; ++salt_attempt) {
    rng.fill(sig.salt);
    const auto c = hash_to_point(sig.salt, message, logn);

    // FFT of the hashed point (known to the adversary).
    for (std::size_t i = 0; i < n; ++i) cf[i] = fpr_of(c[i]);
    fft::fft(cf, logn);

    targets(sk, cf, t0, t1, rng);
    if (capture) return sig;

    const auto z0 = poly(3), z1 = poly(4), v0 = poly(5), v1 = poly(6);
    const auto s1f = poly(7), s2f = poly(8), tmp = poly(9);
    const auto ff_tmp = std::span<Fpr>(work).subspan(10 * n);
    SamplerZ samp(sk.params.sigma_min, rng);
    for (int z_attempt = 0; z_attempt < 32; ++z_attempt) {
      ff_sampling(samp, z0, z1, sk.tree, t0, t1, logn, ff_tmp);

      // s = (t - z) * B.
      std::copy(t0.begin(), t0.end(), v0.begin());
      std::copy(t1.begin(), t1.end(), v1.begin());
      fft::poly_sub(v0, z0, logn);
      fft::poly_sub(v1, z1, logn);

      std::copy(v0.begin(), v0.end(), s1f.begin());
      std::copy(v0.begin(), v0.end(), s2f.begin());
      fft::poly_mul_fft(s1f, sk.b00, logn);
      std::copy(v1.begin(), v1.end(), tmp.begin());
      fft::poly_mul_fft(tmp, sk.b10, logn);
      fft::poly_add(s1f, tmp, logn);
      fft::poly_mul_fft(s2f, sk.b01, logn);
      std::copy(v1.begin(), v1.end(), tmp.begin());
      fft::poly_mul_fft(tmp, sk.b11, logn);
      fft::poly_add(s2f, tmp, logn);
      fft::ifft(s1f, logn);
      fft::ifft(s2f, logn);

      std::uint64_t norm_sq = 0;
      bool in_range = true;
      for (std::size_t i = 0; i < n && in_range; ++i) {
        const std::int64_t a = fpr_rint(s1f[i]);
        const std::int64_t b = fpr_rint(s2f[i]);
        in_range = (a > -16384 && a < 16384) && (b > -2048 && b < 2048);
        if (!in_range) break;
        norm_sq += static_cast<std::uint64_t>(a * a) + static_cast<std::uint64_t>(b * b);
        s2[i] = static_cast<std::int16_t>(b);
      }
      if (!in_range || norm_sq > sk.params.bound_sq) continue;
      sig.s2 = std::move(s2);
      return sig;
    }
  }
  throw std::runtime_error("sign: failed to produce a short signature");
}

}  // namespace

Signature sign(const SecretKey& sk, std::string_view message, RandomSource& rng) {
  return sign_core(sk, message, rng, &plain_targets, false);
}

namespace {

// Masked target computation (see masked_sign.h): each secret row b is
// split per query into (m, b - m) with a fresh wide Gaussian mask m, and
// FFT(c) (.) b is evaluated share-wise. Both share multiplications still
// run through the triggered window (the device executes them; they leak
// -- but only mask-randomized values).
void masked_targets(const SecretKey& sk, std::span<const Fpr> cf, std::span<Fpr> t0,
                    std::span<Fpr> t1, RandomSource& rng) {
  const unsigned logn = sk.params.logn;
  const std::size_t n = sk.params.n;
  const Fpr inv_q = fpr::fpr_inv(fpr_of(kQ));
  // Mask scale comparable to the secret-row magnitudes, so shares look
  // like plausible operands and mask/share precision loss is bounded.
  const double mask_sigma =
      12289.0 * std::sqrt(static_cast<double>(n) / 24.0);

  const auto masked_row = [&](std::span<const Fpr> row, std::span<Fpr> out) {
    std::vector<Fpr> mask(n), share(n), partial(n);
    for (std::size_t i = 0; i < n; ++i) {
      mask[i] = Fpr::from_double(rng.gaussian() * mask_sigma);
      share[i] = fpr_sub(row[i], mask[i]);
    }
    mul_fft_secret_by_known(partial, mask, cf, logn);
    mul_fft_secret_by_known(out, share, cf, logn);
    fft::poly_add(out, partial, logn);
  };

  masked_row(sk.b01, t1);
  fft::poly_mulconst(t1, fpr::fpr_neg(inv_q), logn);
  masked_row(sk.b11, t0);
  fft::poly_mulconst(t0, inv_q, logn);
}

}  // namespace

Signature sign_masked(const SecretKey& sk, std::string_view message, RandomSource& rng) {
  return sign_core(sk, message, rng, &masked_targets, false);
}

Signature sign_capture(const SecretKey& sk, std::string_view message, RandomSource& rng,
                       bool masked) {
  return sign_core(sk, message, rng, masked ? &masked_targets : &plain_targets, true);
}

bool verify(const PublicKey& pk, std::string_view message, const Signature& sig) {
  const unsigned logn = pk.params.logn;
  const std::size_t n = pk.params.n;
  if (sig.s2.size() != n) return false;

  const auto c = hash_to_point(sig.salt, message, logn);

  // s1 = c - s2 * h mod q, centered.
  std::vector<std::uint32_t> s2q(n);
  for (std::size_t i = 0; i < n; ++i) s2q[i] = zq::from_signed(sig.s2[i]);
  const auto s2h = zq::poly_mul(s2q, pk.h, logn);

  std::uint64_t norm_sq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t s1 = zq::center(zq::sub(c[i], s2h[i]));
    norm_sq += static_cast<std::uint64_t>(s1 * s1) +
               static_cast<std::uint64_t>(static_cast<std::int64_t>(sig.s2[i]) * sig.s2[i]);
  }
  return norm_sq <= pk.params.bound_sq;
}

}  // namespace fd::falcon
