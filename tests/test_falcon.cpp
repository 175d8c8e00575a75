// End-to-end FALCON: keygen invariants, sign/verify round trips,
// signature non-malleability, tree properties, hash-to-point behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "falcon/falcon.h"
#include "falcon/ntru_solve.h"
#include "zq/zq.h"

namespace fd::falcon {
namespace {

class FalconParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(FalconParam, KeygenInvariants) {
  const unsigned logn = GetParam();
  ChaCha20Prng rng(0x8000 + logn);
  const KeyPair kp = keygen(logn, rng);
  const std::size_t n = kp.sk.params.n;

  ASSERT_EQ(kp.sk.f.size(), n);
  ASSERT_EQ(kp.pk.h.size(), n);

  // NTRU equation f*G - g*F == q over Z[x]/(x^n+1).
  ZPoly zf(n), zg(n), zF(n), zG(n);
  for (std::size_t i = 0; i < n; ++i) {
    zf[i] = BigInt(kp.sk.f[i]);
    zg[i] = BigInt(kp.sk.g[i]);
    zF[i] = BigInt(kp.sk.big_f[i]);
    zG[i] = BigInt(kp.sk.big_g[i]);
  }
  const ZPoly lhs = zpoly_sub(zpoly_mul(zf, zG), zpoly_mul(zg, zF));
  EXPECT_EQ(lhs[0], BigInt(12289));
  for (std::size_t i = 1; i < n; ++i) EXPECT_TRUE(lhs[i].is_zero());

  // h * f == g mod q.
  std::vector<std::uint32_t> fq(n), gq(n);
  for (std::size_t i = 0; i < n; ++i) {
    fq[i] = zq::from_signed(kp.sk.f[i]);
    gq[i] = zq::from_signed(kp.sk.g[i]);
  }
  EXPECT_EQ(zq::poly_mul(kp.pk.h, fq, logn), gq);

  // Tree leaves (sigmas) must lie in the sampler's admissible range.
  const LeafRange r = tree_leaf_range(kp.sk.tree, logn);
  EXPECT_GE(r.min_value, kp.sk.params.sigma_min * 0.99);
  EXPECT_LE(r.max_value, kp.sk.params.sigma_max * 1.01);
}

TEST_P(FalconParam, SignVerifyRoundTrip) {
  const unsigned logn = GetParam();
  ChaCha20Prng rng(0x8100 + logn);
  const KeyPair kp = keygen(logn, rng);

  for (const std::string_view msg : {"", "hello falcon", "a slightly longer message body"}) {
    const Signature sig = sign(kp.sk, msg, rng);
    EXPECT_TRUE(verify(kp.pk, msg, sig)) << "msg='" << msg << "'";
    EXPECT_FALSE(verify(kp.pk, "tampered", sig));
  }
}

TEST_P(FalconParam, SignatureNormIsTight) {
  // Accepted signatures should use a decent fraction of the bound --
  // a sanity check that ffSampling produces Gaussian-quality vectors,
  // not just barely-valid ones.
  const unsigned logn = GetParam();
  ChaCha20Prng rng(0x8200 + logn);
  const KeyPair kp = keygen(logn, rng);
  const Signature sig = sign(kp.sk, "norm check", rng);

  const auto c = hash_to_point(sig.salt, "norm check", logn);
  std::vector<std::uint32_t> s2q(kp.pk.h.size());
  for (std::size_t i = 0; i < s2q.size(); ++i) s2q[i] = zq::from_signed(sig.s2[i]);
  const auto s2h = zq::poly_mul(s2q, kp.pk.h, logn);
  std::uint64_t norm_sq = 0;
  for (std::size_t i = 0; i < s2q.size(); ++i) {
    const std::int64_t s1 = zq::center(zq::sub(c[i], s2h[i]));
    norm_sq += static_cast<std::uint64_t>(s1 * s1) +
               static_cast<std::uint64_t>(static_cast<std::int64_t>(sig.s2[i]) * sig.s2[i]);
  }
  EXPECT_LE(norm_sq, kp.pk.params.bound_sq);
  // Expected norm ~ 2n sigma^2; bound is (1.1)^2x that. Require above
  // a loose floor to catch degenerate (all-zero-ish) signatures.
  EXPECT_GT(norm_sq, kp.pk.params.bound_sq / 10);
}

TEST_P(FalconParam, TamperedSignatureRejected) {
  const unsigned logn = GetParam();
  ChaCha20Prng rng(0x8300 + logn);
  const KeyPair kp = keygen(logn, rng);
  Signature sig = sign(kp.sk, "tamper", rng);

  Signature bad = sig;
  bad.s2[0] = static_cast<std::int16_t>(bad.s2[0] + 1);
  // A one-off change keeps the norm nearly identical but breaks
  // s1 = c - s2 h by a huge amount (h is dense).
  EXPECT_FALSE(verify(kp.pk, "tamper", bad));

  Signature bad_salt = sig;
  bad_salt.salt[0] ^= 1;
  EXPECT_FALSE(verify(kp.pk, "tamper", bad_salt));
}

INSTANTIATE_TEST_SUITE_P(ToySizes, FalconParam, ::testing::Values(2U, 3U, 4U, 5U, 6U));

TEST(Falcon, DistinctSaltsPerSignature) {
  ChaCha20Prng rng(0x8400);
  const KeyPair kp = keygen(4, rng);
  const Signature a = sign(kp.sk, "same message", rng);
  const Signature b = sign(kp.sk, "same message", rng);
  EXPECT_NE(std::memcmp(a.salt, b.salt, kSaltBytes), 0);
  EXPECT_TRUE(verify(kp.pk, "same message", a));
  EXPECT_TRUE(verify(kp.pk, "same message", b));
}

TEST(Falcon, HashToPointProperties) {
  const std::uint8_t salt_a[kSaltBytes] = {1};
  const std::uint8_t salt_b[kSaltBytes] = {2};
  const auto c1 = hash_to_point(salt_a, "msg", 6);
  const auto c2 = hash_to_point(salt_a, "msg", 6);
  const auto c3 = hash_to_point(salt_b, "msg", 6);
  const auto c4 = hash_to_point(salt_a, "msh", 6);
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, c3);
  EXPECT_NE(c1, c4);
  for (const auto v : c1) EXPECT_LT(v, 12289U);
}

TEST(Falcon, HashToPointIsUniformish) {
  // Mean of uniform [0, q) is ~q/2; check over many coefficients.
  std::uint8_t salt[kSaltBytes] = {42};
  double sum = 0.0;
  std::size_t count = 0;
  for (int i = 0; i < 64; ++i) {
    salt[1] = static_cast<std::uint8_t>(i);
    for (const auto v : hash_to_point(salt, "uniformity", 6)) {
      sum += v;
      ++count;
    }
  }
  EXPECT_NEAR(sum / static_cast<double>(count), 12289.0 / 2.0,
              5.0 * 12289.0 / std::sqrt(12.0 * static_cast<double>(count)));
}

TEST(Falcon, ExpandSecretKeyRejectsGarbage) {
  // A "secret key" with nonsense polynomials must fail the leaf-sigma
  // range check instead of producing a broken signer.
  SecretKey sk;
  sk.params = Params::get(4);
  sk.f.assign(16, 0);
  sk.g.assign(16, 0);
  sk.big_f.assign(16, 0);
  sk.big_g.assign(16, 0);
  sk.f[0] = 1;  // f = 1, g = 0: Gram matrix is singular-ish
  EXPECT_FALSE(expand_secret_key(sk));
}

TEST(Falcon, ExpandSecretKeyRejectsWrongSizes) {
  ChaCha20Prng rng(0x8501);
  const auto kp = keygen(4, rng);
  for (auto member : {&SecretKey::f, &SecretKey::g, &SecretKey::big_f, &SecretKey::big_g}) {
    SecretKey sk = kp.sk;
    (sk.*member).pop_back();
    EXPECT_FALSE(expand_secret_key(sk));
  }
  SecretKey sk = kp.sk;
  EXPECT_TRUE(expand_secret_key(sk));
}

TEST(Falcon, CrossKeyVerificationFails) {
  ChaCha20Prng rng(0x8500);
  const KeyPair kp1 = keygen(4, rng);
  const KeyPair kp2 = keygen(4, rng);
  const Signature sig = sign(kp1.sk, "cross", rng);
  EXPECT_TRUE(verify(kp1.pk, "cross", sig));
  EXPECT_FALSE(verify(kp2.pk, "cross", sig));
}

}  // namespace
}  // namespace fd::falcon
