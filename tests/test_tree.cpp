// ffLDL* tree and ffSampling properties: the LDL identity, tree layout
// invariants, leaf statistics, and the Gaussian quality of the sampled
// lattice points.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "falcon/falcon.h"
#include "fft/fft.h"

namespace fd::falcon {
namespace {

using fpr::Fpr;

TEST(Tree, SizeFormula) {
  EXPECT_EQ(tree_size(0), 1U);
  EXPECT_EQ(tree_size(1), 4U);
  EXPECT_EQ(tree_size(2), 12U);
  EXPECT_EQ(tree_size(9), 10U << 9);
  // Recurrence: size(l) = 2^l + 2 * size(l-1).
  for (unsigned l = 1; l <= 10; ++l) {
    EXPECT_EQ(tree_size(l), (std::size_t{1} << l) + 2 * tree_size(l - 1));
  }
}

TEST(Tree, LdlReconstructsGram) {
  // poly_ldl_fft: G = L D L* with L = [[1,0],[l10,1]], D = diag(g00, d11).
  // Check the identities g01 == l10 * g00 and g11 == d11 + |l10|^2 g00.
  ChaCha20Prng rng(0xF001);
  const unsigned logn = 5;
  const std::size_t n = 32;
  const std::size_t hn = 16;

  // Build a Hermitian-positive Gram from a random basis row pair.
  std::vector<Fpr> a(n), b(n);
  for (auto& c : a) c = Fpr::from_double(rng.gaussian() * 10.0);
  for (auto& c : b) c = Fpr::from_double(rng.gaussian() * 10.0);
  fft::fft(a, logn);
  fft::fft(b, logn);
  std::vector<Fpr> g00(a), g01(a), g11(b);
  fft::poly_mulselfadj_fft(g00, logn);
  {
    auto t = b;
    fft::poly_mulselfadj_fft(t, logn);
    fft::poly_add(g00, t, logn);  // g00 = |a|^2 + |b|^2 (positive)
  }
  fft::poly_muladj_fft(g01, b, logn);  // g01 = a * adj(b)
  fft::poly_mulselfadj_fft(g11, logn); // g11 = |b|^2
  const auto g01_orig = g01;
  const auto g11_orig = g11;

  fft::poly_ldl_fft(g00, g01, g11, logn);  // g01 := l10, g11 := d11

  for (std::size_t u = 0; u < hn; ++u) {
    // Stored value is L10 = adj(g01)/g00 (the lower-left entry of L for
    // a Hermitian Gram with G10 = adj(G01)); g00 is real per slot.
    const double g00_re = g00[u].to_double();
    const double tol = 1e-5 * std::fabs(g01_orig[u].to_double()) +
                       1e-5 * std::fabs(g01_orig[u + hn].to_double()) + 1e-9;
    EXPECT_NEAR(g01[u].to_double() * g00_re, g01_orig[u].to_double(), tol);
    EXPECT_NEAR(g01[u + hn].to_double() * g00_re, -g01_orig[u + hn].to_double(), tol);
    // d11 + |l10|^2 g00 == g11_orig.
    const double l2 = g01[u].to_double() * g01[u].to_double() +
                      g01[u + hn].to_double() * g01[u + hn].to_double();
    EXPECT_NEAR(g11[u].to_double() + l2 * g00_re, g11_orig[u].to_double(),
                1e-5 * std::fabs(g11_orig[u].to_double()) + 1e-8);
  }
}

TEST(Tree, LeafRangeMatchesNormalization) {
  ChaCha20Prng rng(0xF002);
  const auto kp = keygen(5, rng);
  const LeafRange r = tree_leaf_range(kp.sk.tree, 5);
  // Leaves are sigma / sqrt(d): all within the SamplerZ-admissible band.
  EXPECT_GE(r.min_value, kp.sk.params.sigma_min * 0.99);
  EXPECT_LE(r.max_value, kp.sk.params.sigma_max * 1.01);
  EXPECT_LT(r.min_value, r.max_value);
}

TEST(Tree, FfSamplingCloseToTarget) {
  // z = ffSampling(t) is an integer lattice point near t: in coefficient
  // space, each |z_i - t_i| should be O(sigma_leaf), not O(n).
  ChaCha20Prng rng(0xF003);
  const auto kp = keygen(5, rng);
  const unsigned logn = 5;
  const std::size_t n = 32;

  std::vector<Fpr> t0(n), t1(n);
  for (auto& c : t0) c = Fpr::from_double(rng.gaussian() * 20.0);
  for (auto& c : t1) c = Fpr::from_double(rng.gaussian() * 20.0);
  fft::fft(t0, logn);
  fft::fft(t1, logn);

  SamplerZ samp(kp.sk.params.sigma_min, rng);
  std::vector<Fpr> z0(n), z1(n), tmp(ff_sampling_scratch(logn));
  ff_sampling(samp, z0, z1, kp.sk.tree, t0, t1, logn, tmp);

  // Back to coefficient domain: z must be (numerically) integral.
  auto z0c = z0;
  auto z1c = z1;
  fft::ifft(z0c, logn);
  fft::ifft(z1c, logn);
  auto t0c = t0;
  auto t1c = t1;
  fft::ifft(t0c, logn);
  fft::ifft(t1c, logn);
  double max_dev = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [zv, tv] : {std::pair{z0c[i], t0c[i]}, std::pair{z1c[i], t1c[i]}}) {
      const double z = zv.to_double();
      EXPECT_NEAR(z, std::nearbyint(z), 1e-6);
      max_dev = std::max(max_dev, std::fabs(z - tv.to_double()));
    }
  }
  // Within ~8 "sigmas" of the per-coordinate Gaussian (sigma <= 1.82,
  // but coordinates mix through the basis: allow a wide constant).
  EXPECT_LT(max_dev, 40.0);
}

TEST(Tree, FfSamplingIsRandomized) {
  ChaCha20Prng rng(0xF004);
  const auto kp = keygen(4, rng);
  const std::size_t n = 16;
  std::vector<Fpr> t0(n, fpr::kZero), t1(n, fpr::kZero);

  SamplerZ samp(kp.sk.params.sigma_min, rng);
  std::vector<Fpr> a0(n), a1(n), b0(n), b1(n), tmp(ff_sampling_scratch(4));
  ff_sampling(samp, a0, a1, kp.sk.tree, t0, t1, 4, tmp);
  ff_sampling(samp, b0, b1, kp.sk.tree, t0, t1, 4, tmp);
  bool differs = false;
  for (std::size_t i = 0; i < n; ++i) {
    differs = differs || !(a0[i] == b0[i]) || !(a1[i] == b1[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(Tree, ExpandedKeysAreDeterministic) {
  // expand_secret_key is a pure function of (f, g, F, G).
  ChaCha20Prng rng(0xF005);
  const auto kp = keygen(4, rng);
  SecretKey copy;
  copy.params = kp.sk.params;
  copy.f = kp.sk.f;
  copy.g = kp.sk.g;
  copy.big_f = kp.sk.big_f;
  copy.big_g = kp.sk.big_g;
  ASSERT_TRUE(expand_secret_key(copy));
  for (std::size_t i = 0; i < copy.tree.size(); ++i) {
    EXPECT_EQ(copy.tree[i].bits(), kp.sk.tree[i].bits()) << i;
  }
  for (std::size_t i = 0; i < copy.b01.size(); ++i) {
    EXPECT_EQ(copy.b01[i].bits(), kp.sk.b01[i].bits());
  }
}

}  // namespace
}  // namespace fd::falcon
