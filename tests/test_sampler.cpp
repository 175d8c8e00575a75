// Statistical tests for the discrete Gaussian samplers: moments, support,
// and distribution shape against the exact target probabilities.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.h"
#include "falcon/sampler.h"

namespace fd::falcon {
namespace {

TEST(KeygenGaussian, MomentsMatchSigma) {
  for (const double sigma : {1.5, 4.05, 65.0}) {
    KeygenGaussian g(sigma);
    ChaCha20Prng rng(0x6001 + static_cast<std::uint64_t>(sigma * 100));
    constexpr int kDraws = 200000;
    double sum = 0.0;
    double sum2 = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      const double v = g.sample(rng);
      sum += v;
      sum2 += v * v;
    }
    const double mean = sum / kDraws;
    const double var = sum2 / kDraws - mean * mean;
    EXPECT_NEAR(mean, 0.0, 5.0 * sigma / std::sqrt(kDraws)) << "sigma=" << sigma;
    EXPECT_NEAR(var, sigma * sigma, 0.03 * sigma * sigma) << "sigma=" << sigma;
  }
}

TEST(KeygenGaussian, ShapeMatchesDensity) {
  const double sigma = 4.05;
  KeygenGaussian g(sigma);
  ChaCha20Prng rng(0x6002);
  constexpr int kDraws = 400000;
  std::map<int, int> hist;
  for (int i = 0; i < kDraws; ++i) ++hist[g.sample(rng)];
  // chi-square against the discrete Gaussian over |k| <= 8.
  long double total_w = 0.0L;
  for (int k = -60; k <= 60; ++k) total_w += std::exp(-0.5L * k * k / (sigma * sigma));
  double chi2 = 0.0;
  int dof = 0;
  for (int k = -8; k <= 8; ++k) {
    const double p = static_cast<double>(std::exp(-0.5L * k * k / (sigma * sigma)) / total_w);
    const double expect = p * kDraws;
    const double got = hist.count(k) ? hist[k] : 0;
    chi2 += (got - expect) * (got - expect) / expect;
    ++dof;
  }
  // 17 cells: chi2 > 45 has p < 1e-4.
  EXPECT_LT(chi2, 45.0);
}

TEST(SamplerZBase, HalfGaussianSupportAndShape) {
  ChaCha20Prng rng(0x6003);
  SamplerZ s(1.2778, rng);
  constexpr int kDraws = 200000;
  std::map<int, int> hist;
  for (int i = 0; i < kDraws; ++i) {
    const int z = s.base_sampler();
    ASSERT_GE(z, 0);
    ASSERT_LE(z, 20);
    ++hist[z];
  }
  // Ratio hist[1]/hist[0] should match rho(1)/rho(0) = exp(-1/(2*1.8205^2)).
  const double expect_ratio = std::exp(-1.0 / (2.0 * 1.8205 * 1.8205));
  const double got_ratio = static_cast<double>(hist[1]) / hist[0];
  EXPECT_NEAR(got_ratio, expect_ratio, 0.02);
  EXPECT_GT(hist[0], hist[1]);
  EXPECT_GT(hist[1], hist[2]);
}

TEST(SamplerZBase, RcdtEntriesAreTailMasses) {
  // floor(2^72 * P(X > i)) from a 60-digit evaluation of the tail sums:
  // entry 10 is 20680885154302, entry 17 is 1, and every later entry is 0.
  const auto rcdt = detail::rcdt_entries();
  ASSERT_EQ(rcdt.size(), 26U);
  EXPECT_TRUE(rcdt[10] == static_cast<unsigned __int128>(20680885154302ULL));
  EXPECT_TRUE(rcdt[17] == 1);
  for (std::size_t i = 18; i < rcdt.size(); ++i) EXPECT_TRUE(rcdt[i] == 0) << "entry " << i;
  for (std::size_t i = 1; i < rcdt.size(); ++i) {
    EXPECT_TRUE(rcdt[i] <= rcdt[i - 1]) << "entry " << i;
  }
}

TEST(SamplerZ, BerExpProbability) {
  ChaCha20Prng rng(0x6004);
  SamplerZ s(1.2778, rng);
  for (const double x : {0.0, 0.25, 1.0, 3.0}) {
    for (const double ccs : {0.5, 0.9}) {
      constexpr int kDraws = 100000;
      int accepted = 0;
      for (int i = 0; i < kDraws; ++i) {
        accepted += s.ber_exp(fpr::Fpr::from_double(x), fpr::Fpr::from_double(ccs));
      }
      const double expect = ccs * std::exp(-x);
      EXPECT_NEAR(static_cast<double>(accepted) / kDraws, expect,
                  5.0 * std::sqrt(expect * (1 - expect) / kDraws) + 1e-4)
          << "x=" << x << " ccs=" << ccs;
    }
  }
}

TEST(SamplerZ, MomentsAcrossMuSigma) {
  ChaCha20Prng rng(0x6005);
  const double sigma_min = 1.2778;
  SamplerZ s(sigma_min, rng);
  for (const double mu : {0.0, 0.5, -3.7, 127.25}) {
    for (const double sigma : {1.2778, 1.5, 1.8205}) {
      constexpr int kDraws = 60000;
      double sum = 0.0;
      double sum2 = 0.0;
      for (int i = 0; i < kDraws; ++i) {
        const double z = static_cast<double>(
            s.sample(fpr::Fpr::from_double(mu), fpr::Fpr::from_double(sigma)));
        sum += z;
        sum2 += z * z;
      }
      const double mean = sum / kDraws;
      const double var = sum2 / kDraws - mean * mean;
      EXPECT_NEAR(mean, mu, 5.0 * sigma / std::sqrt(kDraws)) << mu << " " << sigma;
      // Discrete Gaussian variance approaches sigma^2 for sigma >~ 1.
      EXPECT_NEAR(var, sigma * sigma, 0.08 * sigma * sigma) << mu << " " << sigma;
    }
  }
}

TEST(SamplerZ, ExactDistributionSmallSigma) {
  // Compare the full histogram to the target discrete Gaussian at
  // mu = 0.3, sigma = 1.35 via chi-square.
  ChaCha20Prng rng(0x6006);
  SamplerZ s(1.2778, rng);
  const double mu = 0.3;
  const double sigma = 1.35;
  constexpr int kDraws = 300000;
  std::map<long, int> hist;
  for (int i = 0; i < kDraws; ++i) {
    ++hist[s.sample(fpr::Fpr::from_double(mu), fpr::Fpr::from_double(sigma))];
  }
  long double total = 0.0L;
  for (int k = -40; k <= 40; ++k) {
    total += std::exp(-0.5L * (k - mu) * (k - mu) / (sigma * sigma));
  }
  double chi2 = 0.0;
  int cells = 0;
  for (int k = -4; k <= 5; ++k) {
    const double p =
        static_cast<double>(std::exp(-0.5L * (k - mu) * (k - mu) / (sigma * sigma)) / total);
    const double expect = p * kDraws;
    if (expect < 20) continue;
    const double got = hist.count(k) ? hist[k] : 0;
    chi2 += (got - expect) * (got - expect) / expect;
    ++cells;
  }
  EXPECT_GE(cells, 6);
  EXPECT_LT(chi2, 40.0);  // generous for ~8 dof
}

}  // namespace
}  // namespace fd::falcon
