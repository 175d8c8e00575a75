// Profiled template attack (Section V.A extension) on the pooled-covariance
// backend: profiling accuracy, likelihood sanity, and the trace-budget
// advantage over plain CPA.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "distinguisher/component_scorer.h"
#include "distinguisher/pooled_profile.h"
#include "distinguisher/template_backend.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"

namespace fd::distinguisher {
namespace {

using attack::build_component_dataset;
using attack::ComponentAttackConfig;
using attack::ComponentDataset;
using attack::KnownOperand;
using attack::MantissaCandidates;
using fpr::Fpr;

struct Rig {
  falcon::KeyPair clone;   // profiling device: key known to the adversary
  falcon::KeyPair victim;  // target device: same physics, unknown key
  sca::TraceSet clone_set;
  sca::TraceSet victim_set;
};

Rig make_rig(std::size_t traces, double noise, std::uint64_t seed) {
  Rig rig;
  ChaCha20Prng rng_a(seed);
  ChaCha20Prng rng_b(seed ^ 0xFFFF);
  rig.clone = falcon::keygen(4, rng_a);
  rig.victim = falcon::keygen(4, rng_b);

  sca::CampaignConfig cfg;
  cfg.num_traces = traces;
  cfg.device.noise_sigma = noise;
  cfg.seed = seed + 1;
  rig.clone_set = sca::run_signing_campaign(rig.clone.sk, 0, cfg);
  cfg.seed = seed + 2;
  rig.victim_set = sca::run_signing_campaign(rig.victim.sk, 0, cfg);
  return rig;
}

// Mean per-trace joint log-likelihood of each full 64-bit candidate over
// every modeled offset: one TemplateDistinguisher, one guess per candidate.
std::vector<double> pooled_log_likelihoods(const ComponentDataset& ds,
                                           const PooledProfile& prof,
                                           const std::vector<std::uint64_t>& candidates) {
  std::vector<std::size_t> offs;
  std::vector<double> alpha, beta;
  for (std::size_t off = 0; off < PooledProfile::kDim; ++off) {
    if (!prof.modeled[off]) continue;
    offs.push_back(off);
    alpha.push_back(prof.alpha[off]);
    beta.push_back(prof.beta[off]);
  }
  TemplateDistinguisher dist(candidates.size(), alpha, beta, phase_precision(prof, offs));
  const std::size_t c_ = offs.size();
  std::vector<double> hyps(candidates.size() * c_);
  std::vector<float> smp(c_);
  for (const auto& view : ds.views) {
    for (std::size_t t = 0; t < ds.num_traces; ++t) {
      for (std::size_t g = 0; g < candidates.size(); ++g) {
        for (std::size_t c = 0; c < c_; ++c) {
          hyps[g * c_ + c] = template_predicted_hw(offs[c], candidates[g], view.known[t]);
        }
      }
      for (std::size_t c = 0; c < c_; ++c) smp[c] = view.samples[offs[c]][t];
      const TraceObservation obs{hyps, smp};
      dist.observe({&obs, 1});
    }
  }
  std::vector<double> ll(candidates.size());
  for (std::size_t g = 0; g < candidates.size(); ++g) ll[g] = dist.score(g);
  return ll;
}

TEST(TemplateAttack, ProfileRecoversDeviceParameters) {
  const Rig rig = make_rig(3600, 3.0, 0xE001);
  const auto ds = build_component_dataset(rig.clone_set, false);
  const Fpr known = rig.clone.sk.b01[0];
  const auto prof = profile_pooled({&ds, 1}, {&known, 1}, /*ridge=*/0.0);
  const auto sigma = [&](std::size_t off) {
    return std::sqrt(prof.cov[off * PooledProfile::kDim + off]);
  };

  // The device has alpha = 1, beta = 0, sigma = 3 at every point.
  // Slope precision scales with 1/sqrt(Var(h)*N): single-bit offsets
  // (sign) are wobbly, the wide mantissa products are tight. Each slope
  // is held to 0.4 and to five of its own standard errors, whichever is
  // tighter; 3600 traces put the sign's standard error near 0.1, so
  // 0.4 is four of them.
  int fitted = 0;
  for (std::size_t off = 0; off < PooledProfile::kDim; ++off) {
    if (!prof.modeled[off]) continue;  // offsets with constant HW can't fit alpha
    double sum = 0.0, sum_sq = 0.0, count = 0.0;
    for (const auto& view : ds.views) {
      for (std::size_t t = 0; t < ds.num_traces; ++t) {
        const double h = template_predicted_hw(off, known.bits(), view.known[t]);
        if (h < 0.0) continue;
        sum += h;
        sum_sq += h * h;
        count += 1.0;
      }
    }
    const double var_h = sum_sq / count - (sum / count) * (sum / count);
    const double alpha_se = sigma(off) / std::sqrt(count * var_h);
    EXPECT_NEAR(prof.alpha[off], 1.0, std::min(0.4, 5.0 * alpha_se)) << "offset " << off;
    EXPECT_NEAR(prof.beta[off], 0.0, 6.0);
    EXPECT_NEAR(sigma(off), 3.0, 0.8);
    ++fitted;
  }
  EXPECT_GE(fitted, 8);
  EXPECT_NEAR(prof.alpha[sca::window::kOffProdLL], 1.0, 0.1);
  EXPECT_NEAR(sigma(sca::window::kOffProdLL), 3.0, 0.3);
}

TEST(TemplateAttack, TruthMaximizesLikelihood) {
  const Rig rig = make_rig(500, 2.0, 0xE002);
  const auto clone_ds = build_component_dataset(rig.clone_set, false);
  const Fpr known = rig.clone.sk.b01[0];
  const auto prof = profile_pooled({&clone_ds, 1}, {&known, 1});

  const auto victim_ds = build_component_dataset(rig.victim_set, false);
  const std::uint64_t truth = rig.victim.sk.b01[0].bits();
  // Perturbations in any field lose likelihood.
  const auto ll = pooled_log_likelihoods(
      victim_ds, prof,
      {truth, truth ^ (1ULL << 63), truth + (1ULL << 52), truth ^ 0x5A5AULL, truth ^ (1ULL << 30)});
  for (std::size_t g = 1; g < ll.size(); ++g) EXPECT_GT(ll[0], ll[g]) << "perturbation " << g;
}

TEST(TemplateAttack, RecoversComponentCrossDevice) {
  const Rig rig = make_rig(800, 2.0, 0xE003);
  const auto clone_ds = build_component_dataset(rig.clone_set, false);
  const Fpr known = rig.clone.sk.b01[0];
  const auto scorer = make_template_scorer({&clone_ds, 1}, {&known, 1});

  const auto victim_ds = build_component_dataset(rig.victim_set, false);
  const Fpr truth = rig.victim.sk.b01[0];
  const auto split = KnownOperand::from(truth);

  ComponentAttackConfig cac;
  cac.low_candidates = MantissaCandidates::adversarial(split.y0, false, 120, 0xE003);
  cac.high_candidates = MantissaCandidates::adversarial(split.y1, true, 120, 0xE004);
  const auto res = scorer->attack(victim_ds, cac);

  EXPECT_EQ(res.sign, truth.sign());
  EXPECT_EQ(res.exponent, truth.biased_exponent());  // ExpX+ExpSum: no aliasing
  EXPECT_EQ(res.x0, split.y0);
  EXPECT_EQ(res.x1, split.y1);
  EXPECT_EQ(res.bits, truth.bits());
}

TEST(TemplateAttack, BeatsCpaAtLowTraceCount) {
  // With few traces and higher noise, the joint-likelihood attack should
  // recover the exponent exactly where plain CPA still faces its alias
  // ties -- the quantitative Section V.A point.
  const Rig rig = make_rig(700, 4.0, 0xE005);
  const auto clone_ds = build_component_dataset(rig.clone_set, false);
  const Fpr known = rig.clone.sk.b01[0];
  const auto scorer = make_template_scorer({&clone_ds, 1}, {&known, 1});

  const auto victim_ds = build_component_dataset(rig.victim_set, false);
  const Fpr truth = rig.victim.sk.b01[0];
  const auto split = KnownOperand::from(truth);

  ComponentAttackConfig cac;
  cac.low_candidates = MantissaCandidates::adversarial(split.y0, false, 80, 1);
  cac.high_candidates = MantissaCandidates::adversarial(split.y1, true, 80, 2);

  const auto tmpl = scorer->attack(victim_ds, cac);
  EXPECT_EQ(tmpl.bits, truth.bits());

  // CPA at the same budget returns a multi-member exponent tie class.
  const auto cpa = attack::attack_component(victim_ds, cac);
  EXPECT_GE(cpa.exp_phase.top.size(), 2U);
}

}  // namespace
}  // namespace fd::distinguisher
