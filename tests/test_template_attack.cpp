// Profiled template attack (Section V.A extension): profiling accuracy,
// likelihood sanity, and the trace-budget advantage over plain CPA.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "attack/template_attack.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"

namespace fd::attack {
namespace {

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

TEST(TemplateAttack, ProfileRecoversDeviceParameters) {
  const Rig rig = make_rig(3600, 3.0, 0xE001);
  const auto ds = build_component_dataset(rig.clone_set, false);
  const auto prof = profile_device(ds, rig.clone.sk.b01[0]);

  // The device has alpha = 1, beta = 0, sigma = 3 at every point.
  // Slope precision scales with 1/sqrt(Var(h)*N): single-bit offsets
  // (sign) are wobbly, the wide mantissa products are tight. Each slope
  // is held to 0.4 and to five of its own standard errors, whichever is
  // tighter; 3600 traces put the sign's standard error near 0.1, so
  // 0.4 is four of them.
  int fitted = 0;
  for (std::size_t off = 0; off < prof.points.size(); ++off) {
    const auto& p = prof.points[off];
    if (p.alpha == 0.0) continue;  // offsets with constant HW can't fit alpha
    double sum = 0.0, sum_sq = 0.0, count = 0.0;
    for (const auto& view : ds.views) {
      for (std::size_t t = 0; t < ds.num_traces; ++t) {
        const double h = template_predicted_hw(off, rig.clone.sk.b01[0].bits(), view.known[t]);
        if (h < 0.0) continue;
        sum += h;
        sum_sq += h * h;
        count += 1.0;
      }
    }
    const double var_h = sum_sq / count - (sum / count) * (sum / count);
    const double alpha_se = p.sigma / std::sqrt(count * var_h);
    EXPECT_NEAR(p.alpha, 1.0, std::min(0.4, 5.0 * alpha_se)) << "offset " << off;
    EXPECT_NEAR(p.beta, 0.0, 6.0);
    EXPECT_NEAR(p.sigma, 3.0, 0.8);
    ++fitted;
  }
  EXPECT_GE(fitted, 8);
  const auto& prod = prof.points[sca::window::kOffProdLL];
  EXPECT_NEAR(prod.alpha, 1.0, 0.1);
  EXPECT_NEAR(prod.sigma, 3.0, 0.3);
}

TEST(TemplateAttack, TruthMaximizesLikelihood) {
  const Rig rig = make_rig(500, 2.0, 0xE002);
  const auto clone_ds = build_component_dataset(rig.clone_set, false);
  const auto prof = profile_device(clone_ds, rig.clone.sk.b01[0]);

  const auto victim_ds = build_component_dataset(rig.victim_set, false);
  const Fpr truth = rig.victim.sk.b01[0];
  const double ll_true = template_log_likelihood(victim_ds, prof, truth.bits());
  // Perturbations in any field lose likelihood.
  EXPECT_GT(ll_true, template_log_likelihood(victim_ds, prof, truth.bits() ^ (1ULL << 63)));
  EXPECT_GT(ll_true, template_log_likelihood(victim_ds, prof, truth.bits() + (1ULL << 52)));
  EXPECT_GT(ll_true, template_log_likelihood(victim_ds, prof, truth.bits() ^ 0x5A5AULL));
  EXPECT_GT(ll_true, template_log_likelihood(victim_ds, prof, truth.bits() ^ (1ULL << 30)));
}

TEST(TemplateAttack, RecoversComponentCrossDevice) {
  const Rig rig = make_rig(800, 2.0, 0xE003);
  const auto clone_ds = build_component_dataset(rig.clone_set, false);
  const auto prof = profile_device(clone_ds, rig.clone.sk.b01[0]);

  const auto victim_ds = build_component_dataset(rig.victim_set, false);
  const Fpr truth = rig.victim.sk.b01[0];
  const auto split = KnownOperand::from(truth);

  ComponentAttackConfig cac;
  cac.low_candidates = MantissaCandidates::adversarial(split.y0, false, 120, 0xE003);
  cac.high_candidates = MantissaCandidates::adversarial(split.y1, true, 120, 0xE004);
  const auto res = template_attack_component(victim_ds, prof, cac);

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
  const auto prof = profile_device(clone_ds, rig.clone.sk.b01[0]);

  const auto victim_ds = build_component_dataset(rig.victim_set, false);
  const Fpr truth = rig.victim.sk.b01[0];
  const auto split = KnownOperand::from(truth);

  ComponentAttackConfig cac;
  cac.low_candidates = MantissaCandidates::adversarial(split.y0, false, 80, 1);
  cac.high_candidates = MantissaCandidates::adversarial(split.y1, true, 80, 2);

  const auto tmpl = template_attack_component(victim_ds, prof, cac);
  EXPECT_EQ(tmpl.bits, truth.bits());

  // CPA at the same budget returns a multi-member exponent tie class.
  const auto cpa = attack_component(victim_ds, cac);
  EXPECT_GE(cpa.exp_phase.top.size(), 2U);
}

}  // namespace
}  // namespace fd::attack
