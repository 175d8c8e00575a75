// Masked signing (Section V.B countermeasure): correctness (signatures
// remain valid) and effectiveness (the paper's attack collapses against
// the masked target computation).

#include <gtest/gtest.h>

#include "attack/extend_prune.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "falcon/masked_sign.h"
#include "sca/campaign.h"

namespace fd::falcon {
namespace {

class MaskedSignParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(MaskedSignParam, MaskedSignaturesVerify) {
  const unsigned logn = GetParam();
  ChaCha20Prng rng(0xD100 + logn);
  const KeyPair kp = keygen(logn, rng);
  for (int i = 0; i < 3; ++i) {
    const std::string msg = "masked message " + std::to_string(i);
    const Signature sig = sign_masked(kp.sk, msg, rng);
    EXPECT_TRUE(verify(kp.pk, msg, sig)) << msg;
    EXPECT_FALSE(verify(kp.pk, msg + "x", sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MaskedSignParam, ::testing::Values(3U, 5U, 7U));

TEST(MaskedSign, NormQualityComparableToPlain) {
  // Masking perturbs t by rounding of the shares; the signature norm
  // distribution must stay essentially unchanged.
  ChaCha20Prng rng(0xD200);
  const KeyPair kp = keygen(5, rng);
  auto norm_of = [&](const Signature& sig, std::string_view msg) {
    // Recompute full norm via verification internals: accept implies
    // norm <= bound; compare s2 norms as a proxy.
    std::uint64_t n2 = 0;
    for (const auto c : sig.s2) n2 += static_cast<std::uint64_t>(c) * c;
    (void)msg;
    return n2;
  };
  std::uint64_t plain_sum = 0;
  std::uint64_t masked_sum = 0;
  constexpr int kReps = 12;
  for (int i = 0; i < kReps; ++i) {
    plain_sum += norm_of(sign(kp.sk, "norm probe", rng), "norm probe");
    masked_sum += norm_of(sign_masked(kp.sk, "norm probe", rng), "norm probe");
  }
  const double ratio =
      static_cast<double>(masked_sum) / static_cast<double>(plain_sum);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(MaskedSign, SharesChangePerQuery) {
  // Two masked signings of the same message leak different window
  // values (fresh masks), unlike the plain signer whose secret operands
  // repeat.
  ChaCha20Prng rng(0xD300);
  const KeyPair kp = keygen(4, rng);

  sca::CampaignConfig cfg;
  cfg.num_traces = 6;
  cfg.device.noise_sigma = 0.0;
  cfg.masked = true;
  const auto set = sca::run_signing_campaign(kp.sk, 0, cfg);

  // With zero noise, the x-operand events (secret share) must differ
  // across traces: compare the X_LO sample column.
  const auto ds = attack::build_component_dataset(set, false);
  int distinct = 0;
  for (std::size_t t = 1; t < ds.num_traces; ++t) {
    distinct += ds.views[0].samples[sca::window::kOffXLo][t] !=
                ds.views[0].samples[sca::window::kOffXLo][0];
  }
  EXPECT_GE(distinct, 4);
}

TEST(MaskedSign, DefeatsComponentAttack) {
  ChaCha20Prng rng(0xD400);
  const KeyPair kp = keygen(4, rng);

  sca::CampaignConfig cfg;
  cfg.num_traces = 800;
  cfg.device.noise_sigma = 1.0;  // generous to the attacker
  cfg.seed = 0xD400;
  cfg.masked = true;
  const auto set = sca::run_signing_campaign(kp.sk, 1, cfg);

  const auto truth = kp.sk.b01[1];
  const auto split = attack::KnownOperand::from(truth);
  const auto ds = attack::build_component_dataset(set, false);

  attack::ComponentAttackConfig cac;
  cac.low_candidates = attack::MantissaCandidates::adversarial(split.y0, false, 120, 3);
  cac.high_candidates = attack::MantissaCandidates::adversarial(split.y1, true, 120, 4);
  const auto r = attack::attack_component(ds, cac);

  // The mask randomizes every targeted intermediate: mantissa recovery
  // must fail (the candidate sets contain the truth, so a success would
  // have to come from actual leakage, not chance: P(both halves) ~ 1e-4).
  EXPECT_FALSE(r.x0 == split.y0 && r.x1 == split.y1);
  // And the prune-phase correlation collapses towards noise.
  EXPECT_LT(r.low_prune.score, 0.2);
}

}  // namespace
}  // namespace fd::falcon
