// The paper's end goal as an integration test: recover the entire
// signing key from EM traces and forge a signature that the victim's
// public key accepts.

#include <gtest/gtest.h>

#include "attack/hypothesis.h"
#include "attack/key_recovery.h"
#include "common/rng.h"
#include "falcon/falcon.h"

namespace fd::attack {
namespace {

TEST(KeyRecovery, FullAttackRecoversKeyAndForges) {
  ChaCha20Prng rng(0xC001);
  const auto victim = falcon::keygen(4, rng);  // n = 16 toy instance

  KeyRecoveryConfig cfg;
  cfg.num_traces = 700;
  cfg.device.noise_sigma = 2.0;
  cfg.adversarial_random = 100;
  cfg.seed = 0xC001;

  const KeyRecoveryResult res = recover_key(victim, cfg);
  EXPECT_EQ(res.components_correct, res.components_total);
  EXPECT_TRUE(res.f_exact);
  EXPECT_EQ(res.recovered_f, victim.sk.f);
  EXPECT_TRUE(res.ntru_solved);
  EXPECT_EQ(res.derived_g, victim.sk.g);
  EXPECT_TRUE(res.forgery_verified);
}

TEST(KeyRecovery, HidingCountermeasureDefeatsAttack) {
  ChaCha20Prng rng(0xC002);
  const auto victim = falcon::keygen(3, rng);

  KeyRecoveryConfig cfg;
  cfg.num_traces = 400;
  cfg.device.noise_sigma = 2.0;
  cfg.device.constant_weight = true;  // Section V.B hiding
  cfg.adversarial_random = 60;
  cfg.seed = 0xC002;

  const KeyRecoveryResult res = recover_key(victim, cfg);
  // With amplitude independent of data, every correlation is noise:
  // component recovery collapses to chance.
  EXPECT_LT(res.components_correct, res.components_total / 2);
  EXPECT_FALSE(res.f_exact);
}

TEST(KeyRecovery, RepairFixesMoreAliasesThanAnyMoveCap) {
  // A FALCON-512 row of otherwise exact components in which every fifth
  // exponent (103 of 512) took its alias 2^24 too large, each
  // component's tie class being {true, alias}. The repair makes one move
  // per alias, so a cap of 64 moves per stage would leave 39 of them.
  ChaCha20Prng rng("repair many aliases");
  const auto victim = falcon::keygen(9, rng);
  const std::size_t n = victim.sk.params.n;
  std::vector<ComponentResult> results(n);
  std::size_t aliased = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const KnownOperand truth = KnownOperand::from(victim.sk.b01[idx]);
    ComponentResult& r = results[idx];
    r.sign = truth.sign;
    r.x0 = truth.y0;
    r.x1 = truth.y1;
    r.exp_phase.top = {{truth.exponent, 1.0}, {truth.exponent + 24, 1.0}};
    r.exponent = idx % 5 == 0 ? truth.exponent + 24 : truth.exponent;
    aliased += r.exponent != truth.exponent;
    r.bits = assemble_bits(r.sign, r.exponent, r.x1, r.x0);
  }
  ASSERT_GT(aliased, 64u);

  const RowAssembly row = assemble_row(results, victim.sk.params.logn, /*row=*/0);
  for (std::size_t idx = 0; idx < n; ++idx) {
    EXPECT_EQ(row.recovered[idx].bits(), victim.sk.b01[idx].bits()) << "component " << idx;
  }
  EXPECT_EQ(row.poly, victim.sk.f);
}

TEST(ForgeKey, RejectsWrongF) {
  ChaCha20Prng rng(0xC003);
  const auto victim = falcon::keygen(4, rng);
  auto wrong_f = victim.sk.f;
  wrong_f[0] += 3;  // g = h*f would have huge coefficients
  EXPECT_FALSE(forge_key(wrong_f, victim.pk).has_value());
}

TEST(ForgeKey, SucceedsWithTrueF) {
  // forge_key re-derives everything from f and the public key alone --
  // the signatures it produces may differ from the victim's (different
  // F, G reduction is possible) but must verify.
  ChaCha20Prng rng(0xC004);
  const auto victim = falcon::keygen(5, rng);
  const auto forged = forge_key(victim.sk.f, victim.pk);
  ASSERT_TRUE(forged.has_value());
  EXPECT_EQ(forged->g, victim.sk.g);
  ChaCha20Prng sig_rng(0x51);
  const auto sig = falcon::sign(*forged, "arbitrary attacker message", sig_rng);
  EXPECT_TRUE(falcon::verify(victim.pk, "arbitrary attacker message", sig));
}

TEST(ForgeKey, ReproducesVictimFGAtLogn9) {
  // NTRUSolve is deterministic in (f, g): the forger's F, G are the
  // victim's own at FALCON-512.
  ChaCha20Prng rng("victim key seed");
  const auto victim = falcon::keygen(9, rng);
  const auto forged = forge_key(victim.sk.f, victim.pk);
  ASSERT_TRUE(forged.has_value());
  EXPECT_EQ(forged->g, victim.sk.g);
  EXPECT_EQ(forged->big_f, victim.sk.big_f);
  EXPECT_EQ(forged->big_g, victim.sk.big_g);
}

TEST(ForgeKey, RejectsFOfWrongLength) {
  ChaCha20Prng rng(0xC005);
  const auto victim = falcon::keygen(4, rng);
  auto short_f = victim.sk.f;
  short_f.pop_back();
  EXPECT_FALSE(forge_key(short_f, victim.pk).has_value());
  auto long_f = victim.sk.f;
  long_f.push_back(0);
  EXPECT_FALSE(forge_key(long_f, victim.pk).has_value());
}

TEST(ForgeKey, RejectsPublicKeyOfWrongLength) {
  ChaCha20Prng rng(0xC006);
  const auto victim = falcon::keygen(4, rng);
  auto pk = victim.pk;
  pk.h.pop_back();
  EXPECT_FALSE(forge_key(victim.sk.f, pk).has_value());
}

}  // namespace
}  // namespace fd::attack
