// Section V.B countermeasure study: how the attack degrades under
//  - noise amplification (hiding, cheap variant): MTD grows ~ sigma^2;
//  - constant-weight EM (hiding, ideal variant): attack fails outright;
//  - trace misalignment jitter;
// measured as per-component recovery success and sign-bit MTD.

#include <cstdio>

#include "bench_harness.h"
#include "bench_util.h"
#include "falcon/falcon.h"
#include "falcon/masked_sign.h"

using namespace fd;
using namespace fd::bench;

namespace {

constexpr std::size_t kTraces = 12000;
constexpr std::size_t kStep = 500;

struct Row {
  const char* name;
  sca::DeviceConfig dev;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("countermeasures", argc, argv);
  std::printf("== Countermeasures (Section V.B): sign-bit MTD and mantissa recovery ==\n\n");

  const fpr::Fpr secret = fpr::Fpr::from_bits(kPaperCoefficient);
  const auto split = attack::KnownOperand::from(secret);

  std::vector<Row> rows;
  for (const double sigma : {4.0, 12.0, 24.0, 48.0}) {
    Row r{"", {}};
    r.dev.noise_sigma = sigma;
    rows.push_back(r);
  }
  rows[0].name = "noise sigma=4";
  rows[1].name = "noise sigma=12 (baseline)";
  rows[2].name = "noise sigma=24";
  rows[3].name = "noise sigma=48";
  {
    Row r{"hiding: constant-weight", {}};
    r.dev.noise_sigma = 12.0;
    r.dev.constant_weight = true;
    rows.push_back(r);
  }
  {
    Row r{"jitter <= 4 samples", {}};
    r.dev.noise_sigma = 12.0;
    r.dev.jitter_max = 4;
    rows.push_back(r);
  }

  std::printf("%-28s %12s %12s %12s\n", "device", "sign MTD", "mant-add MTD", "x0 recovered");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    bench::WallTimer timer;
    const auto set = synthetic_coefficient_campaign(secret, fpr::Fpr::from_double(7777.25),
                                                    kTraces, rows[i].dev, 9,
                                                    0xC0DE + static_cast<std::uint64_t>(i));
    const auto ds = attack::build_component_dataset(set, false);

    const auto sign_evo = correlation_evolution(
        ds, sca::window::kOffSign, 2,
        [&](std::size_t g, const attack::KnownOperand& k) {
          return attack::hyp_sign(g != 0, k);
        },
        kStep);
    const std::size_t sign_mtd =
        measurements_to_disclosure(sign_evo, secret.sign() ? 1 : 0);

    const std::vector<std::uint32_t> add_guesses = {
        split.y0, (split.y0 << 1) & fpr::kMantLowMask, split.y0 ^ 0x15A5A};
    const auto add_evo = correlation_evolution(
        ds, sca::window::kOffAccZ1a, add_guesses.size(),
        [&](std::size_t g, const attack::KnownOperand& k) {
          return attack::hyp_low_add_z1a(add_guesses[g], k);
        },
        kStep);
    const std::size_t add_mtd = measurements_to_disclosure(add_evo, 0);

    attack::ComponentAttackConfig cac;
    cac.low_candidates = attack::MantissaCandidates::adversarial(split.y0, false, 100, 0x77);
    cac.high_candidates = attack::MantissaCandidates::adversarial(split.y1, true, 100, 0x78);
    const auto comp = attack::attack_component(ds, cac);

    char sign_s[16], add_s[16];
    std::snprintf(sign_s, sizeof sign_s, sign_mtd ? "%zu" : "never", sign_mtd);
    std::snprintf(add_s, sizeof add_s, add_mtd ? "%zu" : "never", add_mtd);
    std::printf("%-28s %12s %12s %12s\n", rows[i].name, sign_s, add_s,
                comp.x0 == split.y0 ? "YES" : "no");
    char params[96];
    std::snprintf(params, sizeof params, "device=%s traces=%zu", rows[i].name, kTraces);
    harness.report("countermeasure_row", params, timer.ms());
  }

  // ---- masking (the countermeasure the paper calls for) ------------------
  std::printf("\n-- two-share additive masking of the t-computation (Sec. V.B) --\n");
  {
    ChaCha20Prng keyrng("masking bench key");
    const auto kp = falcon::keygen(5, keyrng);
    for (const bool masked : {false, true}) {
      bench::WallTimer timer;
      sca::CampaignConfig camp;
      camp.num_traces = 1500;
      camp.device.noise_sigma = 1.0;  // very generous to the attacker
      camp.seed = 0x3A5C + masked;
      camp.masked = masked;
      const auto set = sca::run_signing_campaign(kp.sk, 0, camp);
      const auto truth = kp.sk.b01[0];
      const auto tsplit = attack::KnownOperand::from(truth);
      const auto ds = attack::build_component_dataset(set, false);
      attack::ComponentAttackConfig cac;
      cac.low_candidates = attack::MantissaCandidates::adversarial(tsplit.y0, false, 120, 5);
      cac.high_candidates = attack::MantissaCandidates::adversarial(tsplit.y1, true, 120, 6);
      const auto comp = attack::attack_component(ds, cac);
      std::printf("%-28s mantissa recovered: %-4s prune r = %+.4f\n",
                  masked ? "masked signer" : "plain signer",
                  (comp.x0 == tsplit.y0 && comp.x1 == tsplit.y1) ? "YES" : "no",
                  comp.low_prune.score);
      harness.report(masked ? "masked_signer" : "plain_signer", "logn=5 traces=1500",
                     timer.ms());
    }
  }

  std::printf("\nexpected shape: MTD grows roughly with sigma^2 under noise\n"
              "amplification; constant-weight hiding defeats the attack entirely;\n"
              "small jitter raises MTD but does not stop recovery; two-share\n"
              "masking randomizes every targeted intermediate and the CPA collapses.\n");
  return 0;
}
