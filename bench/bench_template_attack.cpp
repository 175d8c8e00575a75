// Section V.A extension, quantified: the profiled backends of the
// distinguisher engine vs. the paper's non-profiled CPA, as a function
// of the trace budget. A clone device (attacker-chosen keys) provides
// the profiling data; every backend then attacks the same victim
// coefficient with a sweep of trace counts:
//
//   cpa        the paper's Pearson staging (attack_component)
//   template   pooled-covariance joint templates (src/distinguisher)
//   lr         learned logistic-regression heads (src/distinguisher)
//
// With --json, each backend's first fully-recovering budget lands as a
// {"ev":"mtd"} row, so fd-report renders this bench and bench_mtd as
// one scenario x backend traces-to-disclosure matrix.

#include <cmath>
#include <cstdio>

#include "bench_harness.h"
#include "bench_util.h"
#include "distinguisher/component_scorer.h"
#include "falcon/falcon.h"

using namespace fd;
using namespace fd::bench;

int main(int argc, char** argv) {
  Harness harness("template_attack", argc, argv);
  std::printf("== Profiled backends vs non-profiled CPA (Sec. V.A) ==\n\n");

  constexpr double kNoise = 11.0;
  constexpr std::size_t kMaxTraces = 12000;
  char params[96];
  std::snprintf(params, sizeof params, "max_traces=%zu noise=%.0f", kMaxTraces, kNoise);
  WallTimer timer;

  // Profiling rig: clone device, several known coefficients (spreading
  // sign/exponent values so every template offset gets variance).
  const fpr::Fpr clone_secrets[3] = {fpr::Fpr::from_bits(0xC0E53A2F9B7C6D5EULL),
                                     fpr::Fpr::from_bits(0x40B1122334455667ULL),
                                     fpr::Fpr::from_bits(0xC07FEDCBA9876543ULL)};
  sca::DeviceConfig dev;
  dev.noise_sigma = kNoise;
  std::vector<attack::ComponentDataset> clone_dss;
  for (int i = 0; i < 3; ++i) {
    const auto clone_set = synthetic_coefficient_campaign(
        clone_secrets[i], fpr::Fpr::from_double(4242.5), 2000, dev, 9,
        0x7E41 + static_cast<std::uint64_t>(i));
    clone_dss.push_back(attack::build_component_dataset(clone_set, false));
  }
  const distinguisher::TemplateScorer pooled(
      distinguisher::profile_pooled(clone_dss, clone_secrets));
  const auto lr =
      distinguisher::make_lr_scorer(clone_dss, clone_secrets, distinguisher::BackendSelection{});
  harness.report("profile_clone", params, timer.ms());
  timer.reset();
  constexpr std::size_t kProdLL = sca::window::kOffProdLL;
  const auto& profile = pooled.profile();
  std::printf("profiled on a clone device: alpha=%.3f beta=%.3f sigma=%.3f (ProdLL)\n\n",
              profile.alpha[kProdLL], profile.beta[kProdLL],
              std::sqrt(profile.cov[kProdLL * distinguisher::PooledProfile::kDim + kProdLL]));

  // Victim rig: the paper's coefficient.
  const fpr::Fpr secret = fpr::Fpr::from_bits(kPaperCoefficient);
  const auto split = attack::KnownOperand::from(secret);
  const auto victim_set = synthetic_coefficient_campaign(
      secret, fpr::Fpr::from_double(-31337.75), kMaxTraces, dev, 9, 0x7E42);

  attack::ComponentAttackConfig cac;
  cac.low_candidates = attack::MantissaCandidates::adversarial(split.y0, false, 150, 0x7E43);
  cac.high_candidates = attack::MantissaCandidates::adversarial(split.y1, true, 150, 0x7E44);

  const auto ok4 = [&](const auto& r, bool out[4]) {
    out[0] = r.sign == secret.sign();
    out[1] = r.exponent == secret.biased_exponent();
    out[2] = r.x0 == split.y0;
    out[3] = r.x1 == split.y1;
    return out[0] && out[1] && out[2] && out[3];
  };
  const auto cell = [](const bool ok[4], char* buf, std::size_t len) {
    std::snprintf(buf, len, "%s %s %s %s", ok[0] ? "OK" : "-", ok[1] ? "OK" : "-",
                  ok[2] ? "OK" : "-", ok[3] ? "OK" : "-");
  };

  std::printf("%-8s | %-14s | %-14s | %-14s\n", "traces", "cpa", "template", "lr");
  std::printf("%-8s | %-14s | %-14s | %-14s\n", "", "sign exp x0 x1", "sign exp x0 x1",
              "sign exp x0 x1");
  std::size_t full_cpa = 0, full_pool = 0, full_lr = 0;
  for (const std::size_t d : {250UL, 500UL, 1000UL, 2000UL, 4000UL, 8000UL, 12000UL}) {
    const auto ds = attack::build_component_dataset(victim_set, false, d);

    bool c_ok[4], t_ok[4], l_ok[4];
    const bool c_full = ok4(attack::attack_component(ds, cac), c_ok);
    const bool t_full = ok4(pooled.attack(ds, cac), t_ok);
    const bool l_full = ok4(lr->attack(ds, cac), l_ok);

    char cb[20], tb[20], lb[20];
    cell(c_ok, cb, sizeof cb);
    cell(t_ok, tb, sizeof tb);
    cell(l_ok, lb, sizeof lb);
    std::printf("%-8zu | %-14s | %-14s | %-14s\n", d, cb, tb, lb);
    if (full_cpa == 0 && c_full) full_cpa = d;
    if (full_pool == 0 && t_full) full_pool = d;
    if (full_lr == 0 && l_full) full_lr = d;
  }

  std::printf("\nfull coefficient first recovered: cpa %zu, template %zu, lr %zu\n", full_cpa,
              full_pool, full_lr);
  std::printf("(the paper: 'it is possible to extend our attack by template ...\n"
              " profiling techniques'. Measured: the profiled backends resolve the\n"
              " exponent without the Pearson alias repair and the pooled joint\n"
              " covariance squeezes every modeled event into the prune pick,\n"
              " matching or beating the unprofiled trace budget.)\n");
  const auto as_mtd = [](std::size_t full) { return full == 0 ? -1L : static_cast<long>(full); };
  harness.mtd("paper-coeff-sigma11", "cpa", as_mtd(full_cpa));
  harness.mtd("paper-coeff-sigma11", "template", as_mtd(full_pool));
  harness.mtd("paper-coeff-sigma11", "lr", as_mtd(full_lr));
  harness.report("budget_sweep", params, timer.ms());
  return 0;
}
