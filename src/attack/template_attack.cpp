#include "attack/template_attack.h"

#include <cmath>

#include "common/popcount.h"

namespace fd::attack {

namespace ww = sca::window;
using fpr::Fpr;

// Predicted Hamming weight of each key-dependent event of one mul block,
// for a candidate secret component against a known operand. Offsets not
// modeled (pure-known events, the final result store) return -1.
double template_predicted_hw(std::size_t offset, std::uint64_t bits, const KnownOperand& k) {
  const Fpr cand = Fpr::from_bits(bits);
  const KnownOperand s = KnownOperand::from(cand);
  switch (offset) {
    case ww::kOffSign:
      return hyp_sign(cand.sign(), k);
    case ww::kOffExpX:
      return popcount64(cand.biased_exponent());
    case ww::kOffExpSum:
      return hyp_exponent(cand.biased_exponent(), k);
    case ww::kOffXLo:
      return popcount64(s.y0);
    case ww::kOffXHi:
      return popcount64(s.y1);
    case ww::kOffProdLL:
      return hyp_low_mul_ll(s.y0, k);
    case ww::kOffProdLH:
      return hyp_low_mul_lh(s.y0, k);
    case ww::kOffAccZ1a:
      return hyp_low_add_z1a(s.y0, k);
    case ww::kOffProdHL:
      return hyp_high_mul_hl(s.y1, k);
    case ww::kOffProdHH:
      return hyp_high_mul_hh(s.y1, k);
    case ww::kOffAccZ1b:
      return hyp_high_add_z1b(s.y1, s.y0, k);
    case ww::kOffAccZu:
      return hyp_high_add_zu(s.y1, s.y0, k);
    default:
      return -1.0;
  }
}

namespace {

constexpr std::size_t kModeledOffsets[] = {
    ww::kOffSign, ww::kOffExpX,   ww::kOffExpSum, ww::kOffXLo,    ww::kOffXHi,
    ww::kOffProdLL, ww::kOffProdLH, ww::kOffAccZ1a, ww::kOffProdHL, ww::kOffProdHH,
    ww::kOffAccZ1b, ww::kOffAccZu};

}  // namespace

DeviceProfile profile_device_multi(std::span<const ComponentDataset> dss,
                                   std::span<const Fpr> known_secrets) {
  DeviceProfile prof;
  for (std::size_t off = 0; off < ww::kEventsPerMul; ++off) {
    double sh = 0.0, sh2 = 0.0, st = 0.0, sht = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < dss.size(); ++i) {
      const auto& ds = dss[i];
      for (unsigned v = 0; v < 2; ++v) {
        for (std::size_t t = 0; t < ds.num_traces; ++t) {
          const double h = template_predicted_hw(off, known_secrets[i].bits(), ds.views[v].known[t]);
          if (h < 0.0) continue;
          const double smp = ds.views[v].samples[off][t];
          sh += h;
          sh2 += h * h;
          st += smp;
          sht += h * smp;
          ++count;
        }
      }
    }
    TemplatePoint& p = prof.points[off];
    if (count < 8) continue;
    const double dn = static_cast<double>(count);
    const double var_h = dn * sh2 - sh * sh;
    p.alpha = var_h > 1e-9 ? (dn * sht - sh * st) / var_h : 0.0;
    p.beta = (st - p.alpha * sh) / dn;
    // Residual variance of the fit.
    double rss = 0.0;
    for (std::size_t i = 0; i < dss.size(); ++i) {
      const auto& ds = dss[i];
      for (unsigned v = 0; v < 2; ++v) {
        for (std::size_t t = 0; t < ds.num_traces; ++t) {
          const double h = template_predicted_hw(off, known_secrets[i].bits(), ds.views[v].known[t]);
          if (h < 0.0) continue;
          const double e = ds.views[v].samples[off][t] - (p.alpha * h + p.beta);
          rss += e * e;
        }
      }
    }
    p.sigma = std::sqrt(std::max(rss / dn, 1e-12));
  }
  return prof;
}

DeviceProfile profile_device(const ComponentDataset& ds, Fpr known_secret) {
  return profile_device_multi({&ds, 1}, {&known_secret, 1});
}

double template_log_likelihood(const ComponentDataset& ds, const DeviceProfile& profile,
                               std::uint64_t candidate_bits, std::size_t max_traces) {
  const std::size_t d =
      max_traces == 0 ? ds.num_traces : std::min(max_traces, ds.num_traces);
  double ll = 0.0;
  for (const std::size_t off : kModeledOffsets) {
    const TemplatePoint& p = profile.points[off];
    if (p.alpha == 0.0) continue;
    const double inv2s2 = 1.0 / (2.0 * p.sigma * p.sigma);
    for (unsigned v = 0; v < 2; ++v) {
      for (std::size_t t = 0; t < d; ++t) {
        const double h = template_predicted_hw(off, candidate_bits, ds.views[v].known[t]);
        if (h < 0.0) continue;
        const double e = ds.views[v].samples[off][t] - (p.alpha * h + p.beta);
        ll -= e * e * inv2s2;
      }
    }
  }
  return ll;
}

TemplateAttackResult template_attack_component(const ComponentDataset& ds,
                                               const DeviceProfile& profile,
                                               const ComponentAttackConfig& config) {
  // Stage the search like the non-profiled attack (full joint
  // enumeration is infeasible), but rank every stage by template
  // likelihood restricted to the offsets that the stage's part touches.
  TemplateAttackResult res;

  const auto score_part = [&](std::span<const std::size_t> offsets, auto&& hyp_fn,
                              std::uint64_t guess_count, auto&& guess_at) {
    double best = -1e300;
    std::uint64_t best_guess = 0;
    for (std::uint64_t gi = 0; gi < guess_count; ++gi) {
      const auto guess = guess_at(gi);
      double ll = 0.0;
      for (const std::size_t off : offsets) {
        const TemplatePoint& p = profile.points[off];
        if (p.alpha == 0.0) continue;
        const double inv2s2 = 1.0 / (2.0 * p.sigma * p.sigma);
        for (unsigned v = 0; v < 2; ++v) {
          for (std::size_t t = 0; t < ds.num_traces; ++t) {
            const double h = hyp_fn(guess, ds.views[v].known[t], off);
            const double e = ds.views[v].samples[off][t] - (p.alpha * h + p.beta);
            ll -= e * e * inv2s2;
          }
        }
      }
      if (ll > best) {
        best = ll;
        best_guess = guess;
      }
    }
    return best_guess;
  };

  // Sign.
  {
    const std::size_t offs[] = {ww::kOffSign};
    res.sign = score_part(
                   offs,
                   [](std::uint64_t g, const KnownOperand& k, std::size_t) {
                     return hyp_sign(g != 0, k);
                   },
                   2, [](std::uint64_t i) { return i; }) != 0;
  }
  // Exponent: ExpX (absolute) + ExpSum (relative) jointly -- no aliasing.
  {
    const std::size_t offs[] = {ww::kOffExpX, ww::kOffExpSum};
    res.exponent = static_cast<unsigned>(score_part(
        offs,
        [](std::uint64_t g, const KnownOperand& k, std::size_t off) {
          return off == ww::kOffExpX
                     ? static_cast<double>(popcount64(static_cast<unsigned>(g)))
                     : hyp_exponent(static_cast<unsigned>(g), k);
        },
        config.exp_max - config.exp_min + 1,
        [&](std::uint64_t i) { return config.exp_min + i; }));
  }
  // Mantissa low: products + z1a jointly (extend and prune in one score).
  {
    const std::size_t offs[] = {ww::kOffXLo, ww::kOffProdLL, ww::kOffProdLH, ww::kOffAccZ1a};
    res.x0 = static_cast<std::uint32_t>(score_part(
        offs,
        [](std::uint64_t g, const KnownOperand& k, std::size_t off) {
          const auto x0 = static_cast<std::uint32_t>(g);
          switch (off) {
            case ww::kOffXLo: return static_cast<double>(popcount64(x0));
            case ww::kOffProdLL: return hyp_low_mul_ll(x0, k);
            case ww::kOffProdLH: return hyp_low_mul_lh(x0, k);
            default: return hyp_low_add_z1a(x0, k);
          }
        },
        config.low_candidates.size(),
        [&](std::uint64_t i) { return config.low_candidates[i]; }));
  }
  // Mantissa high: products + z1b + zu jointly, with the recovered x0.
  {
    const std::uint32_t x0 = res.x0;
    const std::size_t offs[] = {ww::kOffXHi, ww::kOffProdHL, ww::kOffProdHH, ww::kOffAccZ1b,
                                ww::kOffAccZu};
    res.x1 = static_cast<std::uint32_t>(score_part(
        offs,
        [x0](std::uint64_t g, const KnownOperand& k, std::size_t off) {
          const auto x1 = static_cast<std::uint32_t>(g);
          switch (off) {
            case ww::kOffXHi: return static_cast<double>(popcount64(x1));
            case ww::kOffProdHL: return hyp_high_mul_hl(x1, k);
            case ww::kOffProdHH: return hyp_high_mul_hh(x1, k);
            case ww::kOffAccZ1b: return hyp_high_add_z1b(x1, x0, k);
            default: return hyp_high_add_zu(x1, x0, k);
          }
        },
        config.high_candidates.size(),
        [&](std::uint64_t i) { return config.high_candidates[i]; }));
  }

  res.bits = assemble_bits(res.sign, res.exponent, res.x1, res.x0);
  res.log_likelihood = template_log_likelihood(ds, profile, res.bits);
  return res;
}

}  // namespace fd::attack
