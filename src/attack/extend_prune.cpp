#include "attack/extend_prune.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/span.h"

namespace fd::attack {

namespace ww = sca::window;

ComponentScorer::~ComponentScorer() = default;

ComponentDataset build_component_dataset(const sca::TraceSet& set, bool imag_part,
                                         std::size_t max_traces) {
  const std::size_t d =
      max_traces == 0 ? set.traces.size() : std::min(max_traces, set.traces.size());
  ComponentDataset ds;
  ds.num_traces = d;
  for (unsigned v = 0; v < 2; ++v) {
    const std::size_t base = ww::mul_base(
        static_cast<unsigned>(ww::mul_block_for(imag_part, v)));
    auto& view = ds.views[v];
    view.known.reserve(d);
    view.samples.assign(ww::kEventsPerMul, std::vector<float>(d));
    for (std::size_t t = 0; t < d; ++t) {
      const auto& ct = set.traces[t];
      // Known operand of this block: re*re and im*im use matching parts,
      // re*im and im*re the crossed ones -- encoded in mul_block_for:
      // blocks 0/1 use (re, im) known respectively, blocks 2/3 crossed.
      const std::size_t block = ww::mul_block_for(imag_part, v);
      const fpr::Fpr known =
          (block == 0 || block == 3) ? ct.known_re : ct.known_im;
      view.known.push_back(KnownOperand::from(known));
      for (std::size_t s = 0; s < ww::kEventsPerMul; ++s) {
        view.samples[s][t] = ct.trace.samples[base + s];
      }
    }
  }
  return ds;
}

std::vector<std::uint32_t> MantissaCandidates::adversarial(std::uint32_t truth, bool high,
                                                           std::size_t random_count,
                                                           std::uint64_t seed) {
  const std::uint32_t lo_bound = high ? (1U << 27) : 0;
  const std::uint32_t hi_bound = high ? (1U << 28) : (1U << 25);
  const auto in_range = [&](std::uint32_t v) { return v >= lo_bound && v < hi_bound; };

  std::set<std::uint32_t> cand;
  const auto add_shift_family = [&](std::uint32_t v) {
    cand.insert(v);
    for (int k = 1; k <= 6; ++k) {
      const std::uint64_t left = static_cast<std::uint64_t>(v) << k;
      if (left < hi_bound && in_range(static_cast<std::uint32_t>(left))) {
        cand.insert(static_cast<std::uint32_t>(left));
      }
      const std::uint32_t right = v >> k;
      // Only exact shifts (no bits dropped) reproduce the Hamming weight.
      if ((static_cast<std::uint64_t>(right) << k) == v && in_range(right)) {
        cand.insert(right);
      }
    }
  };
  add_shift_family(truth);

  ChaCha20Prng rng(seed);
  while (cand.size() < random_count + 1) {
    const std::uint32_t v =
        lo_bound + static_cast<std::uint32_t>(rng.uniform(hi_bound - lo_bound));
    add_shift_family(v);
  }
  return {cand.begin(), cand.end()};
}

namespace {

// One phase's scan: a sample column per (view, offset) pair, view-major,
// under the config's kernel and guess-space sharding.
StreamingScan phase_scan(const ComponentDataset& ds, std::span<const std::size_t> offsets,
                         const ComponentAttackConfig& config) {
  std::vector<std::vector<float>> cols;
  for (unsigned v = 0; v < 2; ++v) {
    for (const std::size_t off : offsets) cols.push_back(ds.views[v].samples[off]);
  }
  StreamingScan scan(std::move(cols), config.kernel);
  scan.set_parallelism(config.cpa_shards, config.scan_pool);
  return scan;
}

PhaseOutcome phase_outcome(std::vector<StreamingScan::Scored> top) {
  PhaseOutcome out;
  out.top = std::move(top);
  if (!out.top.empty()) {
    out.value = out.top[0].guess;
    out.score = out.top[0].score;
  }
  return out;
}

// A phase whose leakage model is model_for_offset(guess, known, offset).
PhaseOutcome run_scan(const ComponentDataset& ds, std::span<const std::size_t> offsets,
                      std::span<const std::uint32_t> candidates, std::size_t keep,
                      const ComponentAttackConfig& config, auto&& model_for_offset) {
  const StreamingScan scan = phase_scan(ds, offsets, config);
  std::vector<std::pair<unsigned, std::size_t>> col_meta;  // (view, offset) per column
  for (unsigned v = 0; v < 2; ++v) {
    for (const std::size_t off : offsets) col_meta.emplace_back(v, off);
  }
  auto model = [&](std::uint32_t guess, std::size_t t, std::size_t c) {
    const auto [view, off] = col_meta[c];
    return model_for_offset(guess, ds.views[view].known[t], off);
  };
  return phase_outcome(scan.top_k_list(candidates, model, keep));
}

// An extend phase: the partial products x*y0 / x*y1 as a ProductModel,
// one multiplier column per scan column (ProdLL/ProdHL multiply by the
// known y0 half, ProdLH/ProdHH by y1). Scores `candidates`, or the whole
// space [lo, hi) when empty -- scanned as a range, so the 2^25 / 2^27
// guesses are never materialized.
PhaseOutcome run_extend(const ComponentDataset& ds, std::span<const std::size_t> offsets,
                        std::span<const std::uint32_t> candidates, std::uint32_t lo,
                        std::uint32_t hi, std::size_t keep, const ComponentAttackConfig& config) {
  const StreamingScan scan = phase_scan(ds, offsets, config);
  ProductModel model;
  model.multipliers.reserve(2 * offsets.size() * ds.num_traces);
  for (unsigned v = 0; v < 2; ++v) {
    for (const std::size_t off : offsets) {
      const bool y0_half = off == ww::kOffProdLL || off == ww::kOffProdHL;
      for (const KnownOperand& k : ds.views[v].known) {
        model.multipliers.push_back(y0_half ? k.y0 : k.y1);
      }
    }
  }
  return phase_outcome(candidates.empty() ? scan.top_k(lo, hi, model, keep)
                                          : scan.top_k_list(candidates, model, keep));
}

// One "ep.phase" event per pipeline stage: how many candidates went in,
// how many survived the keep cut, and the winner. The kept/pruned split
// also feeds the global attack.ep.* counters.
void note_phase(const ComponentAttackConfig& config, std::string_view phase,
                std::size_t candidates_in, const PhaseOutcome& out) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("attack.ep.candidates").add(candidates_in);
  reg.counter("attack.ep.pruned").add(candidates_in - out.top.size());
  if (obs::sink() == nullptr) return;
  obs::event("ep.phase")
      .with("label", config.obs_label)
      .with("phase", phase)
      .with("candidates_in", candidates_in)
      .with("kept", out.top.size())
      .with("value", out.value)
      .with("score", out.score)
      .emit();
}

}  // namespace

LinearCalibration calibrate_device(const ComponentDataset& ds) {
  // Regress trace samples against the Hamming weights of events whose
  // values the adversary fully knows: the known-operand mantissa splits
  // and exponent (offsets YLo/YHi/ExpY). No key material involved.
  double sh = 0.0, sh2 = 0.0, st = 0.0, sht = 0.0;
  std::size_t count = 0;
  for (unsigned v = 0; v < 2; ++v) {
    const auto& view = ds.views[v];
    for (std::size_t t = 0; t < ds.num_traces; ++t) {
      const KnownOperand& k = view.known[t];
      const double hws[3] = {static_cast<double>(std::popcount(k.y0)),
                             static_cast<double>(std::popcount(k.y1)),
                             static_cast<double>(std::popcount(k.exponent))};
      const std::size_t offs[3] = {ww::kOffYLo, ww::kOffYHi, ww::kOffExpY};
      for (int i = 0; i < 3; ++i) {
        const double h = hws[i];
        const double s = view.samples[offs[i]][t];
        sh += h;
        sh2 += h * h;
        st += s;
        sht += h * s;
        ++count;
      }
    }
  }
  const double dn = static_cast<double>(count);
  const double var_h = dn * sh2 - sh * sh;
  LinearCalibration cal;
  cal.alpha = var_h > 0.0 ? (dn * sht - sh * st) / var_h : 0.0;
  cal.beta = (st - cal.alpha * sh) / dn;
  return cal;
}

std::uint64_t assemble_bits(bool sign, unsigned exponent, std::uint32_t x1, std::uint32_t x0) {
  const std::uint64_t mant53 =
      (static_cast<std::uint64_t>(x1) << fpr::kMantLowBits) | x0;
  return (static_cast<std::uint64_t>(sign) << 63) |
         (static_cast<std::uint64_t>(exponent & 0x7FF) << 52) |
         (mant53 & 0x000FFFFFFFFFFFFFULL);
}

PhaseOutcome attack_low_mul_only(const ComponentDataset& ds,
                                 std::span<const std::uint32_t> candidates, std::size_t keep) {
  const std::size_t offsets[] = {ww::kOffProdLL, ww::kOffProdLH};
  return run_extend(ds, offsets, candidates, 0, 0, keep, ComponentAttackConfig{});
}

ComponentResult attack_component(const ComponentDataset& ds,
                                 const ComponentAttackConfig& config) {
  // Pluggable-backend dispatch: a configured scorer replaces the CPA
  // staging below wholesale (it emits its own spans/phase events). The
  // default null scorer IS the CPA backend -- zero behavior change.
  if (config.scorer != nullptr) return config.scorer->attack(ds, config);
  obs::Span span("attack.component");
  ComponentResult res;

  // 1. Sign: two guesses on the XOR event.
  {
    const std::size_t offsets[] = {ww::kOffSign};
    const std::uint32_t guesses[] = {0, 1};
    res.sign_phase = run_scan(ds, offsets, guesses, 2, config,
                              [](std::uint32_t g, const KnownOperand& k, std::size_t) {
                                return hyp_sign(g != 0, k);
                              });
    res.sign = res.sign_phase.value != 0;
    note_phase(config, "sign", 2, res.sign_phase);
  }

  // 2. Exponent: enumeration of the plausible window on the
  // exponent-sum addition, then alias-tie resolution by the magnitude
  // prior (see ComponentAttackConfig::exp_min).
  {
    const std::size_t offsets[] = {ww::kOffExpSum};
    std::vector<std::uint32_t> guesses;
    guesses.reserve(config.exp_max - config.exp_min + 1);
    for (std::uint32_t e = config.exp_min; e <= config.exp_max; ++e) guesses.push_back(e);
    res.exp_phase = run_scan(ds, offsets, guesses, guesses.size(), config,
                             [](std::uint32_t g, const KnownOperand& k, std::size_t) {
                               return hyp_exponent(g, k);
                             });
    // Keep only the tie class, then prefer the guess nearest the prior.
    const double eps =
        config.exp_tie_epsilon >= 0.0
            ? config.exp_tie_epsilon
            : std::max(1e-6, 4.0 / std::sqrt(static_cast<double>(ds.num_traces)));
    const double best = res.exp_phase.top.empty() ? 0.0 : res.exp_phase.top[0].score;
    std::uint32_t pick = res.exp_phase.value;
    std::vector<StreamingScan::Scored> ties;
    for (const auto& s : res.exp_phase.top) {
      if (s.score >= best - eps) ties.push_back(s);
    }
    // Tie resolution: Pearson is blind to affine prediction shifts, but
    // the aliases DO predict different absolute per-trace amplitudes.
    // With the device gain/offset self-calibrated from known-value
    // events, template-match each tie member: pick the guess minimizing
    // the per-trace squared error against alpha*h + beta.
    const LinearCalibration cal = calibrate_device(ds);
    if (std::fabs(cal.alpha) > 1e-6) {
      double best_sse = 1e300;
      for (const auto& s : ties) {
        double sse = 0.0;
        for (unsigned v = 0; v < 2; ++v) {
          // The exponent-sum addition (per-trace varying) plus the
          // secret-exponent register load (constant Hamming weight --
          // invisible to Pearson, decisive for the template).
          const auto& col_sum = ds.views[v].samples[ww::kOffExpSum];
          const auto& col_x = ds.views[v].samples[ww::kOffExpX];
          const double pred_x =
              cal.alpha * std::popcount(s.guess) + cal.beta;
          for (std::size_t t = 0; t < ds.num_traces; ++t) {
            const double pred_sum =
                cal.alpha * hyp_exponent(s.guess, ds.views[v].known[t]) + cal.beta;
            const double e1 = col_sum[t] - pred_sum;
            const double e2 = col_x[t] - pred_x;
            sse += e1 * e1 + e2 * e2;
          }
        }
        if (sse < best_sse) {
          best_sse = sse;
          pick = s.guess;
        }
      }
    } else {
      // Degenerate calibration (e.g. a hiding countermeasure): fall back
      // to the magnitude prior.
      for (const auto& s : ties) {
        const auto dist = [&](std::uint32_t e) {
          return e > config.exp_prior ? e - config.exp_prior : config.exp_prior - e;
        };
        if (dist(s.guess) < dist(pick)) pick = s.guess;
      }
    }
    res.exp_phase.top = std::move(ties);
    res.exp_phase.value = pick;
    res.exponent = pick;
    note_phase(config, "exponent", guesses.size(), res.exp_phase);
  }

  // 3. Mantissa low half: extend on the partial products (empty
  // low_candidates: all 2^25 guesses)...
  {
    const std::size_t mul_offsets[] = {ww::kOffProdLL, ww::kOffProdLH};
    res.low_extend = run_extend(ds, mul_offsets, config.low_candidates, 0, 1U << 25,
                                config.extend_top_k, config);
    note_phase(config, "low_extend",
               config.low_candidates.empty() ? std::size_t{1} << 25
                                             : config.low_candidates.size(),
               res.low_extend);

    // ...prune on the z1a addition over the surviving top-K.
    std::vector<std::uint32_t> survivors;
    survivors.reserve(res.low_extend.top.size());
    for (const auto& s : res.low_extend.top) survivors.push_back(s.guess);
    const std::size_t add_offsets[] = {ww::kOffAccZ1a};
    res.low_prune = run_scan(ds, add_offsets, survivors, survivors.size(), config,
                             [](std::uint32_t g, const KnownOperand& k, std::size_t) {
                               return hyp_low_add_z1a(g, k);
                             });
    res.x0 = res.low_prune.value;
    note_phase(config, "low_prune", survivors.size(), res.low_prune);
  }

  // 4. Mantissa high half: same extend-and-prune with the recovered x0
  // (empty high_candidates: all 2^27 guesses with the top bit set).
  {
    const std::size_t mul_offsets[] = {ww::kOffProdHL, ww::kOffProdHH};
    res.high_extend = run_extend(ds, mul_offsets, config.high_candidates, 1U << 27, 1U << 28,
                                 config.extend_top_k, config);
    note_phase(config, "high_extend",
               config.high_candidates.empty() ? std::size_t{1} << 27
                                              : config.high_candidates.size(),
               res.high_extend);

    std::vector<std::uint32_t> survivors;
    survivors.reserve(res.high_extend.top.size());
    for (const auto& s : res.high_extend.top) survivors.push_back(s.guess);
    const std::size_t add_offsets[] = {ww::kOffAccZ1b, ww::kOffAccZu};
    const std::uint32_t x0 = res.x0;
    res.high_prune = run_scan(ds, add_offsets, survivors, survivors.size(), config,
                              [x0](std::uint32_t g, const KnownOperand& k, std::size_t off) {
                                return off == ww::kOffAccZu ? hyp_high_add_zu(g, x0, k)
                                                            : hyp_high_add_z1b(g, x0, k);
                              });
    res.x1 = res.high_prune.value;
    note_phase(config, "high_prune", survivors.size(), res.high_prune);
  }

  res.bits = assemble_bits(res.sign, res.exponent, res.x1, res.x0);
  if (obs::sink() != nullptr) {
    obs::event("ep.component")
        .with("label", config.obs_label)
        .with("traces", ds.num_traces)
        .with("bits", res.bits)
        .with("wall_us", span.elapsed_us())
        .emit();
  }
  return res;
}

}  // namespace fd::attack
