#include "attack/extend_prune.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <string>

#include "common/popcount.h"
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

  // Sorted and unique, like a std::set, without a node per candidate.
  std::vector<std::uint32_t> cand;
  cand.reserve(random_count + 14);  // the last family adds at most 13
  const auto insert = [&cand](std::uint32_t v) {
    const auto it = std::lower_bound(cand.begin(), cand.end(), v);
    if (it == cand.end() || *it != v) cand.insert(it, v);
  };
  const auto add_shift_family = [&](std::uint32_t v) {
    insert(v);
    for (int k = 1; k <= 6; ++k) {
      const std::uint64_t left = static_cast<std::uint64_t>(v) << k;
      if (left < hi_bound && in_range(static_cast<std::uint32_t>(left))) {
        insert(static_cast<std::uint32_t>(left));
      }
      const std::uint32_t right = v >> k;
      // Only exact shifts (no bits dropped) reproduce the Hamming weight.
      if ((static_cast<std::uint64_t>(right) << k) == v && in_range(right)) {
        insert(right);
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
  return cand;
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

// Scores `candidates`, or the whole space [lo, hi) when empty -- scanned
// as a range, so the extend phases' 2^25 / 2^27 guesses are never
// materialized -- against the phase's hypotheses as data: one column per
// (view, offset) pair in phase_scan's order, whose leak kind and
// per-trace operands fill(column, offset, known) sets from the view's
// known operands.
PhaseOutcome run_phase(const ComponentDataset& ds, std::span<const std::size_t> offsets,
                       std::span<const std::uint32_t> candidates, std::uint32_t lo,
                       std::uint32_t hi, std::size_t keep, const ComponentAttackConfig& config,
                       auto&& fill) {
  const StreamingScan scan = phase_scan(ds, offsets, config);
  HypothesisModel model;
  model.columns.reserve(2 * offsets.size());
  for (unsigned v = 0; v < 2; ++v) {
    for (const std::size_t off : offsets) fill(model.columns.emplace_back(), off, ds.views[v].known);
  }
  return phase_outcome(candidates.empty() ? scan.top_k(lo, hi, model, keep)
                                          : scan.top_k_list(candidates, model, keep));
}

// One operand per trace: op(known).
std::vector<std::uint32_t> per_trace(std::span<const KnownOperand> known, auto&& op) {
  std::vector<std::uint32_t> out;
  out.reserve(known.size());
  for (const KnownOperand& k : known) out.push_back(op(k));
  return out;
}

std::uint32_t y0_of(const KnownOperand& k) { return k.y0; }
std::uint32_t y1_of(const KnownOperand& k) { return k.y1; }

// An extend phase: the partial products x*y0 / x*y1 (ProdLL/ProdHL
// multiply by the known y0 half, ProdLH/ProdHH by y1).
PhaseOutcome run_extend(const ComponentDataset& ds, std::span<const std::size_t> offsets,
                        std::span<const std::uint32_t> candidates, std::uint32_t lo,
                        std::uint32_t hi, std::size_t keep, const ComponentAttackConfig& config) {
  return run_phase(ds, offsets, candidates, lo, hi, keep, config,
                   [](HypothesisModel::Column& col, std::size_t off,
                      std::span<const KnownOperand> known) {
                     const bool y0_half = off == ww::kOffProdLL || off == ww::kOffProdHL;
                     col.ops[0] = per_trace(known, y0_half ? y0_of : y1_of);
                   });
}

using Clock = std::chrono::steady_clock;

// One "ep.phase" event per pipeline stage: how many candidates went in,
// how many survived the keep cut, the winner, and the stage's wall time
// since `start`. The kept/pruned split and the wall time also feed the
// global attack.ep.* counters (attack.ep.<phase>_us sums over the run).
void note_phase(const ComponentAttackConfig& config, std::string_view phase,
                std::size_t candidates_in, const PhaseOutcome& out, Clock::time_point start) {
  const double wall_us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("attack.ep.candidates").add(candidates_in);
  reg.counter("attack.ep.pruned").add(candidates_in - out.top.size());
  reg.counter("attack.ep." + std::string(phase) + "_us")
      .add(static_cast<std::uint64_t>(std::llround(wall_us)));
  if (obs::sink() == nullptr) return;
  obs::event("ep.phase")
      .with("label", config.obs_label)
      .with("phase", phase)
      .with("candidates_in", candidates_in)
      .with("kept", out.top.size())
      .with("value", out.value)
      .with("score", out.score)
      .with("wall_us", wall_us)
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
      const double hws[3] = {static_cast<double>(popcount64(k.y0)),
                             static_cast<double>(popcount64(k.y1)),
                             static_cast<double>(popcount64(k.exponent))};
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
    const Clock::time_point start = Clock::now();
    const std::size_t offsets[] = {ww::kOffSign};
    const std::uint32_t guesses[] = {0, 1};
    res.sign_phase = run_phase(ds, offsets, guesses, 0, 0, 2, config,
                               [](HypothesisModel::Column& col, std::size_t,
                                  std::span<const KnownOperand> known) {
                                 col.kind = LeakKind::kSign;
                                 col.ops[0] = per_trace(known, [](const KnownOperand& k) {
                                   return static_cast<std::uint32_t>(k.sign);
                                 });
                               });
    res.sign = res.sign_phase.value != 0;
    note_phase(config, "sign", 2, res.sign_phase, start);
  }

  // 2. Exponent: enumeration of the plausible window on the
  // exponent-sum addition, then alias-tie resolution by the magnitude
  // prior (see ComponentAttackConfig::exp_min).
  {
    const Clock::time_point start = Clock::now();
    const std::size_t offsets[] = {ww::kOffExpSum};
    std::vector<std::uint32_t> guesses;
    guesses.reserve(config.exp_max - config.exp_min + 1);
    for (std::uint32_t e = config.exp_min; e <= config.exp_max; ++e) guesses.push_back(e);
    res.exp_phase = run_phase(ds, offsets, guesses, 0, 0, guesses.size(), config,
                              [](HypothesisModel::Column& col, std::size_t,
                                 std::span<const KnownOperand> known) {
                                col.kind = LeakKind::kExpSum;
                                col.ops[0] = per_trace(known, [](const KnownOperand& k) {
                                  return static_cast<std::uint32_t>(k.exponent);
                                });
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
      // Ties run innermost: each tie's error sum takes the same
      // operations in the same (view, trace) order as a tie-by-tie loop,
      // but the ties' dependency chains overlap.
      std::vector<double> sse(ties.size(), 0.0);
      std::vector<double> pred_x(ties.size());
      for (unsigned v = 0; v < 2; ++v) {
        // The exponent-sum addition (per-trace varying) plus the
        // secret-exponent register load (constant Hamming weight --
        // invisible to Pearson, decisive for the template).
        const auto& col_sum = ds.views[v].samples[ww::kOffExpSum];
        const auto& col_x = ds.views[v].samples[ww::kOffExpX];
        for (std::size_t i = 0; i < ties.size(); ++i) {
          pred_x[i] = cal.alpha * popcount64(ties[i].guess) + cal.beta;
        }
        for (std::size_t t = 0; t < ds.num_traces; ++t) {
          const KnownOperand& k = ds.views[v].known[t];
          for (std::size_t i = 0; i < ties.size(); ++i) {
            const double pred_sum = cal.alpha * hyp_exponent(ties[i].guess, k) + cal.beta;
            const double e1 = col_sum[t] - pred_sum;
            const double e2 = col_x[t] - pred_x[i];
            sse[i] += e1 * e1 + e2 * e2;
          }
        }
      }
      double best_sse = 1e300;
      for (std::size_t i = 0; i < ties.size(); ++i) {
        if (sse[i] < best_sse) {
          best_sse = sse[i];
          pick = ties[i].guess;
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
    note_phase(config, "exponent", guesses.size(), res.exp_phase, start);
  }

  // 3. Mantissa low half: extend on the partial products (empty
  // low_candidates: all 2^25 guesses)...
  {
    Clock::time_point start = Clock::now();
    const std::size_t mul_offsets[] = {ww::kOffProdLL, ww::kOffProdLH};
    res.low_extend = run_extend(ds, mul_offsets, config.low_candidates, 0, 1U << 25,
                                config.extend_top_k, config);
    note_phase(config, "low_extend",
               config.low_candidates.empty() ? std::size_t{1} << 25
                                             : config.low_candidates.size(),
               res.low_extend, start);

    // ...prune on the z1a addition over the surviving top-K.
    start = Clock::now();
    std::vector<std::uint32_t> survivors;
    survivors.reserve(res.low_extend.top.size());
    for (const auto& s : res.low_extend.top) survivors.push_back(s.guess);
    const std::size_t add_offsets[] = {ww::kOffAccZ1a};
    res.low_prune = run_phase(ds, add_offsets, survivors, 0, 0, survivors.size(), config,
                              [](HypothesisModel::Column& col, std::size_t,
                                 std::span<const KnownOperand> known) {
                                col.kind = LeakKind::kZ1a;
                                col.ops[0] = per_trace(known, y0_of);
                                col.ops[1] = per_trace(known, y1_of);
                              });
    res.x0 = res.low_prune.value;
    note_phase(config, "low_prune", survivors.size(), res.low_prune, start);
  }

  // 4. Mantissa high half: same extend-and-prune with the recovered x0
  // (empty high_candidates: all 2^27 guesses with the top bit set).
  {
    Clock::time_point start = Clock::now();
    const std::size_t mul_offsets[] = {ww::kOffProdHL, ww::kOffProdHH};
    res.high_extend = run_extend(ds, mul_offsets, config.high_candidates, 1U << 27, 1U << 28,
                                 config.extend_top_k, config);
    note_phase(config, "high_extend",
               config.high_candidates.empty() ? std::size_t{1} << 27
                                              : config.high_candidates.size(),
               res.high_extend, start);

    // The prune's hypotheses fold the recovered x0 into per-trace
    // operands (z1a and prod_lh >> 25), leaving x1*y0 and x1*y1 per lane.
    start = Clock::now();
    std::vector<std::uint32_t> survivors;
    survivors.reserve(res.high_extend.top.size());
    for (const auto& s : res.high_extend.top) survivors.push_back(s.guess);
    const std::size_t add_offsets[] = {ww::kOffAccZ1b, ww::kOffAccZu};
    const std::uint32_t x0 = res.x0;
    res.high_prune = run_phase(
        ds, add_offsets, survivors, 0, 0, survivors.size(), config,
        [&](HypothesisModel::Column& col, std::size_t off, std::span<const KnownOperand> known) {
          const bool zu = off == ww::kOffAccZu;
          col.kind = zu ? LeakKind::kZu : LeakKind::kZ1b;
          col.guess_or = x0 >> fpr::kMantLowBits;
          col.ops[0] = per_trace(known, y0_of);
          for (const KnownOperand& k : known) {
            const std::uint64_t ym = (static_cast<std::uint64_t>(k.y1) << fpr::kMantLowBits) | k.y0;
            const fpr::MulMantissaSteps s = fpr::mul_mantissa_steps(x0, ym);
            if (zu) {
              col.ops[1].push_back(k.y1);
              col.ops[2].push_back(s.z1a);
              col.ops[3].push_back(static_cast<std::uint32_t>(s.prod_lh >> fpr::kMantLowBits));
            } else {
              col.ops[1].push_back(s.z1a);
            }
          }
        });
    res.x1 = res.high_prune.value;
    note_phase(config, "high_prune", survivors.size(), res.high_prune, start);
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
