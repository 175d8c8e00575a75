#include "attack/extend_prune.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
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
  for (std::size_t t = 0; t < d; ++t) {
    const std::size_t len = set.traces[t].trace.samples.size();
    if (len < kDatasetWindowSamples) {
      throw std::invalid_argument("build_component_dataset: trace " + std::to_string(t) +
                                  " of slot " + std::to_string(set.slot) + " has " +
                                  std::to_string(len) + " samples, the views read " +
                                  std::to_string(kDatasetWindowSamples));
    }
  }
  // One block of 2 x 17 sample columns and one of 2 x 4 operand arrays,
  // each D long: view v's column s at samples[(v * 17 + s) * D], its
  // operand field f at known[(v * 4 + f) * D].
  struct Storage {
    std::vector<float> samples;
    std::vector<std::uint32_t> known;
  };
  auto store = std::make_shared<Storage>();
  store->samples.resize(2 * ww::kEventsPerMul * d);
  store->known.resize(2 * 4 * d);
  ComponentDataset ds;
  ds.num_traces = d;
  for (unsigned v = 0; v < 2; ++v) {
    // Known operand of this block: re*re and im*im use matching parts,
    // re*im and im*re the crossed ones -- encoded in mul_block_for:
    // blocks 0/1 use (re, im) known respectively, blocks 2/3 crossed.
    const std::size_t block = ww::mul_block_for(imag_part, v);
    const std::size_t base = ww::mul_base(static_cast<unsigned>(block));
    float* cols = store->samples.data() + v * ww::kEventsPerMul * d;
    std::uint32_t* known = store->known.data() + v * 4 * d;
    for (std::size_t t = 0; t < d; ++t) {
      const auto& ct = set.traces[t];
      const KnownOperand k =
          KnownOperand::from((block == 0 || block == 3) ? ct.known_re : ct.known_im);
      known[t] = k.y0;
      known[d + t] = k.y1;
      known[2 * d + t] = k.exponent;
      known[3 * d + t] = k.sign;
      for (std::size_t s = 0; s < ww::kEventsPerMul; ++s) {
        cols[s * d + t] = ct.trace.samples[base + s];
      }
    }
    ds.views[v].samples = {cols, d, 1, d};
    ds.views[v].known = {{known, d}, {known + d, d}, {known + 2 * d, d}, {known + 3 * d, d}};
  }
  ds.storage = std::move(store);
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
// under the config's kernel and guess-space sharding. The scan reads
// the dataset's columns in place.
StreamingScan phase_scan(const ComponentDataset& ds, std::span<const std::size_t> offsets,
                         const ComponentAttackConfig& config) {
  std::vector<SampleColumn> cols;
  cols.reserve(2 * offsets.size());
  for (unsigned v = 0; v < 2; ++v) {
    for (const std::size_t off : offsets) cols.push_back(ds.views[v].samples[off]);
  }
  StreamingScan scan(cols, config.kernel);
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
// per-trace operands fill(column, offset, view) sets, pointing at the
// view's known operand arrays.
PhaseOutcome run_phase(const ComponentDataset& ds, std::span<const std::size_t> offsets,
                       std::span<const std::uint32_t> candidates, std::uint32_t lo,
                       std::uint32_t hi, std::size_t keep, const ComponentAttackConfig& config,
                       auto&& fill) {
  const StreamingScan scan = phase_scan(ds, offsets, config);
  HypothesisModel model;
  model.columns.reserve(2 * offsets.size());
  for (unsigned v = 0; v < 2; ++v) {
    for (const std::size_t off : offsets) fill(model.columns.emplace_back(), off, v);
  }
  return phase_outcome(candidates.empty() ? scan.top_k(lo, hi, model, keep)
                                          : scan.top_k_list(candidates, model, keep));
}

// An extend phase: the partial products x*y0 / x*y1 (ProdLL/ProdHL
// multiply by the known y0 half, ProdLH/ProdHH by y1).
PhaseOutcome run_extend(const ComponentDataset& ds, std::span<const std::size_t> offsets,
                        std::span<const std::uint32_t> candidates, std::uint32_t lo,
                        std::uint32_t hi, std::size_t keep, const ComponentAttackConfig& config) {
  return run_phase(ds, offsets, candidates, lo, hi, keep, config,
                   [&ds](HypothesisModel::Column& col, std::size_t off, unsigned v) {
                     const KnownOperands& known = ds.views[v].known;
                     const bool y0_half = off == ww::kOffProdLL || off == ww::kOffProdHL;
                     col.ops[0] = y0_half ? known.y0 : known.y1;
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
    const SampleColumn cols[3] = {view.samples[ww::kOffYLo], view.samples[ww::kOffYHi],
                                  view.samples[ww::kOffExpY]};
    for (std::size_t t = 0; t < ds.num_traces; ++t) {
      const double hws[3] = {static_cast<double>(popcount64(view.known.y0[t])),
                             static_cast<double>(popcount64(view.known.y1[t])),
                             static_cast<double>(popcount64(view.known.exponent[t]))};
      for (int i = 0; i < 3; ++i) {
        const double h = hws[i];
        const double s = cols[i][t];
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

std::uint32_t resolve_exponent_ties(const ComponentDataset& ds,
                                    std::span<const StreamingScan::Scored> ties,
                                    std::uint32_t pick, unsigned exp_prior) {
  if (ties.empty()) return pick;
  const LinearCalibration cal = calibrate_device(ds);
  if (std::fabs(cal.alpha) <= 1e-6) {
    const auto dist = [&](std::uint32_t e) {
      return e > exp_prior ? e - exp_prior : exp_prior - e;
    };
    for (const auto& s : ties) {
      if (dist(s.guess) < dist(pick)) pick = s.guess;
    }
    return pick;
  }
  if (ds.num_traces == 0) return ties[0].guess;  // every error sum is 0
  // The exponent-sum addition's prediction depends on the trace only
  // through its known exponent, so each tie's predicted level is a
  // table over the known exponents present, each entry the same double
  // expression cal.alpha * hyp_exponent(guess, k) + cal.beta a per-trace
  // evaluation computes. The register load's prediction is constant per
  // tie (its Hamming weight is invisible to Pearson, decisive here).
  unsigned emin = ~0U;
  unsigned emax = 0;
  for (unsigned v = 0; v < 2; ++v) {
    for (const std::uint32_t e : ds.views[v].known.exponent) {
      emin = std::min(emin, e);
      emax = std::max(emax, e);
    }
  }
  // Ties go in blocks of four, padded with dummy entries, so a block's
  // error sums live in registers.
  constexpr std::size_t kBlock = 4;
  const std::size_t nt = ties.size();
  const std::size_t np = (nt + kBlock - 1) / kBlock * kBlock;
  std::vector<double> pred_x(np, 0.0);
  for (std::size_t i = 0; i < nt; ++i) {
    pred_x[i] = cal.alpha * popcount64(ties[i].guess) + cal.beta;
  }
  std::vector<double> pred_sum((emax - emin + 1) * np, 0.0);  // [(e - emin) * np + i]
  for (unsigned e = emin; e <= emax; ++e) {
    const KnownOperand k{0, 0, e, false};
    for (std::size_t i = 0; i < nt; ++i) {
      pred_sum[(e - emin) * np + i] = cal.alpha * hyp_exponent(ties[i].guess, k) + cal.beta;
    }
  }
  // Each tie's error sum adds the same terms in the same (view, trace)
  // order as a per-trace evaluation.
  std::vector<double> sse(np, 0.0);
  for (std::size_t i0 = 0; i0 < np; i0 += kBlock) {
    double acc[kBlock] = {};
    for (unsigned v = 0; v < 2; ++v) {
      const SampleColumn col_sum = ds.views[v].samples[ww::kOffExpSum];
      const SampleColumn col_x = ds.views[v].samples[ww::kOffExpX];
      const std::span<const std::uint32_t> exps = ds.views[v].known.exponent;
      for (std::size_t t = 0; t < ds.num_traces; ++t) {
        const double* pred = pred_sum.data() + (exps[t] - emin) * np + i0;
        const double s_sum = col_sum[t];
        const double s_x = col_x[t];
        for (std::size_t j = 0; j < kBlock; ++j) {
          const double e1 = s_sum - pred[j];
          const double e2 = s_x - pred_x[i0 + j];
          acc[j] += e1 * e1 + e2 * e2;
        }
      }
    }
    for (std::size_t j = 0; j < kBlock; ++j) sse[i0 + j] = acc[j];
  }
  double best_sse = 1e300;
  for (std::size_t i = 0; i < nt; ++i) {
    if (sse[i] < best_sse) {
      best_sse = sse[i];
      pick = ties[i].guess;
    }
  }
  return pick;
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
                               [&ds](HypothesisModel::Column& col, std::size_t, unsigned v) {
                                 col.kind = LeakKind::kSign;
                                 col.ops[0] = ds.views[v].known.sign;
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
                              [&ds](HypothesisModel::Column& col, std::size_t, unsigned v) {
                                col.kind = LeakKind::kExpSum;
                                col.ops[0] = ds.views[v].known.exponent;
                              });
    // Keep only the tie class, then template-match its members' absolute
    // levels (resolve_exponent_ties).
    const double eps =
        config.exp_tie_epsilon >= 0.0
            ? config.exp_tie_epsilon
            : std::max(1e-6, 4.0 / std::sqrt(static_cast<double>(ds.num_traces)));
    const double best = res.exp_phase.top.empty() ? 0.0 : res.exp_phase.top[0].score;
    std::vector<StreamingScan::Scored> ties;
    for (const auto& s : res.exp_phase.top) {
      if (s.score >= best - eps) ties.push_back(s);
    }
    const std::uint32_t pick =
        resolve_exponent_ties(ds, ties, res.exp_phase.value, config.exp_prior);
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
                              [&ds](HypothesisModel::Column& col, std::size_t, unsigned v) {
                                col.kind = LeakKind::kZ1a;
                                col.ops[0] = ds.views[v].known.y0;
                                col.ops[1] = ds.views[v].known.y1;
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
    // Per view: z1a and prod_lh >> 25 of x0 times the known mantissa.
    std::vector<std::uint32_t> z1a[2], plh[2];
    for (unsigned v = 0; v < 2; ++v) {
      z1a[v].reserve(ds.num_traces);
      plh[v].reserve(ds.num_traces);
      for (const KnownOperand k : ds.views[v].known) {
        const std::uint64_t ym = (static_cast<std::uint64_t>(k.y1) << fpr::kMantLowBits) | k.y0;
        const fpr::MulMantissaSteps st = fpr::mul_mantissa_steps(x0, ym);
        z1a[v].push_back(st.z1a);
        plh[v].push_back(static_cast<std::uint32_t>(st.prod_lh >> fpr::kMantLowBits));
      }
    }
    res.high_prune = run_phase(
        ds, add_offsets, survivors, 0, 0, survivors.size(), config,
        [&](HypothesisModel::Column& col, std::size_t off, unsigned v) {
          const bool zu = off == ww::kOffAccZu;
          col.kind = zu ? LeakKind::kZu : LeakKind::kZ1b;
          col.guess_or = x0 >> fpr::kMantLowBits;
          col.ops[0] = ds.views[v].known.y0;
          if (zu) {
            col.ops[1] = ds.views[v].known.y1;
            col.ops[2] = z1a[v];
            col.ops[3] = plh[v];
          } else {
            col.ops[1] = z1a[v];
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
