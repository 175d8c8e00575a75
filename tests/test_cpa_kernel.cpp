// The blocked CPA kernel's contracts (cpa_kernel.h):
//   - equivalence: batch sizes 1/7/64 agree with the exact two-pass
//     Pearson reference at trace counts not divisible by B, batch 1
//     reproduces the naive per-trace fold bit for bit, and tiling never
//     changes a single bit;
//   - the cancellation bugfix: a large DC offset (samples ~ 1e8 + HW)
//     drives the legacy unshifted moment form dn*sum2 - sum*sum
//     negative (the old code silently returned r = 0) while the shifted
//     kernel still recovers the key guess;
//   - |r| ranking catches inverted leakage;
//   - a foreign-layout window (samples too short for the spec's views)
//     folds nothing and does not advance the window count;
//   - single-pass drivers: attack_components_gated costs one archive
//     scan per call, and the whole pipeline attack round costs exactly
//     one archive pass;
//   - product-hypothesis scan: a ProductModel scores every guess
//     bit-identically to the equivalent per-cell callback at every
//     dispatch level, over ranges and lists, sharded or not, and
//     attack_component's extend phases equal the callback scan they
//     replaced;
//   - hypothesis scan: every leak kind as data (sign, exponent sum,
//     product, z1a, and the high prune's z1b/zu with x0 folded into
//     per-trace operands) scores bit-identically to the hyp_* callback
//     at every dispatch level, guess count (padded tails) and batch
//     size; constant hypotheses and constant columns score +0.0; and
//     all six phases of attack_component equal the callback scans.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/thread_pool.h"

#include "attack/cpa.h"
#include "attack/cpa_kernel.h"
#include "attack/parallel_attack.h"
#include "attack/recovery_pipeline.h"
#include "attack/streaming_cpa.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "obs/metrics.h"
#include "sca/campaign.h"
#include "tracestore/archive.h"

namespace fd::attack {
namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

sca::CampaignConfig small_config(std::uint64_t seed) {
  sca::CampaignConfig cfg;
  cfg.num_traces = 220;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = seed;
  return cfg;
}

StreamingCpaSpec exponent_spec() {
  StreamingCpaSpec spec;
  spec.sample_offsets = {sca::window::kOffExpSum};
  for (std::uint32_t e = 1005; e <= 1053; ++e) spec.guesses.push_back(e);
  spec.model = [](std::uint32_t guess, const KnownOperand& k) {
    return hyp_exponent(guess, k);
  };
  return spec;
}

// Synthetic Hamming-weight leakage: operand d leaks popcount(v_d);
// guess g predicts popcount(v_d ^ mask_g) with mask_0 = 0 (the truth).
struct SyntheticCpa {
  std::size_t num_guesses = 0;
  std::size_t num_samples = 0;
  std::vector<std::uint64_t> masks;         // per guess
  std::vector<std::vector<double>> hyps;    // [trace][guess]
  std::vector<std::vector<float>> samples;  // [trace][sample]
};

SyntheticCpa make_synthetic(std::size_t traces, std::size_t guesses, std::size_t samples,
                            double noise_sigma, double dc_offset, double gain,
                            std::uint64_t seed) {
  ChaCha20Prng rng(seed);
  constexpr std::uint64_t kMask50 = (1ULL << 50) - 1;
  SyntheticCpa s;
  s.num_guesses = guesses;
  s.num_samples = samples;
  s.masks.push_back(0);  // guess 0 = truth
  for (std::size_t g = 1; g < guesses; ++g) s.masks.push_back(rng.next_u64() & kMask50);
  s.hyps.resize(traces);
  s.samples.resize(traces);
  for (std::size_t d = 0; d < traces; ++d) {
    const std::uint64_t v = rng.next_u64() & kMask50;
    const double hw = static_cast<double>(std::popcount(v));
    s.hyps[d].resize(guesses);
    for (std::size_t g = 0; g < guesses; ++g) {
      s.hyps[d][g] = static_cast<double>(std::popcount(v ^ s.masks[g]));
    }
    s.samples[d].resize(samples);
    for (std::size_t c = 0; c < samples; ++c) {
      const double noise = noise_sigma == 0.0 ? 0.0 : noise_sigma * rng.gaussian();
      s.samples[d][c] =
          static_cast<float>(dc_offset + 10.0 * static_cast<double>(c) + gain * hw + noise);
    }
  }
  return s;
}

// Exact two-pass mean-centered Pearson in extended precision: the
// ground truth every batched fold must agree with.
double exact_pearson(const SyntheticCpa& s, std::size_t g, std::size_t c) {
  const std::size_t d = s.hyps.size();
  long double mh = 0.0L, mt = 0.0L;
  for (std::size_t i = 0; i < d; ++i) {
    mh += s.hyps[i][g];
    mt += s.samples[i][c];
  }
  mh /= static_cast<long double>(d);
  mt /= static_cast<long double>(d);
  long double vh = 0.0L, vt = 0.0L, cov = 0.0L;
  for (std::size_t i = 0; i < d; ++i) {
    const long double a = s.hyps[i][g] - mh;
    const long double b = s.samples[i][c] - mt;
    vh += a * a;
    vt += b * b;
    cov += a * b;
  }
  if (vh <= 0.0L || vt <= 0.0L) return 0.0;
  return static_cast<double>(cov / std::sqrt(vh * vt));
}

CpaEngine fold_synthetic(const SyntheticCpa& s, CpaKernelConfig kernel) {
  CpaEngine engine(s.num_guesses, s.num_samples, kernel);
  for (std::size_t d = 0; d < s.hyps.size(); ++d) engine.add_trace(s.hyps[d], s.samples[d]);
  return engine;
}

// --- kernel equivalence ----------------------------------------------------

TEST(CpaKernel, BatchSizesAgreeWithExactReference) {
  // Trace counts deliberately not divisible by 7 or 64: the flush of a
  // partial tail batch must not change the statistics.
  for (const std::size_t traces : {63U, 100U, 101U}) {
    const auto s = make_synthetic(traces, 16, 3, 2.0, 0.0, 1.5, 0xA11CE + traces);
    const CpaEngine e1 = fold_synthetic(s, {.batch_traces = 1});
    const CpaEngine e7 = fold_synthetic(s, {.batch_traces = 7});
    const CpaEngine e64 = fold_synthetic(s, {.batch_traces = 64});
    ASSERT_EQ(e64.num_traces(), traces);
    for (std::size_t g = 0; g < s.num_guesses; ++g) {
      for (std::size_t c = 0; c < s.num_samples; ++c) {
        const double exact = exact_pearson(s, g, c);
        // Shifted data keeps every batch within rounding noise of the
        // two-pass reference...
        EXPECT_NEAR(e1.correlation(g, c), exact, 1e-10) << "D=" << traces;
        EXPECT_NEAR(e7.correlation(g, c), exact, 1e-10);
        EXPECT_NEAR(e64.correlation(g, c), exact, 1e-10);
        // ...and batch sizes differ from each other only by the
        // documented in-batch reassociation.
        EXPECT_NEAR(e7.correlation(g, c), e1.correlation(g, c), 1e-12);
        EXPECT_NEAR(e64.correlation(g, c), e1.correlation(g, c), 1e-12);
      }
    }
    EXPECT_EQ(e7.ranking(), e1.ranking());
    EXPECT_EQ(e64.ranking(), e1.ranking());
    EXPECT_EQ(e1.ranking().front(), 0U);  // and the fold is attacking
  }
}

TEST(CpaKernel, BatchOneReproducesNaiveFoldBitForBit) {
  const auto s = make_synthetic(101, 12, 2, 2.0, 0.0, 1.5, 0xBEE);
  const CpaEngine e1 = fold_synthetic(s, {.batch_traces = 1});

  // The naive per-trace fold, spelled out: first trace is the shift
  // reference, every later value enters the five sums as (x - ref) in
  // trace order. Batch 1 must reproduce this arithmetic exactly.
  const std::size_t gcount = s.num_guesses, scount = s.num_samples;
  std::vector<double> ref_h(gcount), ref_t(scount);
  std::vector<double> sh(gcount, 0.0), sh2(gcount, 0.0);
  std::vector<double> st(scount, 0.0), st2(scount, 0.0), sht(gcount * scount, 0.0);
  for (std::size_t d = 0; d < s.hyps.size(); ++d) {
    if (d == 0) {
      for (std::size_t g = 0; g < gcount; ++g) ref_h[g] = s.hyps[0][g];
      for (std::size_t c = 0; c < scount; ++c) ref_t[c] = s.samples[0][c];
    }
    for (std::size_t c = 0; c < scount; ++c) {
      const double t = static_cast<double>(s.samples[d][c]) - ref_t[c];
      st[c] += t;
      st2[c] += t * t;
    }
    for (std::size_t g = 0; g < gcount; ++g) {
      const double h = s.hyps[d][g] - ref_h[g];
      sh[g] += h;
      sh2[g] += h * h;
      for (std::size_t c = 0; c < scount; ++c) {
        const double t = static_cast<double>(s.samples[d][c]) - ref_t[c];
        sht[g * scount + c] += h * t;
      }
    }
  }
  const double dn = static_cast<double>(s.hyps.size());
  for (std::size_t g = 0; g < gcount; ++g) {
    for (std::size_t c = 0; c < scount; ++c) {
      const double var_h = dn * sh2[g] - sh[g] * sh[g];
      const double var_t = dn * st2[c] - st[c] * st[c];
      const double cov = dn * sht[g * scount + c] - sh[g] * st[c];
      const double r = (var_h <= 0.0 || var_t <= 0.0) ? 0.0 : cov / std::sqrt(var_h * var_t);
      EXPECT_EQ(e1.correlation(g, c), r) << "g=" << g << " c=" << c;
    }
  }
}

TEST(CpaKernel, TilingNeverChangesABit) {
  const auto s = make_synthetic(150, 49, 4, 2.0, 0.0, 1.5, 0x711E5);
  const CpaEngine base =
      fold_synthetic(s, {.batch_traces = 64, .guess_block = 32, .sample_block = 64});
  const CpaKernelConfig tilings[] = {
      {.batch_traces = 64, .guess_block = 1, .sample_block = 1},
      {.batch_traces = 64, .guess_block = 3, .sample_block = 5},
      {.batch_traces = 64, .guess_block = 1000, .sample_block = 1000},
  };
  for (const auto& cfg : tilings) {
    const CpaEngine e = fold_synthetic(s, cfg);
    for (std::size_t g = 0; g < s.num_guesses; ++g) {
      for (std::size_t c = 0; c < s.num_samples; ++c) {
        // Tile sizes are pure performance knobs: exact double equality.
        EXPECT_EQ(e.correlation(g, c), base.correlation(g, c))
            << "gb=" << cfg.guess_block << " sb=" << cfg.sample_block;
      }
    }
    EXPECT_EQ(e.ranking(), base.ranking());
  }
}

// --- the cancellation bugfix -----------------------------------------------

TEST(CpaKernel, DcOffsetRegressionRecoversKeyGuess) {
  // samples = 1e8 + HW, no noise. float quantization (ULP = 8 at 1e8)
  // coarsens but does not destroy the signal; what used to destroy it
  // is the legacy unshifted moment form, whose double-precision
  // accumulation error swamps the tiny true variance.
  const auto s = make_synthetic(2000, 16, 1, 0.0, 1e8, 1.0, 0xDC0FF);

  // The bug was real: the legacy form goes negative, and the old
  // correlation() then silently returned r = 0 for every guess.
  double st = 0.0, st2 = 0.0;
  for (const auto& row : s.samples) {
    const double x = row[0];
    st += x;
    st2 += x * x;
  }
  const double dn = static_cast<double>(s.samples.size());
  EXPECT_LE(dn * st2 - st * st, 0.0)
      << "DC offset no longer drives the legacy moment form negative; "
         "pick a larger offset to keep this regression meaningful";

  // The shifted kernel recovers the key guess at any batch size.
  for (const std::size_t batch : {1U, 64U}) {
    const CpaEngine e = fold_synthetic(s, {.batch_traces = batch});
    EXPECT_EQ(e.ranking().front(), 0U) << "batch=" << batch;
    EXPECT_GT(e.peak(0), 0.5) << "batch=" << batch;
    const double exact = exact_pearson(s, 0, 0);
    EXPECT_NEAR(e.correlation(0, 0), exact, 1e-6) << "batch=" << batch;
  }

  // StreamingScan shares the fix: the huge-guess-space path scores the
  // truth on top too.
  std::vector<std::vector<float>> cols(1);
  cols[0].reserve(s.samples.size());
  for (const auto& row : s.samples) cols[0].push_back(row[0]);
  const StreamingScan scan(std::move(cols));
  const auto& hyps = s.hyps;
  const auto model = [&hyps](std::uint32_t guess, std::size_t trace, std::size_t) {
    return hyps[trace][guess];
  };
  const auto top = scan.top_k(0, s.num_guesses, model, s.num_guesses);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top.front().guess, 0U);
  EXPECT_GT(top.front().score, 0.5);
}

TEST(CpaKernel, CorrelationIsShiftInvariantBitForBit) {
  // t and t - 2^26 are within a factor of two of each other, so the
  // float subtraction is exact (Sterbenz): both engines see identical
  // shifted values and must produce identical doubles.
  const auto s =
      make_synthetic(300, 8, 2, 1.0, static_cast<double>(1 << 26), 1.0, 0x5111F7);
  auto shifted = s;
  for (auto& row : shifted.samples) {
    for (auto& x : row) x -= static_cast<float>(1 << 26);
  }
  const CpaEngine a = fold_synthetic(s, {});
  const CpaEngine b = fold_synthetic(shifted, {});
  for (std::size_t g = 0; g < s.num_guesses; ++g) {
    for (std::size_t c = 0; c < s.num_samples; ++c) {
      EXPECT_EQ(a.correlation(g, c), b.correlation(g, c));
    }
  }
  EXPECT_EQ(a.ranking(), b.ranking());
}

// --- |r| ranking -----------------------------------------------------------

TEST(CpaKernel, AbsPeakRankingCatchesInvertedLeakage) {
  // Inverted device: amplitude DROPS with the Hamming weight. The truth
  // correlates near -1; |r| ranking is polarity-blind.
  auto s = make_synthetic(500, 16, 1, 0.5, 0.0, 1.0, 0x1EAF);
  for (std::size_t d = 0; d < s.samples.size(); ++d) {
    s.samples[d][0] = 200.0f - s.samples[d][0];
  }
  const CpaEngine by_abs = fold_synthetic(s, {});
  EXPECT_LT(by_abs.correlation(0, 0), -0.9);  // the leak really is inverted
  EXPECT_EQ(by_abs.ranking().front(), 0U);
  EXPECT_GT(by_abs.peak(0), 0.9);
}

// --- foreign-layout windows (satellite bugfix) -----------------------------

TEST(CpaKernel, ForeignLayoutWindowFoldsNothingAndDoesNotCount) {
  const fpr::Fpr known = fpr::Fpr::from_bits(0x3FF8000000000000ULL);  // 1.5
  sca::TraceSet set;
  set.slot = 0;
  for (int i = 0; i < 5; ++i) {
    sca::CapturedTrace ct;
    ct.known_re = known;
    ct.known_im = known;
    ct.trace.samples.assign(4, 0.0f);  // no room for any fpr_mul view
    set.traces.push_back(ct);
  }
  const auto spec = exponent_spec();
  auto& windows = obs::MetricsRegistry::global().counter("attack.cpa.windows");

  const std::uint64_t before = windows.value();
  const CpaEngine empty = run_cpa_inmemory(set, spec);
  EXPECT_EQ(empty.num_traces(), 0U);
  if (FD_OBS_ENABLED) {
    // Foreign windows must not advance the cadence/window count.
    EXPECT_EQ(windows.value() - before, 0U);
  }

  // One well-formed window among the foreign ones: exactly it counts.
  set.traces[2].trace.samples.assign(sca::window::kEventsPerMul * 6, 0.0f);
  const std::uint64_t before2 = windows.value();
  const CpaEngine one = run_cpa_inmemory(set, spec);
  EXPECT_EQ(one.num_traces(), 2U);  // both views of the one good window
  if (FD_OBS_ENABLED) {
    EXPECT_EQ(windows.value() - before2, 1U);
  }
}

// --- single-pass gated component fan-out -----------------------------------

TEST(CpaKernel, SinglePassGatedMatchesLegacyAtOneScan) {
  ChaCha20Prng rng(0xD341);
  const auto kp = falcon::keygen(4, rng);
  auto cfg = small_config(0xD341);
  cfg.num_traces = 300;
  TempFile tmp("ck_gated.fdtrace");
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, cfg, tmp.path).ok);

  KeyRecoveryConfig krc;
  const auto config_for = [&](const ComponentIndex& ci) {
    return component_attack_config(kp.sk, krc, /*row=*/0, ci.slot, ci.imag);
  };
  QualityConfig gate;
  gate.enabled = true;

  const std::vector<std::size_t> components = {0, 3, 11};
  auto& scans = obs::MetricsRegistry::global().counter("attack.archive.scans");

  std::vector<ComponentResult> res_sp;
  std::vector<std::size_t> acc_sp;
  QualityReport q_sp;
  std::string err;

  const std::uint64_t before_sp = scans.value();
  ASSERT_TRUE(attack_components_gated(tmp.path, gate, config_for, nullptr, components,
                                      res_sp, acc_sp, &q_sp, &err))
      << err;
  if (FD_OBS_ENABLED) {
    EXPECT_EQ(scans.value() - before_sp, 1U);  // one demux scan for all 3
  }
}

// --- the pipeline's one-pass-per-round pin ---------------------------------

TEST(CpaKernel, PipelineAttackRoundScansArchiveOnce) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  ChaCha20Prng rng(0xD00D);
  const auto victim = falcon::keygen(4, rng);

  TempFile tmp("ck_pipeline.fdtrace");
  RecoveryPipelineConfig cfg;
  cfg.attack.num_traces = 400;
  cfg.attack.device.noise_sigma = 2.0;
  cfg.attack.seed = 0xD00D;
  cfg.archive_path = tmp.path;

  auto& scans = obs::MetricsRegistry::global().counter("attack.archive.scans");
  const std::uint64_t before = scans.value();
  const auto res = run_recovery_pipeline(victim, cfg);
  ASSERT_TRUE(res.ok) << res.error;
  // The full-key attack round (all 2N components, demuxed) is exactly
  // one archive pass.
  EXPECT_EQ(scans.value() - before, 1U);
  EXPECT_EQ(res.recovery.components_total, victim.pk.params.n);
}

// --- SIMD dispatch (tentpole): vector lanes ARE the scalar lanes -----------

// Restores the env-resolved kernel however a test exits.
struct SimdGuard {
  ~SimdGuard() { cpa_reset_simd(); }
};

CpaSimd best_vector_simd() {
  if (cpa_simd_available(CpaSimd::kAvx512)) return CpaSimd::kAvx512;
  if (cpa_simd_available(CpaSimd::kAvx2)) return CpaSimd::kAvx2;
  if (cpa_simd_available(CpaSimd::kNeon)) return CpaSimd::kNeon;
  return CpaSimd::kScalar;
}

TEST(CpaSimd, VectorPrimitivesMatchScalarBitForBit) {
  const CpaSimd vec = best_vector_simd();
  if (vec == CpaSimd::kScalar) GTEST_SKIP() << "no vector unit on this host";
  SimdGuard guard;
  ChaCha20Prng rng(0x51D0);
  // Lengths straddle every tail residue (n % 4 in {0,1,2,3}) and the
  // empty fold.
  for (const std::size_t n : {0U, 1U, 2U, 3U, 4U, 5U, 6U, 7U, 8U, 15U, 16U, 17U,
                              63U, 64U, 100U, 257U}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Wild magnitude spread: any reassociation or FMA contraction in
      // the vector path would show up as a differing low bit here.
      a[i] = rng.gaussian() * 1e6 + rng.gaussian();
      b[i] = rng.gaussian() * 1e-3 + rng.gaussian() * 1e4;
    }
    ASSERT_TRUE(cpa_force_simd(CpaSimd::kScalar));
    const double s_sum = lanes4_sum(a.data(), n);
    const double s_sumsq = lanes4_sumsq(a.data(), n);
    const double s_dot = lanes4_dot(a.data(), b.data(), n);
    const HFold s_fold = lanes4_fold_h(a.data(), b.data(), n);
    ASSERT_TRUE(cpa_force_simd(vec));
    EXPECT_EQ(lanes4_sum(a.data(), n), s_sum) << "n=" << n;
    EXPECT_EQ(lanes4_sumsq(a.data(), n), s_sumsq) << "n=" << n;
    EXPECT_EQ(lanes4_dot(a.data(), b.data(), n), s_dot) << "n=" << n;
    const HFold v_fold = lanes4_fold_h(a.data(), b.data(), n);
    EXPECT_EQ(v_fold.sh, s_fold.sh) << "n=" << n;
    EXPECT_EQ(v_fold.sh2, s_fold.sh2) << "n=" << n;
    EXPECT_EQ(v_fold.sht, s_fold.sht) << "n=" << n;
  }
}

TEST(CpaSimd, EngineCorrelationsIdenticalAcrossKernels) {
  const CpaSimd vec = best_vector_simd();
  if (vec == CpaSimd::kScalar) GTEST_SKIP() << "no vector unit on this host";
  SimdGuard guard;
  // 101 traces (tail batch), 17 guesses x 3 samples (odd shapes).
  const auto s = make_synthetic(101, 17, 3, 2.0, 0.0, 1.5, 0x51D1);

  ASSERT_TRUE(cpa_force_simd(CpaSimd::kScalar));
  const CpaEngine scalar = fold_synthetic(s, {.batch_traces = 64});
  std::vector<double> scalar_r;
  for (std::size_t g = 0; g < s.num_guesses; ++g) {
    for (std::size_t c = 0; c < s.num_samples; ++c) {
      scalar_r.push_back(scalar.correlation(g, c));
    }
  }
  const auto scalar_rank = scalar.ranking();

  ASSERT_TRUE(cpa_force_simd(vec));
  EXPECT_EQ(cpa_active_simd(), vec);
  const CpaEngine vector = fold_synthetic(s, {.batch_traces = 64});
  std::size_t i = 0;
  for (std::size_t g = 0; g < s.num_guesses; ++g) {
    for (std::size_t c = 0; c < s.num_samples; ++c) {
      EXPECT_EQ(vector.correlation(g, c), scalar_r[i++]) << "g=" << g << " c=" << c;
    }
  }
  EXPECT_EQ(vector.ranking(), scalar_rank);
}

TEST(CpaSimd, EnvOverrideHonored) {
  SimdGuard guard;
  ::setenv("FD_CPA_KERNEL", "scalar", 1);
  cpa_reset_simd();
  EXPECT_EQ(cpa_active_simd(), CpaSimd::kScalar);
  EXPECT_STREQ(cpa_simd_name(cpa_active_simd()), "scalar");

  if (cpa_simd_available(CpaSimd::kAvx2)) {
    ::setenv("FD_CPA_KERNEL", "avx2", 1);
    cpa_reset_simd();
    EXPECT_EQ(cpa_active_simd(), CpaSimd::kAvx2);
    EXPECT_STREQ(cpa_simd_name(cpa_active_simd()), "avx2");
  }
  if (cpa_simd_available(CpaSimd::kAvx512)) {
    ::setenv("FD_CPA_KERNEL", "avx512", 1);
    cpa_reset_simd();
    EXPECT_EQ(cpa_active_simd(), CpaSimd::kAvx512);
    EXPECT_STREQ(cpa_simd_name(cpa_active_simd()), "avx512");
  }

  // Unknown names fall back to auto-detection, never crash.
  ::setenv("FD_CPA_KERNEL", "quantum", 1);
  cpa_reset_simd();
  EXPECT_EQ(cpa_active_simd(), best_vector_simd());

  ::unsetenv("FD_CPA_KERNEL");
  cpa_reset_simd();
  EXPECT_EQ(cpa_active_simd(), best_vector_simd());

  // Forcing an unavailable kernel is refused without changing state.
  if (!cpa_simd_available(CpaSimd::kNeon)) {
    const CpaSimd before = cpa_active_simd();
    EXPECT_FALSE(cpa_force_simd(CpaSimd::kNeon));
    EXPECT_EQ(cpa_active_simd(), before);
  }
}

// --- sharded StreamingScan (tentpole): byte-identical top-k ----------------

TEST(CpaShards, StreamingScanShardingIsByteIdentical) {
  const auto s = make_synthetic(120, 200, 2, 2.0, 0.0, 1.2, 0x5AAD);
  std::vector<std::vector<float>> cols(s.num_samples);
  for (std::size_t c = 0; c < s.num_samples; ++c) {
    for (const auto& row : s.samples) cols[c].push_back(row[c]);
  }
  StreamingScan scan(std::move(cols));
  const auto& hyps = s.hyps;
  const auto model = [&hyps](std::uint32_t guess, std::size_t trace, std::size_t) {
    return hyps[trace][guess];
  };

  // A guess list with DUPLICATES: equal scores are guaranteed, so the
  // arrival-order tiebreak itself is under test.
  std::vector<std::uint32_t> guesses;
  for (std::uint32_t g = 0; g < s.num_guesses; ++g) guesses.push_back(g);
  for (std::uint32_t g = 0; g < 40; ++g) guesses.push_back(g);  // repeats

  const auto serial = scan.top_k_list(guesses, model, 24);
  ASSERT_EQ(serial.size(), 24U);

  exec::ThreadPool pool1(1);
  exec::ThreadPool pool3(3);
  for (const std::size_t shards : {2U, 3U, 7U, 64U}) {
    for (exec::ThreadPool* pool : {static_cast<exec::ThreadPool*>(nullptr), &pool1, &pool3}) {
      scan.set_parallelism(shards, pool);
      const auto sharded = scan.top_k_list(guesses, model, 24);
      ASSERT_EQ(sharded.size(), serial.size()) << "shards=" << shards;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(sharded[i].guess, serial[i].guess) << "shards=" << shards << " i=" << i;
        EXPECT_EQ(sharded[i].score, serial[i].score) << "shards=" << shards << " i=" << i;
      }
      // top_k over a contiguous range shards identically too.
      scan.set_parallelism(1, nullptr);
      const auto range_serial = scan.top_k(0, s.num_guesses, model, 16);
      scan.set_parallelism(shards, pool);
      const auto range_sharded = scan.top_k(0, s.num_guesses, model, 16);
      ASSERT_EQ(range_sharded.size(), range_serial.size());
      for (std::size_t i = 0; i < range_serial.size(); ++i) {
        EXPECT_EQ(range_sharded[i].guess, range_serial[i].guess);
        EXPECT_EQ(range_sharded[i].score, range_serial[i].score);
      }
    }
  }
}

TEST(CpaShards, ComponentAttackShardingIsByteIdentical) {
  ChaCha20Prng rng(0xC0A7);
  const auto kp = falcon::keygen(4, rng);
  auto camp = small_config(0xC0A7);
  camp.num_traces = 250;
  const auto sets = sca::run_full_campaign(kp.sk, camp);
  const ComponentDataset ds = build_component_dataset(sets[1], /*imag_part=*/false);

  KeyRecoveryConfig krc;
  ComponentAttackConfig serial_cfg =
      component_attack_config(kp.sk, krc, /*row=*/0, /*slot=*/1, /*imag=*/false);
  const ComponentResult serial = attack_component(ds, serial_cfg);

  exec::ThreadPool pool(2);
  for (const std::size_t shards : {2U, 7U}) {
    ComponentAttackConfig cfg = serial_cfg;
    cfg.cpa_shards = shards;
    cfg.scan_pool = &pool;
    const ComponentResult sharded = attack_component(ds, cfg);
    EXPECT_EQ(sharded.bits, serial.bits) << "shards=" << shards;
    EXPECT_EQ(sharded.sign, serial.sign);
    EXPECT_EQ(sharded.exponent, serial.exponent);
    EXPECT_EQ(sharded.x0, serial.x0);
    EXPECT_EQ(sharded.x1, serial.x1);
    // Every phase's ranked list is byte-identical, not just the winner.
    const PhaseOutcome* serial_phases[] = {&serial.sign_phase, &serial.exp_phase,
                                           &serial.low_extend, &serial.low_prune,
                                           &serial.high_extend, &serial.high_prune};
    const PhaseOutcome* sharded_phases[] = {&sharded.sign_phase, &sharded.exp_phase,
                                            &sharded.low_extend, &sharded.low_prune,
                                            &sharded.high_extend, &sharded.high_prune};
    for (int p = 0; p < 6; ++p) {
      ASSERT_EQ(sharded_phases[p]->top.size(), serial_phases[p]->top.size()) << "phase " << p;
      for (std::size_t i = 0; i < serial_phases[p]->top.size(); ++i) {
        EXPECT_EQ(sharded_phases[p]->top[i].guess, serial_phases[p]->top[i].guess);
        EXPECT_EQ(sharded_phases[p]->top[i].score, serial_phases[p]->top[i].score);
      }
    }
  }
}

// --- release-mode contract pins (satellite bugfixes) -----------------------
//
// The default build defines NDEBUG, so these tests exercise exactly the
// release-mode behavior: each contract violation must be a checked
// error, not a skipped assert followed by out-of-bounds access.

TEST(CpaRelease, AddTraceShapeMismatchThrowsInEveryBuildMode) {
  CpaSums sums;
  CpaBatchKernel kernel(4, 3, {});
  const std::vector<double> good_h(4, 1.0);
  const std::vector<float> good_t(3, 1.0F);
  const std::vector<double> short_h(3, 1.0);
  const std::vector<float> short_t(2, 1.0F);
  const std::vector<double> long_h(5, 1.0);

  EXPECT_THROW(kernel.add_trace(sums, short_h, good_t), std::invalid_argument);
  EXPECT_THROW(kernel.add_trace(sums, good_h, short_t), std::invalid_argument);
  EXPECT_THROW(kernel.add_trace(sums, long_h, good_t), std::invalid_argument);
  // Refused traces left no partial state behind: a good trace still
  // folds into a clean accumulator.
  EXPECT_EQ(sums.traces, 0U);
  kernel.add_trace(sums, good_h, good_t);
  kernel.flush(sums);
  EXPECT_EQ(sums.traces, 1U);
}

#ifdef FD_ATTACK_BIN

// --- e2e: fd-attack --cpa-shards -------------------------------------------

std::string run_cmd(const std::string& cmd) {
  std::FILE* p = ::popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  if (p == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) out.append(buf, n);
  const int rc = ::pclose(p);
  EXPECT_EQ(rc, 0) << cmd << "\n" << out;
  return out;
}

TEST(CpaShards, FdAttackCpaShardsIsByteIdenticalEndToEnd) {
  const std::string base = std::string(FD_ATTACK_BIN) +
                           " recover --logn 4 --traces 260 --seed 0xE2E --json"
                           " --archive ck_e2e_shards.fdtrace";
  const std::string one = run_cmd(base + " --cpa-shards 1 2>/dev/null");
  const std::string two = run_cmd(base + " --threads 2 --cpa-shards 7 2>/dev/null");
  ASSERT_FALSE(one.empty());
  // The JSON echoes cpa_shards (and threads), which legitimately
  // differ; every recovery field must not. Compare with those two knobs
  // normalized out.
  const auto normalize = [](std::string s) {
    // Also drop the stage_*_ms wall-clock fields -- the only fields a
    // deterministic run is allowed to vary.
    for (const char* key : {"\"cpa_shards\":", "\"threads\":", "\"stage_"}) {
      std::size_t pos = 0;
      while ((pos = s.find(key, pos)) != std::string::npos) {
        auto end = s.find_first_of(",}", pos);
        s.erase(pos, end - pos + 1);
      }
    }
    return s;
  };
  EXPECT_EQ(normalize(one), normalize(two));
  EXPECT_NE(one.find("\"cpa_shards\":1"), std::string::npos);
  EXPECT_NE(two.find("\"cpa_shards\":7"), std::string::npos);
}

#endif  // FD_ATTACK_BIN

// --- product-hypothesis scan (tentpole): lane-parallel, bit-identical ------

std::vector<CpaSimd> available_simd() {
  std::vector<CpaSimd> kinds;
  for (const CpaSimd k : {CpaSimd::kScalar, CpaSimd::kAvx2, CpaSimd::kAvx512, CpaSimd::kNeon}) {
    if (cpa_simd_available(k)) kinds.push_back(k);
  }
  return kinds;
}

// Columns leaking the partial products of `truth` with per-trace known
// multipliers: even columns take 25-bit multipliers (a y0 half), odd
// ones 28-bit with the top bit set (a y1 half), over a large DC offset.
// `spread` scales each sample by a random power of two in [2^-30, 2^30]:
// the leak drowns, but the fold's terms now span ~90 significant bits,
// so its sums round and any reassociation of the lane program changes
// low bits (with DC-offset floats alone every partial sum is exact and
// no order is observable).
struct ProductCase {
  std::vector<std::vector<float>> cols;
  ProductModel model;
};

ProductCase make_product_case(std::size_t traces, std::size_t cols, std::uint32_t truth,
                              std::uint64_t seed, bool spread = false) {
  ChaCha20Prng rng(seed);
  ProductCase pc;
  pc.cols.assign(cols, std::vector<float>(traces));
  pc.model.multipliers.resize(cols * traces);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t t = 0; t < traces; ++t) {
      const auto y = static_cast<std::uint32_t>(c % 2 == 0 ? rng.uniform(1U << 25)
                                                           : (1U << 27) | rng.uniform(1U << 27));
      pc.model.multipliers[c * traces + t] = y;
      const double hw = std::popcount(static_cast<std::uint64_t>(truth) * y);
      const double scale =
          spread ? std::ldexp(1.0, static_cast<int>(rng.uniform(61)) - 30) : 1.0;
      pc.cols[c][t] = static_cast<float>((1e4 + hw + 1.5 * rng.gaussian()) * scale);
    }
  }
  return pc;
}

// The callback a pre-ProductModel caller would pass for the same model.
auto product_callback(const ProductCase& pc, std::size_t traces) {
  return [&pc, traces](std::uint32_t g, std::size_t t, std::size_t c) {
    return static_cast<double>(
        std::popcount(static_cast<std::uint64_t>(g) * pc.model.multipliers[c * traces + t]));
  };
}

void expect_same_ranking(const std::vector<StreamingScan::Scored>& got,
                         const std::vector<StreamingScan::Scored>& want, const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].guess, want[i].guess) << ctx << " i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
              std::bit_cast<std::uint64_t>(want[i].score))
        << ctx << " i=" << i << " got " << got[i].score << " want " << want[i].score;
  }
}

TEST(ProductScan, MatchesCallbackBitForBitAtEveryDispatch) {
  SimdGuard guard;
  const std::uint32_t truth = 0x17BC803;  // a 25-bit mantissa half
  // Every score of a list with duplicates and 25- and 28-bit guesses.
  std::vector<std::uint32_t> guesses = {truth, truth << 1, truth << 2, 0, 1, (1U << 28) - 1};
  ChaCha20Prng rng(0x9E55);
  while (guesses.size() < 190) {
    guesses.push_back(static_cast<std::uint32_t>(rng.uniform(1U << 25)));
    guesses.push_back(static_cast<std::uint32_t>((1U << 27) | rng.uniform(1U << 27)));
  }
  // 207 guesses: the AVX-512 body hands 7 to the AVX2 one, which scores
  // four and leaves three to the scalar reference.
  for (std::size_t i = 0; i < 17; ++i) guesses.push_back(guesses[i * 7]);
  ASSERT_EQ(guesses.size(), 207U);
  // Trace counts straddle every lane residue and several blocks per
  // batch; batch 1 is the per-trace reference fold.
  for (const std::size_t traces : {1U, 3U, 6U, 24U, 67U, 130U}) {
    for (const std::size_t cols : {1U, 4U}) {
      const ProductCase pc =
          make_product_case(traces, cols, truth, 0x9E00 + traces + cols, /*spread=*/true);
      for (const std::size_t batch : {1U, 7U, 64U}) {
        const StreamingScan scan(pc.cols, {.batch_traces = batch});
        ASSERT_TRUE(cpa_force_simd(CpaSimd::kScalar));
        const auto want = scan.top_k_list(guesses, product_callback(pc, traces), guesses.size());
        for (const CpaSimd kind : available_simd()) {
          ASSERT_TRUE(cpa_force_simd(kind));
          const std::string ctx = std::string(cpa_simd_name(kind)) +
                                  " traces=" + std::to_string(traces) +
                                  " cols=" + std::to_string(cols) +
                                  " batch=" + std::to_string(batch);
          expect_same_ranking(scan.top_k_list(guesses, pc.model, guesses.size()), want, ctx);
        }
      }
    }
  }
}

TEST(ProductScan, RangeScanShardsByteIdentically) {
  SimdGuard guard;
  const std::uint32_t truth = 0x0AB5803;
  const std::size_t traces = 40;
  const ProductCase pc = make_product_case(traces, 4, truth, 0x9E60);
  StreamingScan scan(pc.cols);
  // A range holding the truth, its exact shifts (identical partial-product
  // Hamming weights, hence the top tie class) and a length of 3001.
  const std::uint64_t lo = truth - 1000;
  const std::uint64_t hi = lo + 3001;
  std::vector<std::uint32_t> list;
  for (std::uint64_t g = lo; g < hi; ++g) list.push_back(static_cast<std::uint32_t>(g));
  const auto want = scan.top_k_list(list, product_callback(pc, traces), 16);
  EXPECT_EQ(want.front().guess, truth);

  exec::ThreadPool pool(2);
  for (const CpaSimd kind : available_simd()) {
    ASSERT_TRUE(cpa_force_simd(kind));
    for (const std::size_t shards : {1U, 3U, 7U}) {
      scan.set_parallelism(shards, shards == 1 ? nullptr : &pool);
      expect_same_ranking(scan.top_k(lo, hi, pc.model, 16), want,
                          std::string(cpa_simd_name(kind)) + " shards=" + std::to_string(shards));
    }
  }
}

TEST(ProductScan, ShapeMismatchIsCheckedError) {
  const ProductCase pc = make_product_case(10, 2, 5, 0x9E70);
  const StreamingScan scan(pc.cols);
  ProductModel short_model = pc.model;
  short_model.multipliers.pop_back();
  const std::uint32_t guesses[] = {1, 2, 3};
  EXPECT_THROW((void)scan.top_k_list(guesses, short_model, 2), std::invalid_argument);
  EXPECT_THROW((void)scan.top_k(0, 100, ProductModel{}, 2), std::invalid_argument);
}

TEST(ProductScan, ExtendPhasesMatchTheCallbackReference) {
  // attack_component's extend phases through the ProductModel equal the
  // per-cell callback scan they replaced: same columns (view-major, then
  // offset), same hyp_*_mul_* models, byte-identical ranked lists.
  ChaCha20Prng rng(0xE7E0);
  const auto kp = falcon::keygen(4, rng);
  auto camp = small_config(0xE7E0);
  camp.num_traces = 150;
  const auto sets = sca::run_full_campaign(kp.sk, camp);
  const ComponentDataset ds = build_component_dataset(sets[2], /*imag_part=*/true);
  const ComponentAttackConfig cfg =
      component_attack_config(kp.sk, KeyRecoveryConfig{}, /*row=*/0, /*slot=*/2, /*imag=*/true);
  const ComponentResult res = attack_component(ds, cfg);

  const auto callback_top = [&](std::size_t off_a, std::size_t off_b,
                                std::span<const std::uint32_t> cands, auto&& hyp) {
    std::vector<SampleColumn> cols;
    std::vector<std::pair<unsigned, std::size_t>> meta;
    for (unsigned v = 0; v < 2; ++v) {
      for (const std::size_t off : {off_a, off_b}) {
        cols.push_back(ds.views[v].samples[off]);
        meta.emplace_back(v, off);
      }
    }
    const StreamingScan scan(cols, cfg.kernel);
    return scan.top_k_list(
        cands,
        [&](std::uint32_t g, std::size_t t, std::size_t c) {
          return hyp(g, ds.views[meta[c].first].known[t], meta[c].second);
        },
        cfg.extend_top_k);
  };
  namespace ww = sca::window;
  expect_same_ranking(res.low_extend.top,
                      callback_top(ww::kOffProdLL, ww::kOffProdLH, cfg.low_candidates,
                                   [](std::uint32_t g, const KnownOperand& k, std::size_t off) {
                                     return off == ww::kOffProdLL ? hyp_low_mul_ll(g, k)
                                                                  : hyp_low_mul_lh(g, k);
                                   }),
                      "low_extend");
  expect_same_ranking(res.high_extend.top,
                      callback_top(ww::kOffProdHL, ww::kOffProdHH, cfg.high_candidates,
                                   [](std::uint32_t g, const KnownOperand& k, std::size_t off) {
                                     return off == ww::kOffProdHL ? hyp_high_mul_hl(g, k)
                                                                  : hyp_high_mul_hh(g, k);
                                   }),
                      "high_extend");
}

// --- hypothesis scan: every leak kind as data ------------------------------

// One phase's columns: kinds in column order, each with its own known
// operands, and the hyp_* callback the kind replaces.
enum class Phase { kSign, kExponent, kProduct, kLowPrune, kHighPrune };

struct PhaseCase {
  std::vector<std::vector<float>> cols;
  std::vector<std::vector<KnownOperand>> known;  // per column
  std::vector<std::vector<std::uint32_t>> operands;  // what the model's columns point at
  HypothesisModel model;
  Phase phase;
  std::uint32_t x0 = 0;

  [[nodiscard]] double hyp(std::uint32_t g, std::size_t t, std::size_t c) const {
    const KnownOperand& k = known[c][t];
    switch (phase) {
      case Phase::kSign:
        return hyp_sign(g != 0, k);
      case Phase::kExponent:
        return hyp_exponent(g, k);
      case Phase::kProduct:
        return c % 2 == 0 ? hyp_low_mul_ll(g, k) : hyp_low_mul_lh(g, k);
      case Phase::kLowPrune:
        return hyp_low_add_z1a(g, k);
      case Phase::kHighPrune:
        return c % 2 == 0 ? hyp_high_add_z1b(g, x0, k) : hyp_high_add_zu(g, x0, k);
    }
    return 0.0;
  }
};

// Columns leaking `truth` through the phase's hypotheses, each sample
// scaled by a random power of two (see make_product_case: the fold's
// terms then span ~90 bits, so any reassociation shows). `constant_col`
// replaces every sample by one value.
PhaseCase make_phase_case(Phase phase, std::size_t traces, std::uint32_t truth,
                          std::uint64_t seed, std::uint32_t x0 = 0, bool constant_col = false) {
  ChaCha20Prng rng(seed);
  PhaseCase pc;
  pc.phase = phase;
  pc.x0 = x0;
  const std::size_t ncols = phase == Phase::kHighPrune ? 4 : 2;
  pc.cols.assign(ncols, std::vector<float>(traces));
  pc.known.assign(ncols, {});
  for (std::size_t c = 0; c < ncols; ++c) {
    for (std::size_t t = 0; t < traces; ++t) {
      KnownOperand k;
      k.y0 = static_cast<std::uint32_t>(rng.uniform(1U << 25));
      k.y1 = static_cast<std::uint32_t>((1U << 27) | rng.uniform(1U << 27));
      k.exponent = 1000 + static_cast<unsigned>(rng.uniform(120));  // sums wrap below 2100
      k.sign = rng.uniform(2) != 0;
      pc.known[c].push_back(k);
    }
  }
  for (std::size_t c = 0; c < ncols; ++c) {
    for (std::size_t t = 0; t < traces; ++t) {
      const double scale = std::ldexp(1.0, static_cast<int>(rng.uniform(61)) - 30);
      pc.cols[c][t] = constant_col ? 5.0F
                                   : static_cast<float>(
                                         (1e4 + pc.hyp(truth, t, c) + 1.5 * rng.gaussian()) *
                                         scale);
    }
  }
  // The model: the same operands as data (x0 folded in for the high prune).
  const auto ops = [&](std::size_t c, auto&& f) {
    std::vector<std::uint32_t> v;
    for (const KnownOperand& k : pc.known[c]) v.push_back(f(k));
    return std::span<const std::uint32_t>(pc.operands.emplace_back(std::move(v)));
  };
  const auto steps = [x0](const KnownOperand& k) {
    return fpr::mul_mantissa_steps(x0, (static_cast<std::uint64_t>(k.y1) << 25) | k.y0);
  };
  for (std::size_t c = 0; c < ncols; ++c) {
    HypothesisModel::Column col;
    const auto y0 = ops(c, [](const KnownOperand& k) { return k.y0; });
    const auto y1 = ops(c, [](const KnownOperand& k) { return k.y1; });
    switch (phase) {
      case Phase::kSign:
        col.kind = LeakKind::kSign;
        col.ops[0] = ops(c, [](const KnownOperand& k) { return std::uint32_t{k.sign}; });
        break;
      case Phase::kExponent:
        col.kind = LeakKind::kExpSum;
        col.ops[0] = ops(c, [](const KnownOperand& k) { return std::uint32_t{k.exponent}; });
        break;
      case Phase::kProduct:
        col.ops[0] = c % 2 == 0 ? y0 : y1;
        break;
      case Phase::kLowPrune:
        col.kind = LeakKind::kZ1a;
        col.ops[0] = y0;
        col.ops[1] = y1;
        break;
      case Phase::kHighPrune: {
        const auto z1a = ops(c, [&](const KnownOperand& k) { return steps(k).z1a; });
        col.ops[0] = y0;
        if (c % 2 == 0) {
          col.kind = LeakKind::kZ1b;
          col.ops[1] = z1a;
        } else {
          col.kind = LeakKind::kZu;
          col.ops[1] = y1;
          col.ops[2] = z1a;
          col.ops[3] = ops(c, [&](const KnownOperand& k) {
            return static_cast<std::uint32_t>(steps(k).prod_lh >> 25);
          });
        }
        break;
      }
    }
    pc.model.columns.push_back(std::move(col));
  }
  return pc;
}

// 17 guesses per phase, the truth first: the phase's guess space plus
// out-of-range values that exercise the kinds' masks and wraps.
std::vector<std::uint32_t> phase_guesses(Phase phase, std::uint32_t truth, std::uint64_t seed) {
  ChaCha20Prng rng(seed);
  std::vector<std::uint32_t> g = {truth};
  switch (phase) {
    case Phase::kSign:
      g.insert(g.end(), {0, 1, 2, 0xFFFFFFFFU});
      break;
    case Phase::kExponent:
      g.insert(g.end(), {1005, 1053, 0, 2100, 0xFFFFFFFFU});
      break;
    case Phase::kProduct:
    case Phase::kLowPrune:
      g.insert(g.end(), {truth << 1, truth >> 1, 0, (1U << 25) - 1, 0xFFFFFFFFU});
      break;
    case Phase::kHighPrune:
      g.insert(g.end(), {truth >> 1, 1U << 27, (1U << 28) - 1, 0xFFFFFFFFU});
      break;
  }
  while (g.size() < 17) {
    const std::uint32_t r = static_cast<std::uint32_t>(rng.uniform(1U << 25));
    g.push_back(phase == Phase::kHighPrune ? (1U << 27) | r
                : phase == Phase::kExponent ? 1005 + r % 49
                                            : r);
  }
  return g;
}

std::uint32_t phase_truth(Phase phase) {
  switch (phase) {
    case Phase::kSign:
      return 1;
    case Phase::kExponent:
      return 1029;
    case Phase::kHighPrune:
      return 0xB00F5A7;
    default:
      return 0x17BC803;
  }
}

TEST(HypothesisScan, EveryKindMatchesCallbackBitForBitAtEveryDispatch) {
  SimdGuard guard;
  struct Variant {
    Phase phase;
    std::uint32_t x0;
    const char* name;
  };
  const Variant variants[] = {{Phase::kSign, 0, "sign"},
                              {Phase::kExponent, 0, "exponent"},
                              {Phase::kProduct, 0, "product"},
                              {Phase::kLowPrune, 0, "z1a"},
                              {Phase::kHighPrune, 0, "z1b/zu x0=0"},
                              {Phase::kHighPrune, (1U << 25) - 1, "z1b/zu x0=2^25-1"}};
  for (const Variant& var : variants) {
    const std::uint32_t truth = phase_truth(var.phase);
    const auto all = phase_guesses(var.phase, truth, 0x4B1D);
    for (const std::size_t traces : {1U, 3U, 63U, 64U, 65U, 130U}) {
      const PhaseCase pc = make_phase_case(var.phase, traces, truth, 0x4B00 + traces, var.x0);
      const auto callback = [&pc](std::uint32_t g, std::size_t t, std::size_t c) {
        return pc.hyp(g, t, c);
      };
      for (const std::size_t batch : {1U, 64U}) {
        const StreamingScan scan(pc.cols, {.batch_traces = batch});
        for (std::size_t n = 1; n <= all.size(); ++n) {
          const std::span<const std::uint32_t> guesses(all.data(), n);
          ASSERT_TRUE(cpa_force_simd(CpaSimd::kScalar));
          const auto want = scan.top_k_list(guesses, callback, n);
          for (const CpaSimd kind : available_simd()) {
            ASSERT_TRUE(cpa_force_simd(kind));
            expect_same_ranking(scan.top_k_list(guesses, pc.model, n), want,
                                std::string(var.name) + " " + cpa_simd_name(kind) +
                                    " traces=" + std::to_string(traces) +
                                    " batch=" + std::to_string(batch) +
                                    " guesses=" + std::to_string(n));
          }
        }
      }
    }
  }
}

TEST(HypothesisScan, ConstantHypothesisOrColumnScoresPositiveZero) {
  SimdGuard guard;
  for (const CpaSimd kind : available_simd()) {
    ASSERT_TRUE(cpa_force_simd(kind));
    // A constant column: every guess of every kind scores +0.0.
    for (const Phase phase : {Phase::kSign, Phase::kExponent, Phase::kProduct,
                              Phase::kLowPrune, Phase::kHighPrune}) {
      const std::uint32_t truth = phase_truth(phase);
      const PhaseCase pc = make_phase_case(phase, 65, truth, 0x4C00, 0, /*constant_col=*/true);
      const StreamingScan scan(pc.cols);
      for (const auto& s : scan.top_k_list(phase_guesses(phase, truth, 0x4C01), pc.model, 17)) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.score), 0U)
            << cpa_simd_name(kind) << " guess " << s.guess << " scored " << s.score;
      }
    }
    // Constant hypotheses: the product of guess 0, and the sign of a
    // campaign whose known signs never change.
    const PhaseCase product = make_phase_case(Phase::kProduct, 65, 0x17BC803, 0x4C02);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(StreamingScan(product.cols).score_one(0, product.model)),
              0U)
        << cpa_simd_name(kind);
    PhaseCase sign = make_phase_case(Phase::kSign, 65, 1, 0x4C03);
    const std::vector<std::uint32_t> ones(65, 1);
    for (auto& col : sign.model.columns) col.ops[0] = ones;
    for (const std::uint32_t g : {0U, 1U}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(StreamingScan(sign.cols).score_one(g, sign.model)),
                0U)
          << cpa_simd_name(kind) << " sign guess " << g;
    }
  }
}

TEST(HypothesisScan, ShapeMismatchIsCheckedError) {
  const PhaseCase pc = make_phase_case(Phase::kHighPrune, 10, 0xB00F5A7, 0x4D00);
  const StreamingScan scan(pc.cols);
  const std::uint32_t guesses[] = {1, 2, 3};
  HypothesisModel fewer = pc.model;
  fewer.columns.pop_back();
  EXPECT_THROW((void)scan.top_k_list(guesses, fewer, 2), std::invalid_argument);
  HypothesisModel short_operand = pc.model;
  auto& zu_d = short_operand.columns[1].ops[3];
  zu_d = zu_d.first(zu_d.size() - 1);  // zu reads all four
  EXPECT_THROW((void)scan.top_k_list(guesses, short_operand, 2), std::invalid_argument);
  HypothesisModel unread = pc.model;
  const std::vector<std::uint32_t> three(3, 0);
  unread.columns[0].ops[3] = three;  // z1b reads only a and b
  EXPECT_NO_THROW((void)scan.top_k_list(guesses, unread, 2));
}

TEST(HypothesisScan, AttackComponentPhasesMatchTheCallbackReference) {
  // Every phase of attack_component against the per-cell callback scan
  // over the same columns (view-major, then offset) and the hyp_*
  // models: sign, the exponent tie class (a prefix of the full ranking),
  // and both prunes over the extend survivors, byte-identical.
  ChaCha20Prng rng(0xE7E1);
  const auto kp = falcon::keygen(4, rng);
  auto camp = small_config(0xE7E1);
  camp.num_traces = 150;
  const auto sets = sca::run_full_campaign(kp.sk, camp);
  const ComponentDataset ds = build_component_dataset(sets[1], /*imag_part=*/false);
  const ComponentAttackConfig cfg =
      component_attack_config(kp.sk, KeyRecoveryConfig{}, /*row=*/0, /*slot=*/1, /*imag=*/false);
  const ComponentResult res = attack_component(ds, cfg);

  namespace ww = sca::window;
  const auto callback_top = [&](std::span<const std::size_t> offsets,
                                std::span<const std::uint32_t> cands, std::size_t keep,
                                auto&& hyp) {
    std::vector<SampleColumn> cols;
    std::vector<std::pair<unsigned, std::size_t>> meta;
    for (unsigned v = 0; v < 2; ++v) {
      for (const std::size_t off : offsets) {
        cols.push_back(ds.views[v].samples[off]);
        meta.emplace_back(v, off);
      }
    }
    const StreamingScan scan(cols, cfg.kernel);
    return scan.top_k_list(
        cands,
        [&](std::uint32_t g, std::size_t t, std::size_t c) {
          return hyp(g, ds.views[meta[c].first].known[t], meta[c].second);
        },
        keep);
  };
  const auto survivors = [](const PhaseOutcome& p) {
    std::vector<std::uint32_t> s;
    for (const auto& e : p.top) s.push_back(e.guess);
    return s;
  };

  const std::size_t sign_off[] = {ww::kOffSign};
  const std::uint32_t signs[] = {0, 1};
  expect_same_ranking(res.sign_phase.top,
                      callback_top(sign_off, signs, 2,
                                   [](std::uint32_t g, const KnownOperand& k, std::size_t) {
                                     return hyp_sign(g != 0, k);
                                   }),
                      "sign");

  const std::size_t exp_off[] = {ww::kOffExpSum};
  std::vector<std::uint32_t> exps;
  for (std::uint32_t e = cfg.exp_min; e <= cfg.exp_max; ++e) exps.push_back(e);
  auto exp_all = callback_top(exp_off, exps, exps.size(),
                              [](std::uint32_t g, const KnownOperand& k, std::size_t) {
                                return hyp_exponent(g, k);
                              });
  ASSERT_FALSE(res.exp_phase.top.empty());
  ASSERT_LE(res.exp_phase.top.size(), exp_all.size());
  exp_all.resize(res.exp_phase.top.size());
  expect_same_ranking(res.exp_phase.top, exp_all, "exponent");

  const std::size_t z1a_off[] = {ww::kOffAccZ1a};
  const auto low = survivors(res.low_extend);
  expect_same_ranking(res.low_prune.top,
                      callback_top(z1a_off, low, low.size(),
                                   [](std::uint32_t g, const KnownOperand& k, std::size_t) {
                                     return hyp_low_add_z1a(g, k);
                                   }),
                      "low_prune");

  const std::size_t high_off[] = {ww::kOffAccZ1b, ww::kOffAccZu};
  const auto high = survivors(res.high_extend);
  const std::uint32_t x0 = res.x0;
  expect_same_ranking(res.high_prune.top,
                      callback_top(high_off, high, high.size(),
                                   [x0](std::uint32_t g, const KnownOperand& k, std::size_t off) {
                                     return off == ww::kOffAccZu ? hyp_high_add_zu(g, x0, k)
                                                                 : hyp_high_add_z1b(g, x0, k);
                                   }),
                      "high_prune");
}

}  // namespace
}  // namespace fd::attack
